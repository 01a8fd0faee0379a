"""Command-line interface.

Exit codes: 0 success, 1 a verification check failed, 2 bad usage,
unreadable input, or a scene outside general position given to build
or render --graph with any graph but vis.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .cones import GeneralPositionError
from .generator import GeneratorConfig, GeneratorError, generate
from .io import ParseError, parse_edge_list, parse_instance, write_edge_list, write_instance
from .scene import SceneError, perturb_by_rotation
from .spanners import GRAPH_NAMES, pipeline
from .svg import render_svg
from .verify import run_verification


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _build(scene, name: str):
    """One named graph, building the chain only up to it. vis is exact
    on any input; ginf and later refuse a scene outside general
    position."""
    for step, built in pipeline(scene):
        if step == name:
            return built.graph if step == "g7" else built


def _cmd_gen(args) -> int:
    try:
        config = GeneratorConfig(
            n_points=args.n,
            n_obstacles=args.obstacles,
            obstacle_size=args.size,
            extent=args.extent,
            seed=args.seed,
        )
        scene = generate(config)
    except (ValueError, GeneratorError) as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return 2
    _write(args.out, write_instance(scene))
    return 0


def _cmd_build(args) -> int:
    scene = parse_instance(_read(args.infile))
    _write(args.out, write_edge_list(_build(scene, args.graph)))
    return 0


def _cmd_verify(args) -> int:
    if len(args.graph or []) != len(args.edges or []):
        print("verify: each --graph needs a matching --edges", file=sys.stderr)
        return 2
    for name in GRAPH_NAMES:
        if (args.graph or []).count(name) > 1:
            print(f"verify: --graph {name} given twice", file=sys.stderr)
            return 2
    scene = parse_instance(_read(args.infile))
    substitutions = {}
    for name, path in zip(args.graph or [], args.edges or []):
        substitutions[name] = parse_edge_list(_read(path))
    for name, graph in substitutions.items():
        if graph.n != scene.n:
            print(
                f"verify: {name} edge list has {graph.n} vertices, scene has {scene.n}",
                file=sys.stderr,
            )
            return 2
    outcomes = run_verification(scene, substitutions or None)
    for outcome in outcomes:
        print(outcome.line())
    return 0 if all(o.ok for o in outcomes) else 1


def _cmd_render(args) -> int:
    scene = parse_instance(_read(args.infile))
    graph = None
    if args.graph is not None:
        graph = _build(scene, args.graph)
    _write(args.out, render_svg(scene, graph, title=args.infile))
    return 0


def _cmd_perturb(args) -> int:
    scene = parse_instance(_read(args.infile))
    report = scene.general_position()
    if report.collinear_count:
        print(
            "perturb: collinear triples cannot be fixed by rotation; "
            f"first: {report.first_collinear}",
            file=sys.stderr,
        )
        return 2
    k = 2
    while not report.ok:
        if k > 200:
            print("perturb: no suitable rotation found", file=sys.stderr)
            return 2
        rotated = perturb_by_rotation(scene, k)
        rep = rotated.general_position()
        if rep.ok:
            scene, report = rotated, rep
            break
        k += 1
    _write(args.out, write_instance(scene))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared:
    building it costs more than ten ``parse_args`` calls, and each parse
    returns a fresh namespace, so calls share no state."""
    parser = argparse.ArgumentParser(
        prog="polyspanner",
        description="Plane spanners among polygonal obstacles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True, help="total vertex count")
    p.add_argument("--obstacles", type=int, default=0)
    p.add_argument("--size", type=int, default=5, help="points sampled per obstacle")
    p.add_argument("--extent", type=int, default=1_000_000, help="coordinate range")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("build", help="build a graph and write its edge list")
    p.add_argument("--graph", choices=GRAPH_NAMES, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="run every check against an instance")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument(
        "--graph",
        choices=GRAPH_NAMES,
        action="append",
        help="substitute this graph from an edge list (repeatable)",
    )
    p.add_argument("--edges", action="append", help="edge list for --graph")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="draw an instance as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--graph", choices=GRAPH_NAMES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("perturb", help="rotate an instance into general position")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_perturb)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except OverflowError as exc:
        print(f"{args.command}: coordinate too large for a float ({exc})", file=sys.stderr)
        return 2
    except (GeneralPositionError, ParseError, SceneError, OSError) as exc:
        # An unreadable or malformed --in or --edges, an --out that cannot
        # be written, or a scene outside general position, which the
        # pipeline refuses before any output is written.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
