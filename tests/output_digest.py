"""One digest per scene of everything the pipeline and ``verify`` print.

    python tests/output_digest.py --src <checkout>/src [--scenes full]

Imports ``polyspanner`` from the given ``src`` directory and prints one
line per scene, ``<label> <digest>``. The digest covers the five edge
lists, the g7 transcript, the canonical-sequence and charge tables in
their order, the ``run_verification`` lines, clean, under each
substitution of ``SUBSTITUTIONS`` and, when the scene has a pair inside
an obstacle wedge, under each of ``WEDGE_SUBSTITUTIONS`` given that
pair too, and ``check_per_edge_bound_ginf``'s witnesses for each
thinned ginf of ``PER_EDGE_THINNINGS``, with every float as
``float.hex``. ``--scenes full`` also prints one line per scene of
``off_general_position``, whose digest covers its vis edge list only:
four of its six scenes have a collinear triple, so they take the ray
test that ``visibility_graph`` skips without one. Two checkouts whose
outputs agree
print the same lines, so a refactor is checked with

    diff <(python tests/output_digest.py --src old/src --scenes full) \\
         <(python tests/output_digest.py --src new/src --scenes full)

``--scenes fixtures`` (the default) runs the curated fixtures only;
``full`` adds them rescaled by 2^60 (coordinates past int64) and by
3^-40, the acceptance configurations and 40 scenes of the build-dense
benchmark's size. The scene lists come from the checkout the script is
run from; the library, and so the generated scenes, from ``--src``.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys
from fractions import Fraction

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent


# (graph, slice of its sorted edge list kept): ginf and vis without their
# first edge, every second g15 edge, no g10 edge. Sliced from
# ``sorted(g.edges)``: a frozenset's own order depends on how it was filled.
SUBSTITUTIONS = (
    ("ginf", slice(1, None)),
    ("g15", slice(None, None, 2)),
    ("vis", slice(1, None)),
    ("g10", slice(0)),
)

# Graphs substituted by their edges plus the least pair (u < v) that the
# scene's classification marks ``cones.IN_WEDGE``, in either direction: a
# pair no cone holds, so the checks that classify it fail by ValueError.
WEDGE_SUBSTITUTIONS = ("ginf", "vis", "g15")

# Slices of ginf's sorted edge list whose per-edge witnesses are digested
# bit for bit; the ``run_verification`` lines print only their edges.
PER_EDGE_THINNINGS = (slice(None, None, 2), slice(None, None, 3))


def scenes(which: str = "fixtures") -> list:
    """(label, scene) for the named scene set. The dense scenes have the
    build-dense benchmark's size: 42 vertices among five 8-point
    obstacles."""
    from polyspanner.generator import GeneratorConfig, generate
    from polyspanner.scene import Scene

    from tests.conftest import load_scene
    from tests.test_acceptance import FIXTURE_NAMES, configs

    fixtures = [(name, load_scene(name)) for name in FIXTURE_NAMES]
    if which == "fixtures":
        return fixtures
    out = list(fixtures)
    for label, f in (("2^60", 2**60), ("3^-40", Fraction(1, 3**40))):
        out += [
            (f"{name}*{label}", Scene([(x * f, y * f) for x, y in sc.vertices], sc.obstacles))
            for name, sc in fixtures
        ]
    dense = [GeneratorConfig(n_points=42, n_obstacles=5, obstacle_size=8, seed=s) for s in range(40)]
    for cfg in configs() + dense:
        out.append((f"gen-{cfg.n_points}-{cfg.n_obstacles}-{cfg.obstacle_size}-{cfg.seed}", generate(cfg)))
    return out


def off_general_position() -> list:
    """(label, scene) for ``test_visibility.py``'s scenes with a vertex on
    an open segment or an irregular endpoint, as given and rescaled by
    2^60."""
    from polyspanner.scene import Scene

    from tests.test_visibility import IRREGULAR_SCENES, ONE_RAY

    out = []
    for name, sc in [("one-ray", ONE_RAY), *IRREGULAR_SCENES.items()]:
        big = Scene([(x * 2**60, y * 2**60) for x, y in sc.vertices], sc.obstacles)
        out += [(f"vis-{name}", sc), (f"vis-{name}*2^60", big)]
    return out


def vis_digest(scene) -> str:
    from polyspanner.visibility import visibility_graph

    text = f"vis {sorted(visibility_graph(scene).edges)}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(scene) -> str:
    from polyspanner.cones import IN_WEDGE
    from polyspanner.spanners import build_all, canonical_sequences, compute_charges
    from polyspanner.verify import (
        check_per_edge_bound_ginf,
        distance_matrix,
        edge_table,
        run_verification,
    )
    from polyspanner.visibility import Graph

    graphs, g7res = build_all(scene)
    ginf = graphs["ginf"]
    index = ginf.index
    parts = [f"{name} {sorted(g.edges)}" for name, g in graphs.items()]
    parts += [repr(t) for t in g7res.transformations]
    parts += [repr((ref, seq.vertices, seq.closest)) for ref, seq in canonical_sequences(scene, ginf, index).items()]
    parts += [repr(item) for item in compute_charges(scene, ginf, index).items()]
    parts += [o.line() for o in run_verification(scene)]
    for name, kept in SUBSTITUTIONS:
        sub = Graph(scene.n, sorted(graphs[name].edges)[kept])
        parts.append(f"-- {name} {kept}")
        parts += [o.line() for o in run_verification(scene, {name: sub})]
    wedged = np.argwhere(index.classification.codes == IN_WEDGE)
    if len(wedged):
        pair = min(tuple(sorted(map(int, uv))) for uv in wedged)
        for name in WEDGE_SUBSTITUTIONS:
            sub = Graph(scene.n, sorted(graphs[name].edges) + [pair])
            parts.append(f"-- {name} + {pair}")
            parts += [o.line() for o in run_verification(scene, {name: sub})]
    vis = edge_table(scene, graphs["vis"])
    for kept in PER_EDGE_THINNINGS:
        thinned = edge_table(scene, Graph(scene.n, sorted(ginf.edges)[kept]))
        report = check_per_edge_bound_ginf(vis, distance_matrix(thinned), index)
        parts.append(f"-- per-edge {kept}")
        parts += [f"{pair} {have.hex()} {bound.hex()}" for pair, have, bound in report.witnesses]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src directory whose polyspanner to import")
    parser.add_argument("--scenes", choices=("fixtures", "full"), default="fixtures")
    args = parser.parse_args(argv)
    # Before any polyspanner import: every import of it in this script
    # is deferred to a function, so the copy under --src is the one used.
    sys.path[:0] = [str(pathlib.Path(args.src).resolve()), str(ROOT)]
    for label, scene in scenes(args.scenes):
        print(label, digest(scene))
    if args.scenes == "full":
        for label, scene in off_general_position():
            print(label, vis_digest(scene))
    return 0


if __name__ == "__main__":
    sys.exit(main())
