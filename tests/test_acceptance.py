"""End-to-end acceptance run.

One hundred seeded random instances spanning 10 to 60 vertices with up
to five obstacles, plus the curated fixture scenes, are pushed through
the full pipeline once. Each test below certifies one promised
property over the whole batch and records a summary line.
"""

import math
import time
from dataclasses import dataclass, field

import pytest

from tests.conftest import FIXTURES, fixture_text, load_scene

from polyspanner.cli import main
from polyspanner.cones import ConeIndex
from polyspanner.generator import GeneratorConfig, generate
from polyspanner.io import parse_edge_list
from polyspanner.spanners import (
    build_g10,
    build_g15,
    build_g_infinity,
    compute_charges,
    g7_transform,
)
from polyspanner.verify import (
    REL_TOL,
    check_canonical_paths,
    check_empty_triangles,
    check_per_edge_bound_ginf,
    check_planarity,
    degree_report,
    distance_matrix,
    edge_table,
    oracle_g_infinity,
    per_edge_bound,
    run_verification,
    stretch_factor,
)
from polyspanner.visibility import Graph, visibility_graph

ACCEPTANCE_LOG = []

FIXTURE_NAMES = [
    "micro3.json",
    "split_cones.json",
    "nonconvex.json",
    "g7_structural.json",
    "g7_edge_removal.json",
    "g7_charge_move.json",
]


def configs():
    out = []
    for i in range(100):
        n = 10 + (i % 51)
        k = min(i % 6, (n - 6) // 4, 5)
        out.append(GeneratorConfig(n_points=n, n_obstacles=k, seed=1000 + i))
    return out


@dataclass
class Instance:
    label: str
    scene: object
    vis: Graph
    ginf: Graph
    g15: Graph
    g10: Graph
    g7res: object
    tables: dict = field(default_factory=dict)
    dists: dict = field(default_factory=dict)

    def table(self, name):
        if name not in self.tables:
            g = {"vis": self.vis, "ginf": self.ginf, "g15": self.g15,
                 "g10": self.g10, "g7": self.g7res.graph}[name]
            self.tables[name] = edge_table(self.scene, g)
        return self.tables[name]

    def dist(self, name):
        if name not in self.dists:
            self.dists[name] = distance_matrix(self.table(name))
        return self.dists[name]


def _build(label, scene):
    vis = visibility_graph(scene)
    ginf = build_g_infinity(scene, vis)
    g15 = build_g15(scene, ginf)
    g10 = build_g10(scene, ginf)
    g7res = g7_transform(scene, ginf, g10, ConeIndex(scene))
    return Instance(label, scene, vis, ginf, g15, g10, g7res)


@pytest.fixture(scope="session")
def suite():
    instances = [
        _build(f"seed={cfg.seed}", generate(cfg)) for cfg in configs()
    ]
    for name in FIXTURE_NAMES:
        instances.append(_build(name, load_scene(name)))
    return instances


def record(ok: bool, line: str):
    ACCEPTANCE_LOG.append(("PASS " if ok else "FAIL ") + line)
    print(("PASS " if ok else "FAIL ") + line)
    if not ok:
        pytest.fail(line)


def test_criterion_1_oracle_equivalence(suite):
    t0 = time.time()
    mismatched = [
        inst.label for inst in suite
        if oracle_g_infinity(inst.scene) != inst.ginf
    ]
    elapsed = time.time() - t0
    ok = not mismatched and elapsed < 60.0
    record(
        ok,
        f"[1] independent-oracle equivalence on {len(suite)} instances "
        f"({elapsed:.1f}s, budget 60s)"
        + (f"; mismatches: {mismatched[:3]}" if mismatched else ""),
    )


def test_criterion_2_planarity(suite):
    bad = []
    for inst in suite:
        for name, g in (("ginf", inst.ginf), ("g15", inst.g15),
                        ("g10", inst.g10), ("g7", inst.g7res.graph)):
            rep = check_planarity(inst.scene, g)
            if not rep.ok:
                bad.append((inst.label, name))
    record(
        not bad,
        f"[2] planarity of every constructed graph on {len(suite)} instances"
        + (f"; failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_3_degree_bounds_and_charges(suite):
    bad = []
    for inst in suite:
        if degree_report(inst.g15).max_degree > 15:
            bad.append((inst.label, "g15"))
        if degree_report(inst.g10).max_degree > 10:
            bad.append((inst.label, "g10"))
        if degree_report(inst.g7res.graph).max_degree > 7:
            bad.append((inst.label, "g7"))
        ledger = compute_charges(inst.scene, inst.ginf, ConeIndex(inst.scene))
        totals = [0] * inst.scene.n
        for ref, charges in ledger.items():
            totals[ref.apex] += len(charges)
        for v, degree in enumerate(inst.g10.degrees()):
            if totals[v] < degree:
                bad.append((inst.label, f"undercharged {v}"))
        for ref, charges in ledger.items():
            cap = 2 if ref.label.positive else 1
            if len(charges) > cap:
                bad.append((inst.label, f"slot {ref} holds {len(charges)}"))
    record(
        not bad,
        f"[3] degree caps 15/10/7 and charge accounting on {len(suite)} instances"
        + (f"; failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_4_stretch_bounds(suite):
    bounds = [
        ("ginf", "vis", 2.0),
        ("g15", "ginf", 3.0),
        ("g10", "ginf", 3.0),
        ("g7", "ginf", 3.0),
        ("g15", "vis", 6.0),
        ("g10", "vis", 6.0),
        ("g7", "vis", 6.0),
    ]
    bad = []
    worst = 0.0
    for inst in suite:
        for sub, base, bound in bounds:
            rep = stretch_factor(inst.table(base), inst.dist(sub))
            worst = max(worst, rep.max_ratio / bound)
            if not rep.within(bound):
                bad.append((inst.label, f"{sub}|{base}", rep.max_ratio))
    record(
        not bad,
        f"[4] stretch ginf<=2*vis and trimmed<=3*ginf<=6*vis at rel tol {REL_TOL}"
        f" (worst fill {worst:.3f})"
        + (f"; failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_5_per_edge_bound(suite):
    spot_ok = (
        abs(per_edge_bound(0.0) - math.sqrt(3)) < 1e-12
        and abs(per_edge_bound(math.pi / 6) - 2.0) < 1e-12
    )
    bad = []
    for inst in suite:
        rep = check_per_edge_bound_ginf(inst.table("vis"), inst.dist("ginf"), ConeIndex(inst.scene))
        if not rep.ok:
            bad.append((inst.label, rep.witnesses[:2]))
    record(
        spot_ok and not bad,
        "[5] per-edge detour bound with spot values sqrt(3) and 2"
        + ("" if spot_ok else "; spot values off")
        + (f"; failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_6_structure_checkers(suite):
    bad = []
    for inst in suite:
        if not check_canonical_paths(inst.scene, inst.ginf, inst.g15, ConeIndex(inst.scene)).ok:
            bad.append((inst.label, "canonical-paths"))
        if not check_empty_triangles(inst.scene, inst.ginf, ConeIndex(inst.scene)).ok:
            bad.append((inst.label, "empty-triangles"))
    # negative controls: a vertex parked inside the triangle of two
    # joined members, and a pruned path edge, must each be caught
    from polyspanner.scene import Scene

    control = Scene([(0, 0), (30, 5), (8, 10), (12, 6)])
    planted = Graph(4, [(0, 1), (0, 2)])
    controls_fire = (
        not check_empty_triangles(control, planted, ConeIndex(control)).ok
        and not check_canonical_paths(
            control, Graph(4, [(0, 1), (0, 2), (1, 2)]), planted, ConeIndex(control)
        ).ok
    )
    record(
        not bad and controls_fire,
        f"[6] canonical-path and empty-triangle checkers on {len(suite)} "
        "instances, with firing negative controls"
        + (f"; failures: {bad[:3]}" if bad else "")
        + ("" if controls_fire else "; negative controls silent"),
    )


def test_criterion_7_subgraph_chain(suite):
    bad = []
    for inst in suite:
        if not inst.g10.is_subgraph_of(inst.g15):
            bad.append((inst.label, "g10-g15"))
        if not inst.g15.is_subgraph_of(inst.ginf):
            bad.append((inst.label, "g15-ginf"))
        if not inst.ginf.is_subgraph_of(inst.vis):
            bad.append((inst.label, "ginf-vis"))
        added = {
            t.added_xy for t in inst.g7res.transformations if t.added_xy
        }
        extras = set(inst.g7res.graph.edges) - set(inst.g10.edges)
        if not extras <= added:
            bad.append((inst.label, "g7-extras"))
    record(
        not bad,
        f"[7] chain g10 within g15 within ginf within vis; g7 extras all "
        f"transformation-added ({len(suite)} instances)"
        + (f"; failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_8_micro_instance(suite):
    inst = next(i for i in suite if i.label == "micro3.json")
    edges_ok = inst.ginf.sorted_edges() == [(0, 1), (1, 2)]
    rep = stretch_factor(inst.table("vis"), inst.dist("ginf"))
    value_ok = abs(rep.max_ratio - math.sqrt(2)) < 1e-12
    witness_ok = rep.witness_pair == (0, 2)
    record(
        edges_ok and value_ok and witness_ok,
        f"[8] three-point micro instance: spine edges and stretch sqrt(2) "
        f"(got {rep.max_ratio:.12f} at {rep.witness_pair})",
    )


def _drop_edge(path, target=None):
    lines = path.read_text().splitlines()
    n, m = lines[0].split()
    body = lines[1:]
    victim = target if target in body else body[0]
    body.remove(victim)
    path.write_text("\n".join([f"{n} {int(m) - 1}"] + body) + "\n")


def _add_edge(path, line):
    lines = path.read_text().splitlines()
    n, m = lines[0].split()
    path.write_text("\n".join([f"{n} {int(m) + 1}"] + lines[1:] + [line]) + "\n")


def test_criterion_9_cli_end_to_end(tmp_path, capsys):
    failures = []
    for cfg in configs():
        inst = tmp_path / f"i{cfg.seed}.json"
        rcs = [
            main(["gen", "--n", str(cfg.n_points),
                  "--obstacles", str(cfg.n_obstacles),
                  "--seed", str(cfg.seed), "--out", str(inst)]),
        ]
        for graph in ("ginf", "g15", "g10", "g7"):
            out = tmp_path / f"i{cfg.seed}.{graph}.edges"
            rcs.append(main(["build", "--graph", graph, "--in", str(inst),
                             "--out", str(out)]))
        rcs.append(main(["verify", "--in", str(inst)]))
        if any(rcs):
            failures.append((cfg.seed, rcs))
    capsys.readouterr()

    # corrupting any layer's edge list must exit 1 and name a failed check
    def built(fixture, graph):
        inst = tmp_path / fixture
        inst.write_text(fixture_text(fixture))
        edges = tmp_path / f"{fixture}.{graph}.corrupt"
        assert main(["build", "--graph", graph, "--in", str(inst),
                     "--out", str(edges)]) == 0
        return inst, edges

    corruptions = []

    inst, edges = built("g7_structural.json", "ginf")
    _drop_edge(edges)
    corruptions.append((inst, "ginf", edges, "FAIL oracle-equivalence(ginf)"))

    inst, edges = built("split_cones.json", "g15")
    _drop_edge(edges, "4 8")  # joins consecutive members of a sequence at 7
    corruptions.append((inst, "g15", edges, "FAIL canonical-path-edges(g15)"))

    inst, edges = built("nonconvex.json", "g10")
    g10_lines = set(edges.read_text().splitlines()[1:])
    vis_out = tmp_path / "nonconvex.vis.edges"
    assert main(["build", "--graph", "vis",
                 "--in", str(inst), "--out", str(vis_out)]) == 0
    extra = sorted(set(vis_out.read_text().splitlines()[1:]) - g10_lines)[0]
    _add_edge(edges, extra)  # visible but never selected: breaks the chain
    corruptions.append((inst, "g10", edges, "FAIL subgraph-chain"))

    capsys.readouterr()
    corrupted_ok = True
    detail = []
    for inst, graph, edges, expect in corruptions:
        rc = main(["verify", "--in", str(inst),
                   "--graph", graph, "--edges", str(edges)])
        out = capsys.readouterr().out
        if rc != 1 or expect not in out:
            corrupted_ok = False
            detail.append((inst.name, graph, rc))
    record(
        not failures and corrupted_ok,
        f"[9] cli gen, build of all four graphs, verify: clean on "
        f"{len(configs())} seeds; corrupted edge lists exit 1 naming the "
        "failed check"
        + (f"; failures: {failures[:3]}" if failures else "")
        + (f"; corruption undetected: {detail}" if detail else ""),
    )
