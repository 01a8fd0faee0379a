import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests import (
    reference_empty_triangles,
    reference_oracle,
    reference_per_edge,
    reference_planarity,
    reference_stretch,
    reference_visibility,
)
from tests.conftest import edge_length, load_scene
from tests.test_acceptance import FIXTURE_NAMES, configs

from polyspanner import verify
from polyspanner.cones import ConeIndex
from polyspanner.generator import GeneratorConfig, generate
from polyspanner.geom import segments_properly_intersect, sqrt3_sign
from polyspanner.scene import Scene, check_general_position
from polyspanner.spanners import build_all, build_g15, build_g_infinity
from polyspanner.verify import (
    REL_TOL,
    CheckOutcome,
    _oracle_visible,
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


def _dist(sc: Scene, g: Graph) -> np.ndarray:
    return distance_matrix(edge_table(sc, g))


def test_distance_matrix_triangle():
    sc = Scene([(0, 0), (3, 4), (6, 1)])
    g = Graph(3, [(0, 1), (1, 2)])
    d = _dist(sc, g)
    assert d[0, 1] == pytest.approx(5.0)
    assert d[0, 2] == pytest.approx(5.0 + math.sqrt(18))
    assert d[0, 0] == 0.0


# Mixed denominators, and numerators from small up to 1e200.
_COORD = st.builds(
    Fraction,
    st.one_of(st.integers(-(10**6), 10**6), st.integers(-(10**200), 10**200)),
    st.one_of(st.sampled_from([1, 2, 3, 7, 1024, 10**12]), st.integers(1, 10**9)),
)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.tuples(_COORD, _COORD, _COORD, _COORD))
def test_edge_length_is_bit_identical_to_fraction_differences(coords):
    # The edge runs from the lower index to the higher, so the two
    # orders of the points give both orientations of one segment.
    x0, y0, x1, y1 = coords
    for (ax, ay), (bx, by) in (((x0, y0), (x1, y1)), ((x1, y1), (x0, y0))):
        table = edge_table(Scene([(ax, ay), (bx, by)]), Graph(2, [(0, 1)]))
        dx, dy = float(bx - ax), float(by - ay)
        got = [float(c[0]).hex() for c in (table.dx, table.dy, table.length)]
        assert got == [dx.hex(), dy.hex(), math.hypot(dx, dy).hex()]


# Scenes of 0, 1 and 2 points; each case pairs a scene with its own vis
# and with the edgeless graph on its vertices.
TINY = {"n0": Scene([]), "n1": Scene([(0, 0)]), "n2": Scene([(0, 0), (1, 3)])}


def _graph_cases(fixture):
    scenes = {fixture: load_scene(f"{fixture}.json"), **TINY}
    for name, sc in scenes.items():
        yield f"{name}-vis", sc, visibility_graph(sc)
        yield f"{name}-edgeless", sc, Graph(sc.n)


def test_stretch_identity_is_one():
    for case, sc, g in _graph_cases("nonconvex"):
        dist = _dist(sc, g)
        assert dist.shape == (sc.n, sc.n), case
        rep = stretch_factor(edge_table(sc, g), dist)
        assert rep.max_ratio == 1.0, case
        assert rep.within(1.0), case
        assert rep.witness_pair == (g.sorted_edges()[0] if g.m else None), case


def test_stretch_detour():
    sc = Scene([(0, 0), (10, 1), (11, 11), (1, 10)])
    base = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    sub = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    rep = stretch_factor(edge_table(sc, base), _dist(sc, sub))
    detour = edge_length(sc, 0, 1) + edge_length(sc, 1, 2)
    direct = edge_length(sc, 0, 2)
    assert rep.max_ratio == pytest.approx(detour / direct)
    assert rep.witness_pair == (0, 2)
    assert not rep.within(1.0)


def test_stretch_disconnected_sub_is_infinite():
    sc = Scene([(0, 0), (10, 1), (5, 8)])
    base = Graph(3, [(0, 1), (1, 2), (0, 2)])
    sub = Graph(3, [(0, 1)])
    rep = stretch_factor(edge_table(sc, base), _dist(sc, sub))
    assert math.isinf(rep.max_ratio)
    assert not rep.within(1e9)


def test_witnesses_are_first_in_sorted_order():
    # Mirrored detours a-b-c and d-e-f give (0, 2) and (3, 5) the same
    # ratio sqrt(5)/2, bit for bit; the witness is the first of them.
    sc = Scene([(0, 0), (2, 1), (4, 0), (0, 10), (2, 9), (4, 10)])
    base = edge_table(sc, Graph(6, [(3, 5), (0, 2), (4, 5), (3, 4), (1, 2), (0, 1)]))
    sub = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    dist = _dist(sc, sub)
    assert dist[0, 2] / edge_length(sc, 0, 2) == dist[3, 5] / edge_length(sc, 3, 5)
    rep = stretch_factor(base, dist)
    assert rep.max_ratio == pytest.approx(math.sqrt(5) / 2)
    assert rep.witness_pair == (0, 2)
    # Without (1, 2), both (0, 2) and (1, 2) read inf.
    rep = stretch_factor(base, _dist(sc, Graph(6, [(0, 1), (3, 4), (4, 5)])))
    assert math.isinf(rep.max_ratio)
    assert rep.witness_pair == (0, 2)
    # Per-edge witnesses follow sorted_edges whichever endpoint is the apex.
    sc = Scene([(0, 0), (1, 10), (20, 5), (9, 14), (12, -3)])
    vis = visibility_graph(sc)
    assert vis.m == 10
    rep = check_per_edge_bound_ginf(edge_table(sc, vis), np.full((5, 5), np.inf), ConeIndex(sc))
    assert [w[0] for w in rep.witnesses] == vis.sorted_edges()


STRETCH_SPECS = (
    ("ginf", "vis", 2.0),
    ("g15", "ginf", 3.0),
    ("g10", "ginf", 3.0),
    ("g7", "ginf", 3.0),
    ("g15", "vis", 6.0),
    ("g10", "vis", 6.0),
    ("g7", "vis", 6.0),
)


def _corruptions(g: Graph, vis: Graph):
    """First edge dropped, every second edge kept, three extra vis edges."""
    edges = g.sorted_edges()
    extra = [e for e in vis.sorted_edges() if e not in g.edges][:3]
    yield Graph(g.n, edges[1:])
    yield Graph(g.n, edges[::2])
    yield Graph(g.n, edges + extra)


def test_stretch_matches_all_pairs_reference():
    scenes = [load_scene(name) for name in FIXTURE_NAMES]
    scenes += [generate(cfg) for cfg in configs()[::7]]
    compared = 0
    for sc in scenes:
        honest, _ = build_all(sc)
        honest_dists = {k: _dist(sc, g) for k, g in honest.items()}
        variants = [(honest, honest_dists)]
        for name in ("ginf", "g15", "g10", "g7"):
            for bad in _corruptions(honest[name], honest["vis"]):
                variants.append((
                    {**honest, name: bad},
                    {**honest_dists, name: _dist(sc, bad)},
                ))
        for graphs, dists in variants:
            for sub, base, bound in STRETCH_SPECS:
                got = stretch_factor(edge_table(sc, graphs[base]), dists[sub])
                want = reference_stretch.stretch_factor(
                    sc, graphs[sub], graphs[base], dists[sub], dists[base]
                )
                assert got.within(bound) == want.within(bound)
                assert math.isclose(got.max_ratio, want.max_ratio, rel_tol=1e-12)
                u, v = got.witness_pair
                assert graphs[base].has_edge(u, v)
                ratio = float(dists[sub][u, v]) / edge_length(sc, u, v)
                assert ratio == got.max_ratio
                compared += 1
    assert compared == len(scenes) * 13 * len(STRETCH_SPECS)


def test_verification_builds_no_vis_matrix(monkeypatch, split_cones):
    built = []
    real = verify.distance_matrix

    def recording(table):
        built.append(frozenset(zip(table.u.tolist(), table.v.tolist())))
        return real(table)

    monkeypatch.setattr(verify, "distance_matrix", recording)
    assert all(o.ok for o in run_verification(split_cones))
    graphs, _ = build_all(split_cones)
    spanners = [graphs[k].edges for k in ("ginf", "g15", "g10", "g7")]
    assert graphs["vis"].edges not in spanners
    assert built == spanners


@pytest.mark.parametrize("name", ["split_cones.json", "g7_structural.json"])
def test_verification_reads_each_edge_length_once(monkeypatch, name):
    # Each graph's table computes each of its lengths once, and the
    # per-edge bound reads vis's table instead of computing its own.
    sc = load_scene(name)
    calls = []
    real = math.hypot

    def counting(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(math, "hypot", counting)
    assert all(o.ok for o in run_verification(sc))
    monkeypatch.undo()
    graphs, _ = build_all(sc)
    assert len(calls) == sum(g.m for g in graphs.values())


def test_verification_builds_each_graph_array_view_once(monkeypatch, split_cones):
    # One array build per distinct graph read as arrays: vis, ginf,
    # g15, g10, g7 and the union that planarity sweeps. vis's arrays,
    # grouped by build_g_infinity, are the ones its edge table reads.
    builds, read = [], {}
    real_fromiter, real_pairs = np.fromiter, Graph.pairs

    def counting_fromiter(*args, **kwargs):
        builds.append(kwargs.get("count"))
        return real_fromiter(*args, **kwargs)

    def recording_pairs(g):
        read[id(g)] = g
        return real_pairs(g)

    monkeypatch.setattr(np, "fromiter", counting_fromiter)
    monkeypatch.setattr(Graph, "pairs", recording_pairs)
    assert all(o.ok for o in run_verification(split_cones))
    monkeypatch.undo()
    assert len(builds) == len(read) == 6
    assert sorted(builds) == sorted(2 * g.m for g in read.values())


def test_per_edge_bound_spot_values():
    assert per_edge_bound(0.0) == pytest.approx(math.sqrt(3), rel=1e-12)
    assert per_edge_bound(math.pi / 6) == pytest.approx(2.0, rel=1e-12)
    # interior values stay between the extremes
    assert math.sqrt(3) < per_edge_bound(0.2) < 2.0


def test_per_edge_bound_holds_on_fixture():
    for case, sc, vis in _graph_cases("split_cones"):
        ginf = build_g_infinity(sc, vis)
        rep = check_per_edge_bound_ginf(edge_table(sc, vis), _dist(sc, ginf), ConeIndex(sc))
        assert rep.witnesses == (), case


# A fixed seventh of the acceptance configurations: the reference builds
# an exact canonical triangle per pair, too slow for all 100 on every run.
DIFFERENTIAL_CONFIGS = [
    GeneratorConfig(
        n_points=10 + i % 51,
        n_obstacles=min(i % 6, (10 + i % 51 - 6) // 4, 5),
        seed=1000 + i,
    )
    for i in range(0, 100, 7)
]


def _thinned(g: Graph) -> Graph:
    return Graph(g.n, [e for j, e in enumerate(g.sorted_edges()) if j % 3])


def test_per_edge_bound_matches_reference():
    for cfg in DIFFERENTIAL_CONFIGS:
        sc = generate(cfg)
        vis = visibility_graph(sc)
        ginf = build_g_infinity(sc, vis)
        # The all-inf matrix, last, turns every visible pair into a
        # witness, so every bound is compared.
        for dist in (
            _dist(sc, ginf),
            _dist(sc, _thinned(ginf)),
            np.full((sc.n, sc.n), np.inf),
        ):
            got = check_per_edge_bound_ginf(edge_table(sc, vis), dist, ConeIndex(sc)).witnesses
            want = reference_per_edge.check_per_edge_bound_ginf(
                sc, ginf, vis, dist
            ).witnesses
            assert [w[0] for w in got] == [w[0] for w in want], cfg
            for (_, have, bound), (_, ref_have, ref_bound) in zip(got, want):
                assert have == ref_have
                assert bound == pytest.approx(ref_bound, rel=REL_TOL, abs=0)
        assert len(got) == len(vis.edges)


def test_per_edge_bound_negative_control():
    # Dropping (0, 1) from ginf leaves the detour through 2, about
    # 2.2 times the bound for the pair.
    sc = Scene([(0, 0), (1, 10), (20, 5)])
    vis = visibility_graph(sc)
    ginf = build_g_infinity(sc, vis)
    assert ginf.edges == {(0, 1), (0, 2), (1, 2)}
    thinned = Graph(3, [(0, 2), (1, 2)])
    rep = check_per_edge_bound_ginf(edge_table(sc, vis), _dist(sc, thinned), ConeIndex(sc))
    assert [w[0] for w in rep.witnesses] == [(0, 1)]
    (_, have, bound), = rep.witnesses
    assert have == pytest.approx(edge_length(sc, 0, 2) + edge_length(sc, 1, 2))
    assert have > 2 * bound
    lines = [o.line() for o in run_verification(sc, {"ginf": thinned})]
    assert any(line.startswith("FAIL per-edge-bound(ginf|vis)") for line in lines)


def test_per_edge_bound_rejects_pair_inside_obstacle_wedge():
    # Vertex 3 lies between the two spike edges at vertex 0.
    sc = Scene([(0, 0), (20, 100), (-5, 101), (3, 150)], [[0, 1, 2]])
    vis = Graph(4, [(0, 3)])
    with pytest.raises(ValueError, match="obstacle wedge"):
        check_per_edge_bound_ginf(edge_table(sc, vis), _dist(sc, vis), ConeIndex(sc))


def test_planarity_flags_crossing():
    sc = Scene([(0, 0), (10, 1), (11, 11), (1, 10)])
    rep = check_planarity(sc, Graph(4, [(0, 2), (1, 3)]))
    assert not rep.ok
    assert rep.crossing_pairs == (((0, 2), (1, 3)),)


def test_planarity_ignores_shared_endpoints():
    sc = Scene([(0, 0), (10, 1), (11, 11), (1, 10)])
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert check_planarity(sc, star).ok


def test_planarity_flags_obstacle_conflict():
    sc = Scene([(0, 17), (40, 18), (10, 10), (30, 11), (20, 25)], [[2, 3, 4]])
    rep = check_planarity(sc, Graph(5, [(0, 1)]))
    assert not rep.ok
    assert rep.obstacle_conflicts


def _assert_planarity_matches_reference(sc: Scene, g: Graph):
    got = check_planarity(sc, g)
    want = reference_planarity.check_planarity(sc, g)
    assert got.crossing_pairs == want.crossing_pairs
    assert got.obstacle_conflicts == want.obstacle_conflicts
    return got


def test_planarity_matches_reference():
    # vis is far from plane, so nearly every pruning decision matters.
    crossings = 0
    for cfg in DIFFERENTIAL_CONFIGS:
        sc = generate(cfg)
        crossings += len(
            _assert_planarity_matches_reference(sc, visibility_graph(sc)).crossing_pairs
        )
    assert crossings > 10_000


def test_planarity_matches_reference_off_general_position():
    # Grids are full of collinear overlaps, vertical edges and x-extents
    # that touch at a single coordinate; the ring is a notched obstacle.
    ring = [6, 16, 18, 12, 8]  # (1,1) (3,1) (3,3) (2,2) (1,3) on the 5x5 grid
    scenes = [
        Scene([(x, y) for x in range(4) for y in range(4)]),
        Scene([(x, y) for x in range(5) for y in range(5)], [ring]),
        Scene([(0, 0), (0, 3), (0, 1), (2, 2), (2, 0), (4, 1), (2, 5), (0, 6)]),
    ]
    rng = random.Random(11)
    for sc in scenes:
        complete = list(itertools.combinations(range(sc.n), 2))
        _assert_planarity_matches_reference(sc, Graph(sc.n, complete))
        for _ in range(20):
            sub = rng.sample(complete, rng.randint(1, len(complete)))
            _assert_planarity_matches_reference(sc, Graph(sc.n, sub))


SPANNER_NAMES = ("ginf", "g15", "g10", "g7")


def _union_planarity_reports(monkeypatch, scene, subs=None) -> dict:
    """run_verification's four planarity lines, and the union report
    it reads them from, against one ``check_planarity`` call per graph
    and the exhaustive reference; the run must sweep once. Returns the
    per-graph reports."""
    unions = []
    real = verify.check_planarity
    monkeypatch.setattr(verify, "check_planarity", lambda sc, g: unions.append(real(sc, g)) or unions[-1])
    lines = [o.line() for o in run_verification(scene, subs) if o.name.startswith("planarity(")]
    monkeypatch.undo()
    assert len(unions) == 1
    graphs, _ = build_all(scene)
    graphs.update(subs or {})
    reports, want = {}, []
    for name in SPANNER_NAMES:
        rep = check_planarity(scene, graphs[name])
        assert unions[0].restricted_to(graphs[name]) == rep
        assert rep == reference_planarity.check_planarity(scene, graphs[name])
        detail = f"{len(rep.crossing_pairs)} crossing(s), {len(rep.obstacle_conflicts)} obstacle conflict(s)"
        want.append(CheckOutcome(f"planarity({name})", rep.ok, detail).line())
        reports[name] = rep
    assert lines == want
    return reports


def test_union_planarity_matches_separate_checks(monkeypatch):
    scenes = [load_scene(name) for name in FIXTURE_NAMES] + [generate(cfg) for cfg in configs()[::10]]
    for scene in scenes:
        reports = _union_planarity_reports(monkeypatch, scene)
        assert all(rep.ok for rep in reports.values())


def test_union_planarity_on_corrupted_substitutions(monkeypatch):
    # Each corruption lands in one graph only, so the union's report
    # holds a finding that the other three must not inherit.
    for seed in range(6):
        scene = generate(GeneratorConfig(n_points=22, n_obstacles=3, seed=400 + seed))
        graphs, _ = build_all(scene)
        pts = scene.ipoints
        vis = graphs["vis"]
        blocked = next(
            (u, v)
            for u, v in itertools.combinations(range(scene.n), 2)
            if any(scene.crossed_obstacles(pts[u], pts[v]))
        )

        def crossing(g):
            # The first vis edge outside g that properly crosses an edge of g.
            return next(
                e
                for e in vis.sorted_edges()
                if e not in g.edges
                and any(
                    not set(e) & set(f)
                    and segments_properly_intersect(pts[e[0]], pts[e[1]], pts[f[0]], pts[f[1]])
                    for f in g.edges
                )
            )

        outside = crossing(graphs["g10"])
        assert outside not in graphs["ginf"].edges  # ginf is plane and holds g10
        cases = {
            "g7": {"g7": Graph(scene.n, graphs["g7"].edges | {blocked})},
            "g15": {"g15": Graph(scene.n, graphs["g15"].edges | {crossing(graphs["g15"])})},
            "g10": {"g10": Graph(scene.n, graphs["g10"].edges | {outside})},
        }
        cases["all"] = {name: g for sub in cases.values() for name, g in sub.items()}
        for subs in cases.values():
            reports = _union_planarity_reports(monkeypatch, scene, subs)
            for name, rep in reports.items():
                assert rep.ok == (name not in subs)
        assert reports["g7"].obstacle_conflicts
        assert reports["g15"].crossing_pairs and reports["g10"].crossing_pairs


def test_planarity_flags_vertical_overlap():
    # Both x-extents are the single coordinate 5.
    sc = Scene([(5, 0), (5, 10), (5, 5), (5, 15)])
    rep = check_planarity(sc, Graph(4, [(0, 1), (2, 3)]))
    assert rep.crossing_pairs == (((0, 1), (2, 3)),)


def test_degree_report():
    rep = degree_report(Graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert rep.max_degree == 3
    assert dict(rep.histogram) == {1: 3, 3: 1}


# scene with vertex 3 strictly inside the triangle of vertices 0, 1, 2;
# an honest build would never join 0 to both 1 and 2 here
CONTROL = Scene([(0, 0), (30, 5), (8, 10), (12, 6)])


def test_empty_triangle_checker_negative_control():
    mutated = Graph(4, [(0, 1), (0, 2)])
    rep = check_empty_triangles(CONTROL, mutated, ConeIndex(CONTROL))
    assert not rep.ok
    assert (0, 1, 2, "vertex", 3) in rep.witnesses


def test_empty_triangle_checker_positive(split_cones):
    vis = visibility_graph(split_cones)
    ginf = build_g_infinity(split_cones, vis)
    assert check_empty_triangles(split_cones, ginf, ConeIndex(split_cones)).ok


def test_empty_triangles_match_reference():
    # Honest ginf on the fixtures and every seventh acceptance scene, then
    # a random half of vis as ginf, which puts vertices and obstacle edges
    # into canonical triangles: witnesses must agree, order included.
    kinds = []
    for scene in [load_scene(name) for name in FIXTURE_NAMES] + [
        generate(cfg) for cfg in configs()[::7]
    ]:
        ginf = build_g_infinity(scene, visibility_graph(scene))
        want = reference_empty_triangles.check_empty_triangles(scene, ginf)
        assert check_empty_triangles(scene, ginf, ConeIndex(scene)).witnesses == want.witnesses
    for seed in range(20):
        scene = generate(GeneratorConfig(n_points=22, n_obstacles=3, seed=400 + seed))
        vis = visibility_graph(scene).sorted_edges()
        ginf = Graph(scene.n, random.Random(seed).sample(vis, len(vis) // 2))
        want = reference_empty_triangles.check_empty_triangles(scene, ginf)
        assert check_empty_triangles(scene, ginf, ConeIndex(scene)).witnesses == want.witnesses
        kinds += [w[3] for w in want.witnesses]
    assert kinds.count("vertex") > 100 and kinds.count("obstacle-edge") > 100


def test_canonical_path_checker_negative_control():
    ginf = Graph(4, [(0, 1), (0, 2), (1, 2)])
    pruned = Graph(4, [(0, 1), (0, 2)])  # path edge (1, 2) dropped
    rep = check_canonical_paths(CONTROL, ginf, pruned, ConeIndex(CONTROL))
    assert not rep.ok
    assert (0, 1, 2) in rep.witnesses


def test_canonical_path_checker_positive(split_cones):
    vis = visibility_graph(split_cones)
    ginf = build_g_infinity(split_cones, vis)
    g15 = build_g15(split_cones, ginf)
    assert check_canonical_paths(split_cones, ginf, g15, ConeIndex(split_cones)).ok


def test_oracle_matches_builder_on_fixtures(micro3, split_cones, nonconvex):
    for scene in (micro3, split_cones, nonconvex):
        ginf = build_g_infinity(scene, visibility_graph(scene))
        assert oracle_g_infinity(scene) == ginf


def test_oracle_visibility_matches_reference():
    # The oracle tests obstacles only; on scenes in general position
    # that must equal the full pairwise predicate with its vertex scan.
    scenes = [load_scene(name) for name in FIXTURE_NAMES]
    scenes += [generate(cfg) for cfg in configs()[::7]]
    for scene in scenes:
        assert check_general_position(scene).ok
        for u in range(scene.n):
            for v in range(scene.n):
                if u != v:
                    want = reference_visibility.visible(scene, u, v)
                    assert _oracle_visible(scene, u, v) == want, (u, v)


OFF_GENERAL_POSITION = {
    "collinear-triple": [(0, 0), (2, 1), (4, 2), (1, 5)],
    "boundary-parallel-pair": [(0, 0), (5, 0), (2, 7)],
}


@pytest.mark.parametrize(
    "vertices", OFF_GENERAL_POSITION.values(), ids=OFF_GENERAL_POSITION.keys()
)
def test_oracle_refuses_scene_outside_general_position(vertices):
    with pytest.raises(ValueError, match="not in general position"):
        oracle_g_infinity(Scene(vertices))


def _rescaled(scene, factor):
    return Scene([(x * factor, y * factor) for x, y in scene.vertices], scene.obstacles)


def _outcome(oracle, scene):
    """The oracle's edge set, or the type and message of what it raised."""
    try:
        return oracle(scene).edges
    except ValueError as exc:
        return type(exc), str(exc)


def _blocked_closest_slots(scene) -> int:
    """Slots whose closest candidate by key, visible or not, is blocked,
    read with the reference's own sector, side and key."""
    ref = reference_oracle
    by_key = functools.cmp_to_key(lambda p, q: sqrt3_sign(p[0] - q[0], p[1] - q[1]))
    pts = scene.ipoints
    count = 0
    for u in range(scene.n):
        slots = {}
        for v in range(scene.n):
            if v == u:
                continue
            dx, dy = pts[v][0] - pts[u][0], pts[v][1] - pts[u][1]
            sector = ref._oracle_sector(dx, dy)
            if sector not in (1, 3, 5):
                continue
            try:
                side = ref._oracle_wedge_side(scene, u, dx, dy, sector)
            except ValueError:
                continue
            slots.setdefault((sector, side), {})[v] = ref._oracle_key(sector, dx, dy)
        for keys in slots.values():
            closest = min(keys, key=lambda v: by_key(keys[v]))
            count += not ref._oracle_visible(scene, u, closest)
    return count


def test_oracle_matches_reference():
    # The oracle skips the visibility test of a pair that cannot win its
    # slot; its edges and its exceptions must be the reference's, which
    # tests every pair. A slot whose closest candidate is blocked makes
    # an oracle that skips a needed test disagree.
    fixtures = [load_scene(name) for name in FIXTURE_NAMES]
    scenes = fixtures + [generate(cfg) for cfg in configs()]
    scenes += [_rescaled(sc, f) for sc in fixtures for f in (2**60, Fraction(1, 3**40))]
    scenes += [Scene(vertices) for vertices in OFF_GENERAL_POSITION.values()]
    assert sum(_blocked_closest_slots(sc) for sc in fixtures) > 0
    for sc in scenes:
        want = _outcome(reference_oracle.oracle_g_infinity, sc)
        assert _outcome(oracle_g_infinity, sc) == want


def test_oracle_tests_visibility_only_for_pairs_that_can_win(monkeypatch):
    # The reference tests one pair per positive sector, n(n-1)/2 in all;
    # the oracle tests fewer. Sectors: one per ordered pair and two per
    # ring corner, whose wedge is read once, not once per pair.
    pinned = {
        "split_cones.json": 41,
        "nonconvex.json": 28,
        "g7_structural.json": 240,
        "g7_edge_removal.json": 362,
    }
    for name, visible_calls in pinned.items():
        sc = load_scene(name)
        calls = {"visible": 0, "sector": 0}
        real_visible, real_sector = verify._oracle_visible, verify._oracle_sector

        def visible(*args):
            calls["visible"] += 1
            return real_visible(*args)

        def sector(*args):
            calls["sector"] += 1
            return real_sector(*args)

        monkeypatch.setattr(verify, "_oracle_visible", visible)
        monkeypatch.setattr(verify, "_oracle_sector", sector)
        oracle_g_infinity(sc)
        monkeypatch.undo()
        corners = sum(len(ring) for ring in sc.obstacles)
        assert corners > 0
        assert calls["visible"] == visible_calls < sc.n * (sc.n - 1) // 2
        assert calls["sector"] == sc.n * (sc.n - 1) + 2 * corners


def test_run_verification_all_pass(split_cones):
    outcomes = run_verification(split_cones)
    assert outcomes and all(o.ok for o in outcomes)
    names = [o.name for o in outcomes]
    assert names[0] == "scene-valid"
    assert "stretch(ginf|vis<=2)" in names
    assert "empty-canonical-triangles(ginf)" in names


def test_run_verification_line_format(micro3):
    lines = [o.line() for o in run_verification(micro3)]
    assert all(line.startswith("PASS ") for line in lines)


def test_run_verification_detects_missing_ginf_edge(micro3):
    mutated = Graph(3, [(0, 1)])
    outcomes = {o.name: o for o in run_verification(micro3, {"ginf": mutated})}
    assert not outcomes["oracle-equivalence(ginf)"].ok
    assert not outcomes["subgraph-chain"].ok


def test_run_verification_detects_overfull_degree(split_cones):
    star = Graph(12, [(0, i) for i in range(1, 12)])
    outcomes = {o.name: o for o in run_verification(split_cones, {"g7": star})}
    assert not outcomes["degree(g7<=7)"].ok
    assert not outcomes["g7-extra-edges"].ok


def test_run_verification_detects_crossing_substitute(split_cones):
    from polyspanner.geom import segments_properly_intersect

    vis = visibility_graph(split_cones)
    ginf = build_g_infinity(split_cones, vis)
    g15 = build_g15(split_cones, ginf)
    pts = split_cones.ipoints
    edges = vis.sorted_edges()
    crossing = next(
        (e, f)
        for i, e in enumerate(edges)
        for f in edges[i + 1:]
        if not set(e) & set(f)
        and segments_properly_intersect(pts[e[0]], pts[e[1]], pts[f[0]], pts[f[1]])
    )
    mutated = Graph(split_cones.n, set(g15.edges) | set(crossing))
    outcomes = {
        o.name: o for o in run_verification(split_cones, {"g15": mutated})
    }
    assert not outcomes["planarity(g15)"].ok


def test_run_verification_detects_broken_canonical_path(split_cones):
    vis = visibility_graph(split_cones)
    ginf = build_g_infinity(split_cones, vis)
    g15 = build_g15(split_cones, ginf)
    # (8, 4) joins consecutive members of the sequence (11, 8, 4) at 7
    pruned = Graph(split_cones.n, set(g15.edges) - {(4, 8)})
    outcomes = {
        o.name: o for o in run_verification(split_cones, {"g15": pruned})
    }
    assert not outcomes["canonical-path-edges(g15)"].ok


def test_rel_tol_is_tight():
    assert REL_TOL == 1e-9


@pytest.mark.parametrize("sub", ["unknown", "wrong-size"])
def test_bad_substitution_raises(split_cones, sub):
    n = split_cones.n
    if sub == "unknown":
        subs, message = {"g9": Graph(n, [])}, "unknown graph name 'g9'"
    else:
        subs = {"g15": Graph(n + 1, [])}
        message = f"substituted g15 has {n + 1} vertices, scene has {n}"
    with pytest.raises(ValueError) as exc:
        run_verification(split_cones, subs)
    assert str(exc.value) == message
