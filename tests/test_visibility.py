import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polyspanner import cli, spanners, verify, visibility
from polyspanner.generator import GeneratorConfig, generate
from polyspanner.io import parse_edge_list, parse_instance, write_edge_list, write_instance
from polyspanner.scene import INT64_GUARD, Scene, check_general_position, perturb_by_rotation
from polyspanner.spanners import build_all, build_g_infinity
from polyspanner.verify import degree_report, run_verification
from polyspanner.visibility import Graph, visibility_graph

from tests.conftest import load_scene, neighbors
from tests.reference_visibility import visible
from tests.test_acceptance import FIXTURE_NAMES


class TestGraph:
    def test_basic(self):
        g = Graph(4, [(0, 1), (1, 0), (2, 3)])
        assert g.m == 2
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert neighbors(g, 1) == (0,)
        assert g.degrees()[3] == 1
        assert degree_report(g).max_degree == 1
        assert g.sorted_edges() == [(0, 1), (2, 3)]

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("edge", [(0.5, 1), (0, 1.0), ("0", 1), (None, 1)])
    def test_rejects_a_non_integer_endpoint(self, edge):
        # Not truncated to (0, 1) by the intp arrays.
        with pytest.raises(ValueError, match="non-integer endpoint"):
            Graph(3, [edge])

    def test_integer_like_endpoints_are_taken(self):
        g = Graph(3, [(np.int64(2), np.intp(0)), (True, 2)])
        assert g.sorted_edges() == [(0, 2), (1, 2)]

    def test_rejects_a_vertex_count_past_the_key_range(self):
        # Pair keys u * n + v must fit int64, and a negative n has no
        # vertices to count.
        with pytest.raises(ValueError, match=f"n={2**31}"):
            Graph(2**31, [])
        with pytest.raises(ValueError, match="n=-1"):
            Graph(-1, [])
        assert Graph(2**31 - 1, [(0, 2**31 - 2)]).sorted_edges() == [(0, 2**31 - 2)]
        with pytest.raises(TypeError):
            Graph(3.0, [(0, 1)])

    def test_from_keys_normalises_any_order(self):
        g = Graph.from_keys(4, [2 * 4 + 3, 0 * 4 + 1, 2 * 4 + 3, 1 * 4 + 2])
        assert g.sorted_edges() == [(0, 1), (1, 2), (2, 3)]
        assert g == Graph(4, [(3, 2), (1, 0), (2, 1)])
        assert Graph.from_keys(4, []).m == 0

    def test_subgraph_and_equality(self):
        g = Graph(3, [(0, 1), (1, 2)])
        h = Graph(3, [(0, 1)])
        assert h.is_subgraph_of(g)
        assert not g.is_subgraph_of(h)
        assert g == Graph(3, [(1, 2), (0, 1)])
        assert g != h


@st.composite
def edge_lists(draw):
    """n up to 60 and an edge list on it, with pairs repeated as drawn
    and in reverse; empty for n <= 1."""
    n = draw(st.integers(0, 60))
    if n < 2:
        return n, []
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=120))
    again = draw(st.lists(st.sampled_from(edges), max_size=20)) if edges else []
    return n, edges + again + [(v, u) for u, v in again]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(edge_lists())
@example((0, []))
@example((1, []))
@example((5, []))
def test_array_view_matches_edge_set(case):
    n, edge_list = case
    g = Graph(n, edge_list)
    expected = sorted(g.edges)
    u, v = g.pairs()
    assert u.dtype == v.dtype == np.intp
    assert (u.tolist(), v.tolist()) == ([a for a, _ in expected], [b for _, b in expected])
    assert g.sorted_edges() == expected
    count = [0] * n
    for a, b in g.edges:
        count[a] += 1
        count[b] += 1
    assert g.degrees().tolist() == count
    assert g.pairs() is g.pairs()
    assert not (u.flags.writeable or v.flags.writeable)
    # The same edges in any order, either way round and repeated make an
    # equal graph with an equal hash.
    shuffled = random.Random(len(edge_list)).sample(edge_list, len(edge_list))
    for other in (shuffled, edge_list[::-1], [(b, a) for a, b in edge_list], edge_list * 2):
        twin = Graph(n, other)
        assert twin == g and hash(twin) == hash(g)
        assert twin.pair_keys().tolist() == g.pair_keys().tolist()


def test_open_plane_sees_everything():
    sc = Scene([(0, 0), (10, 1), (5, 8)])
    g = visibility_graph(sc)
    assert g.m == 3


def test_vertex_blocks_sight():
    # middle point sits exactly on the segment between the outer two
    sc = Scene([(0, 0), (4, 4), (8, 8)])
    assert not visible(sc, 0, 2)
    assert visible(sc, 0, 1)
    assert visible(sc, 1, 2)


TRIANGLE = [(10, 10), (30, 11), (20, 25)]


def test_obstacle_blocks_sight():
    pts = [(0, 17), (40, 18)] + TRIANGLE
    sc = Scene(pts, [[2, 3, 4]])
    assert not visible(sc, 0, 1)  # straight through the obstacle
    assert visible(sc, 0, 2)
    assert visible(sc, 0, 4)


def test_obstacle_boundary_edges_are_visible():
    sc = Scene(TRIANGLE + [(0, 40)], [[0, 1, 2]])
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        assert visible(sc, u, v)


def test_square_diagonal_hidden():
    sq = [(0, 0), (10, 1), (11, 11), (1, 10)]
    sc = Scene(sq + [(20, 30)], [[0, 1, 2, 3]])
    assert not visible(sc, 0, 2)
    assert not visible(sc, 1, 3)
    assert visible(sc, 0, 1)


def test_reflex_diagonal_outside_polygon_is_visible(nonconvex):
    # corners across the notch see each other through free space
    assert visible(nonconvex, 2, 4)


def test_visibility_graph_matches_pairwise(nonconvex):
    g = visibility_graph(nonconvex)
    for u in range(nonconvex.n):
        for v in range(u + 1, nonconvex.n):
            assert g.has_edge(u, v) == visible(nonconvex, u, v)


NOTCHED = [(2, 2), (6, 2), (6, 6), (4, 4), (2, 6)]  # reflex corner at (4, 4)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=12, unique=True),
    st.booleans(),
)
def test_visibility_graph_matches_pairwise_off_general_position(extra, with_obstacle):
    # A small grid is full of collinear triples and shared rays: the
    # per-apex blocking table must agree with the pairwise vertex scan.
    corners = NOTCHED if with_obstacle else []
    pts = corners + [p for p in extra if p not in corners]
    sc = Scene(pts, [range(len(corners))] if corners else [])
    g = visibility_graph(sc)
    for u in range(sc.n):
        for v in range(u + 1, sc.n):
            assert g.has_edge(u, v) == visible(sc, u, v), (u, v)


ONE_RAY = Scene([(0, 0), (1, 1), (2, 2), (3, 3), (4, 0), (6, 1)])


def test_several_vertices_on_one_ray():
    # the first four share one ray: only neighbours along it see each other
    sc = ONE_RAY
    g = visibility_graph(sc)
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(2, 3)
    assert not g.has_edge(0, 2) and not g.has_edge(0, 3) and not g.has_edge(1, 3)
    for u in range(sc.n):
        for v in range(u + 1, sc.n):
            assert g.has_edge(u, v) == visible(sc, u, v)


def test_grazing_corner_does_not_block():
    # sight line passes just outside a corner of the square
    sq = [(0, 0), (10, 1), (11, 11), (1, 10)]
    sc = Scene(sq + [(-5, -6), (16, 2)], [[0, 1, 2, 3]])
    assert visible(sc, 4, 5)


# --- the array pass against the pairwise reference ---------------------------


def _matches_reference(sc):
    g = visibility_graph(sc)
    pairs = [(u, v) for u in range(sc.n) for v in range(u + 1, sc.n)]
    assert g.edges == {(u, v) for u, v in pairs if visible(sc, u, v)}
    return g


def _scaled(sc, factor):
    return Scene([(x * factor, y * factor) for x, y in sc.vertices], sc.obstacles)


@st.composite
def grid_scenes(draw):
    """Points on a 7x7 grid, duplicates allowed, with up to three rings
    of arbitrary indices: non-simple, overlapping and shared-corner
    rings, repeated corners, and free vertices on edges or inside rings,
    which are the endpoints the array tests leave to the kernel."""
    pts = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=12))
    index = st.integers(0, len(pts) - 1)
    rings = draw(st.lists(st.lists(index, min_size=1, max_size=6), max_size=3))
    return Scene(pts, rings)


# One scene per kind of irregular endpoint, each blocking a pair that
# the array tests alone would pass: two vertices inside a ring, two on
# its edges, a corner repeated in one ring, a free duplicate of a
# corner, and a corner shared by two rings. The first, second and
# fourth have a collinear triple, so the ray test runs on them;
# ``tests/output_digest.py`` digests the vis of each, and of ONE_RAY.
IRREGULAR_SCENES = {
    "inside-ring": Scene(NOTCHED + [(3, 3), (5, 3)], [range(5)]),
    "on-edges": Scene(NOTCHED + [(4, 2), (6, 4)], [range(5)]),
    "repeated-corner": Scene([(0, 0), (2, 2), (3, 1), (2, 1)], [[1, 2, 1, 0]]),
    "duplicate-corner": Scene([(0, 0), (0, 0), (0, 1), (2, 1), (3, 1)], [[0, 4, 1, 2]]),
    "shared-corner": Scene([(0, 0), (0, 1), (3, 3), (3, 0)], [[1, 3, 2], [0, 3, 1, 2]]),
}


@settings(derandomize=True, deadline=None, max_examples=400)
@given(grid_scenes())
@example(IRREGULAR_SCENES["inside-ring"])
@example(IRREGULAR_SCENES["on-edges"])
@example(IRREGULAR_SCENES["repeated-corner"])
@example(IRREGULAR_SCENES["duplicate-corner"])
@example(IRREGULAR_SCENES["shared-corner"])
def test_visibility_graph_matches_reference_on_arbitrary_rings(sc):
    g = _matches_reference(sc)
    # A rational rotation keeps every orientation; scaling by 2^40
    # takes the Python-int arrays.
    assert visibility_graph(perturb_by_rotation(sc, 3)) == g
    assert visibility_graph(_scaled(sc, 2**40)) == g


@settings(derandomize=True, deadline=None, max_examples=15)
@given(st.integers(0, 10**6), st.integers(2, 40))
def test_visibility_graph_matches_reference_after_rotation(seed, k):
    config = GeneratorConfig(n_points=16, n_obstacles=2, obstacle_size=5, extent=10_000, seed=seed)
    sc = generate(config)
    assert _matches_reference(perturb_by_rotation(sc, k)) == visibility_graph(sc)


def test_visibility_graph_matches_reference_past_int64():
    sc = generate(GeneratorConfig(n_points=24, n_obstacles=3, obstacle_size=5, seed=7))
    big = _scaled(sc, 2**40)
    assert max(abs(c) for p in big.ipoints for c in p) > INT64_GUARD
    assert _matches_reference(big) == visibility_graph(sc)


@pytest.mark.parametrize("top", [INT64_GUARD - 1, INT64_GUARD], ids=["int64", "python-int"])
def test_visibility_graph_matches_reference_at_the_int64_guard(top):
    # A generated scene stretched over [-top, top] plus two corners of
    # that square: on the int64 side the determinants come near 2^61.
    sc = generate(GeneratorConfig(n_points=20, n_obstacles=3, obstacle_size=5, extent=1000, seed=11))
    s = top // 1000
    pts = [(2 * s * x - top, 2 * s * y - top) for x, y in sc.ipoints]
    wide = Scene(pts + [(top, top), (-top, 1 - top)], sc.obstacles)
    assert max(abs(c) for p in wide.ipoints for c in p) == top
    _matches_reference(wide)


def test_visibility_graph_same_in_small_blocks(monkeypatch):
    # Blocks of a few elements split the apexes and the pairs at every
    # boundary; a free vertex inside obstacle 0 sends some pairs to the
    # kernel in each block.
    sc = generate(GeneratorConfig(n_points=20, n_obstacles=2, obstacle_size=5, extent=1000, seed=4))
    ring = [sc.vertices[i] for i in sc.obstacles[0]]
    inside = tuple(sum(c) / len(ring) for c in zip(*ring))
    sc = Scene([*sc.vertices, inside], sc.obstacles)
    expected = _matches_reference(sc)
    monkeypatch.setattr(visibility, "BLOCK", 50)
    assert visibility_graph(sc) == expected


# --- the ray test runs only off general position -----------------------------


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=7))
# Duplicates with no collinear triple, a duplicate on a line of two, and
# a vertex on an open segment.
@example([(0, 0), (0, 0), (1, 2), (1, 2), (3, 1)])
@example([(0, 0), (2, 1), (2, 1)])
@example([(0, 0), (1, 1), (2, 2), (4, 0)])
def test_no_collinear_triple_leaves_every_ray_clear(pts):
    # What visibility_graph relies on to skip the ray test: with no
    # collinear triple, no vertex lies on another pair's open segment, so
    # every vertex is nearest on its ray from every apex.
    sc = Scene(pts)
    x, y = sc.exact_points().T
    nearest = visibility._nearest_on_rays(x, y, np.arange(sc.n))
    if check_general_position(sc).collinear_count == 0:
        assert nearest.all()


def test_ray_test_runs_only_off_general_position(monkeypatch):
    calls = []
    real = visibility._nearest_on_rays

    def probe(x, y, apex):
        calls.append(apex.size)
        return real(x, y, apex)

    monkeypatch.setattr(visibility, "_nearest_on_rays", probe)
    scenes = [load_scene(name) for name in FIXTURE_NAMES]
    scenes.append(generate(GeneratorConfig(42, 5, obstacle_size=8, seed=20)))
    for sc in scenes:
        build_all(sc)
    assert calls == []
    # The collinear scene of the CLI's vis-only build.
    sc = parse_instance('{"vertices": [[0, 0], [1, 1], [2, 2], [5, 0]]}')
    g = visibility_graph(sc)
    assert calls
    assert g.edges == {(u, v) for u in range(4) for v in range(u + 1, 4) if visible(sc, u, v)}


# --- vis and ginf are made as arrays ------------------------------------------

TWIN_SCENES = {
    **{f"gen-{seed}": generate(GeneratorConfig(30, 3, obstacle_size=5, seed=seed)) for seed in range(3)},
    "one-ray": ONE_RAY,
    **IRREGULAR_SCENES,
    "n0": Scene([]),
    "n1": Scene([(0, 0)]),
    "n2": Scene([(0, 0), (1, 3)]),
}


@pytest.mark.parametrize("factor", [1, 2**60], ids=["int64", "python-int"])
@pytest.mark.parametrize("name", list(TWIN_SCENES))
def test_array_built_graphs_equal_their_validated_twins(name, factor):
    # vis, and ginf where the scene allows one, against the graph that
    # Graph.__init__ validates from the same pairs. Everything that reads
    # the arrays is compared before the first read of ``edges``.
    sc = _scaled(TWIN_SCENES[name], factor)
    vis = visibility_graph(sc)
    built = [vis]
    if sc.validation().ok and check_general_position(sc).ok:
        built.append(build_g_infinity(sc, vis))
    for g in built:
        u, v = g.pairs()
        assert u.dtype == v.dtype == np.intp
        assert not (u.flags.writeable or v.flags.writeable)
        assert ((0 <= u) & (u < v) & (v < sc.n)).all()
        assert (np.diff(u * sc.n + v) > 0).all()  # sorted, no pair twice
        twin = Graph(sc.n, list(zip(u.tolist(), v.tolist())))
        assert g.m == twin.m
        assert g.sorted_edges() == twin.sorted_edges()
        assert g.degrees().tolist() == twin.degrees().tolist()
        assert write_edge_list(g) == write_edge_list(twin)
        assert g == twin and hash(g) == hash(twin)
        every = list(combinations(range(sc.n), 2))
        assert [g.has_edge(b, a) for a, b in every] == [twin.has_edge(a, b) for a, b in every]


def _assert_one_state(g: Graph, n: int) -> None:
    """g holds read-only intp arrays u < v, sorted, with no pair twice,
    and has not built its edge frozenset."""
    assert g.n == n and g._edges is None
    u, v = g.pairs()
    assert u.dtype == v.dtype == np.intp and u.shape == v.shape
    assert not (u.flags.writeable or v.flags.writeable)
    assert ((0 <= u) & (u < v) & (v < n)).all()
    assert (np.diff(u * n + v) > 0).all()


@pytest.mark.parametrize("name", ["split_cones", "gen-obstacles", "gen-open", "n0", "n1", "n2"])
def test_every_public_graph_holds_one_state(name):
    sc = {
        "split_cones": load_scene("split_cones.json"),
        "gen-obstacles": generate(GeneratorConfig(42, 5, obstacle_size=8, seed=20)),
        "gen-open": generate(GeneratorConfig(30, 0, seed=4)),
        "n0": Scene([]),
        "n1": Scene([(0, 0)]),
        "n2": Scene([(0, 0), (1, 3)]),
    }[name]
    n = sc.n
    vis = visibility_graph(sc)
    _assert_one_state(vis, n)
    ginf = build_g_infinity(sc, vis)
    _assert_one_state(ginf, n)
    g15, g10 = spanners.build_g15(sc, ginf), spanners.build_g10(sc, ginf)
    g7 = spanners.build_g7(sc, ginf, g10)
    graphs = build_all(sc)[0]
    oracle = verify.oracle_g_infinity(sc)
    union = verify._union(n, graphs.values())
    parsed = parse_edge_list(write_edge_list(g7))
    validated = Graph(n, [(b, a) for a, b in reversed(g15.sorted_edges())] * 2)
    for g in (g15, g10, g7, *graphs.values(), oracle, union, parsed, validated):
        _assert_one_state(g, n)
    assert [vis, ginf, g15, g10, g7] == [graphs[name] for name in spanners.GRAPH_NAMES]
    assert oracle == ginf and parsed == g7 and validated == g15
    assert union == vis


@pytest.mark.parametrize("run", ["run_verification", "build_all", "cli build g7"])
def test_vis_and_ginf_skip_the_validating_loop(monkeypatch, tmp_path, run):
    # No builder walks its graph through Graph.__init__'s loop, and no
    # build makes a graph's edge frozenset; every graph comes from
    # Graph.from_keys. Only verify's checks read frozensets, and the
    # oracle alone walks its graph through the validating loop.
    sc = generate(GeneratorConfig(42, 5, obstacle_size=8, seed=20))
    walked, filled, kept = [], [], {}
    real_init, real_edges = Graph.__init__, Graph.edges.fget

    def recording_init(self, n, edges):
        walked.append(self)
        real_init(self, n, edges)

    def recording_edges(self):
        if self._edges is None:
            filled.append(self)
        return real_edges(self)

    def keeping(name, step):
        def kept_step(*args):
            kept[name] = step(*args)
            return kept[name]

        return kept_step

    monkeypatch.setattr(Graph, "__init__", recording_init)
    monkeypatch.setattr(Graph, "edges", property(recording_edges))
    for name in ("visibility_graph", "build_g_infinity", "build_g15", "build_g10", "g7_transform"):
        monkeypatch.setattr(spanners, name, keeping(name, getattr(spanners, name)))
    if run == "run_verification":
        assert all(o.ok for o in run_verification(sc))
    elif run == "build_all":
        build_all(sc)
    else:
        (tmp_path / "s.json").write_text(write_instance(sc))
        argv = ["build", "--graph", "g7", "--in", str(tmp_path / "s.json"), "--out", str(tmp_path / "g7")]
        assert cli.main(argv) == 0
    vis, ginf = kept["visibility_graph"], kept["build_g_infinity"]
    built = [vis, ginf, kept["build_g15"], kept["build_g10"], kept["g7_transform"].graph]
    assert not any(g is b for g in walked for b in built)
    if run == "run_verification":
        assert len(walked) == 1  # the oracle's graph
        assert not any(g is vis for g in filled)
        assert any(g is ginf for g in filled)  # for the oracle check
    else:
        assert walked == [] and filled == []
