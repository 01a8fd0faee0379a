import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polyspanner import visibility
from polyspanner.generator import GeneratorConfig, generate
from polyspanner.scene import INT64_GUARD, Scene, perturb_by_rotation
from polyspanner.verify import degree_report
from polyspanner.visibility import Graph, visibility_graph

from tests.conftest import neighbors
from tests.reference_visibility import visible


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


def test_several_vertices_on_one_ray():
    # the first four share one ray: only neighbours along it see each other
    sc = Scene([(0, 0), (1, 1), (2, 2), (3, 3), (4, 0), (6, 1)])
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


@settings(derandomize=True, deadline=None, max_examples=400)
@given(grid_scenes())
# One scene per kind of irregular endpoint, each blocking a pair that
# the array tests alone would pass: two vertices inside a ring, two on
# its edges, a corner repeated in one ring, a free duplicate of a
# corner, and a corner shared by two rings.
@example(Scene(NOTCHED + [(3, 3), (5, 3)], [range(5)]))
@example(Scene(NOTCHED + [(4, 2), (6, 4)], [range(5)]))
@example(Scene([(0, 0), (2, 2), (3, 1), (2, 1)], [[1, 2, 1, 0]]))
@example(Scene([(0, 0), (0, 0), (0, 1), (2, 1), (3, 1)], [[0, 4, 1, 2]]))
@example(Scene([(0, 0), (0, 1), (3, 3), (3, 0)], [[1, 3, 2], [0, 3, 1, 2]]))
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
