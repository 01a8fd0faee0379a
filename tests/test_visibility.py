import pytest
from hypothesis import given, settings, strategies as st

from polyspanner.scene import Scene
from polyspanner.visibility import Graph, visibility_graph

from tests.reference_visibility import visible


class TestGraph:
    def test_basic(self):
        g = Graph(4, [(0, 1), (1, 0), (2, 3)])
        assert g.m == 2
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.neighbors(1) == (0,)
        assert g.degree(3) == 1
        assert g.max_degree() == 1
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
