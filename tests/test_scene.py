import math
import tracemalloc
from fractions import Fraction

import pytest

from polyspanner.geom import polygon_signed_area2
from polyspanner.scene import (
    Scene,
    SceneError,
    check_general_position,
    perturb_by_rotation,
    validate,
)


def kinds(result):
    return {v.kind for v in result.violations}


def test_scene_normalizes_fractions_and_scale():
    sc = Scene([(Fraction(1, 2), 0), (1, Fraction(3, 4))])
    assert sc.scale == 4
    assert sc.ipoints[0] == (2, 0)
    assert sc.ipoints[1] == (4, 3)


def test_scene_normalizes_ring_orientation():
    cw = Scene([(0, 0), (4, 1), (2, 5)], [[0, 2, 1]])
    ccw = Scene([(0, 0), (4, 1), (2, 5)], [[0, 1, 2]])
    for sc in (cw, ccw):
        assert polygon_signed_area2(sc.ipolygons[0]) > 0


def test_scene_rejects_bad_indices():
    with pytest.raises(SceneError):
        Scene([(0, 0), (1, 1)], [[0, 1, 5]])


def test_obstacle_edges_and_neighbors():
    sc = Scene([(0, 0), (4, 1), (2, 5), (9, 9)], [[0, 1, 2]])
    edges = {tuple(sorted(e)) for e in sc.obstacle_edges()}
    assert edges == {(0, 1), (1, 2), (0, 2)}
    prev, nxt = sc.boundary_neighbors(1)
    assert {prev, nxt} == {0, 2}
    assert sc.boundary_neighbors(3) is None


def test_validate_clean(split_cones):
    assert validate(split_cones).ok


def test_validate_duplicate_vertex():
    sc = Scene([(0, 0), (1, 2), (0, 0)])
    assert "duplicate-vertex" in kinds(validate(sc))


def test_validate_degenerate_and_repeated():
    sc = Scene([(0, 0), (4, 1), (2, 5)], [[0, 1]])
    assert "degenerate-obstacle" in kinds(validate(sc))
    sc = Scene([(0, 0), (4, 1), (2, 5)], [[0, 1, 2, 1]])
    assert "repeated-index" in kinds(validate(sc))


def test_validate_bowtie_ring():
    sc = Scene([(0, 0), (4, 0), (0, 3), (4, 3)], [[0, 1, 2, 3]])
    assert "non-simple-obstacle" in kinds(validate(sc))


def test_validate_shared_vertex():
    pts = [(0, 0), (4, 1), (2, 5), (8, 2), (6, 6)]
    sc = Scene(pts, [[0, 1, 2], [1, 3, 4]])
    assert "shared-vertex" in kinds(validate(sc))


def test_validate_overlapping_obstacles():
    pts = [(0, 0), (6, 1), (3, 7), (4, 2), (10, 3), (7, 9)]
    sc = Scene(pts, [[0, 1, 2], [3, 4, 5]])
    assert "obstacles-intersect" in kinds(validate(sc))


def test_validate_nested_obstacles():
    outer = [(0, 0), (20, 1), (10, 30)]
    inner = [(8, 6), (12, 7), (10, 11)]
    sc = Scene(outer + inner, [[0, 1, 2], [3, 4, 5]])
    assert "obstacles-intersect" in kinds(validate(sc))


def test_validate_vertex_inside_obstacle():
    sc = Scene([(0, 0), (10, 1), (5, 12), (5, 4)], [[0, 1, 2]])
    assert "vertex-inside-obstacle" in kinds(validate(sc))


def test_general_position_flags_horizontal_pair():
    rep = check_general_position(Scene([(0, 0), (5, 0), (2, 3)]))
    assert not rep.ok
    assert rep.parallel_count == 1
    assert rep.first_parallel == (0, 1)


def test_general_position_flags_collinear_triple():
    rep = check_general_position(Scene([(0, 0), (2, 2), (4, 4), (1, 7)]))
    assert not rep.ok
    assert rep.first_collinear == (0, 1, 2)
    assert rep.collinear_count == 1


def test_general_position_counts_triples_without_listing_them():
    scene = Scene([(i, 2 * i + 1) for i in range(200)])
    tracemalloc.start()
    try:
        rep = check_general_position(scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.collinear_count == math.comb(200, 3) == 1_313_400
    assert rep.first_collinear == (0, 1, 2)
    assert peak < 5_000_000


def test_general_position_counts_pairs_without_listing_them():
    scene = Scene([(i, 7) for i in range(500)])
    tracemalloc.start()
    try:
        rep = check_general_position(scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.parallel_count == math.comb(500, 2) == 124_750
    assert rep.first_parallel == (0, 1)
    assert peak < 2_000_000


def test_general_position_clean(split_cones):
    assert check_general_position(split_cones).ok


def test_perturb_by_rotation_is_isometry():
    sc = Scene([(0, 0), (5, 0), (2, 3)])

    def d2(s, i, j):
        (x1, y1), (x2, y2) = s.vertices[i], s.vertices[j]
        return (x1 - x2) ** 2 + (y1 - y2) ** 2

    rot = perturb_by_rotation(sc, 2)
    for i in range(3):
        for j in range(i + 1, 3):
            assert d2(sc, i, j) == d2(rot, i, j)
    assert check_general_position(rot).ok
    with pytest.raises(ValueError):
        perturb_by_rotation(sc, 1)


def test_perturb_keeps_obstacles():
    sc = Scene([(0, 0), (5, 0), (2, 3), (9, 9)], [[0, 1, 2]])
    rot = perturb_by_rotation(sc, 3)
    assert rot.obstacles == sc.obstacles
