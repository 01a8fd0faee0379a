import importlib.util
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polyspanner import scene as scene_module
from polyspanner.generator import GeneratorConfig, generate
from polyspanner.geom import polygon_signed_area2
from polyspanner.scene import (
    INT64_GUARD,
    Scene,
    SceneError,
    check_general_position,
    perturb_by_rotation,
    validate,
)
from polyspanner.verify import run_verification

from tests import reference_general_position, reference_scene_ints
from tests.conftest import load_scene
from tests.test_acceptance import FIXTURE_NAMES, configs

ROOT = Path(__file__).resolve().parent.parent


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


def _assert_integer_geometry_matches_reference(vertices, obstacles):
    sc = Scene(vertices, obstacles)
    want = reference_scene_ints.integer_geometry(vertices, obstacles)
    assert {name: getattr(sc, name) for name in want} == want
    assert sc.vertices == tuple((Fraction(x), Fraction(y)) for x, y in vertices)


@pytest.mark.parametrize(
    "vertices, obstacles",
    [
        # Non-unit denominators, and a clockwise ring.
        ([(Fraction(1, 3), Fraction(2, 7)), (Fraction(9, 2), Fraction(1, 5)),
          (Fraction(7, 3), Fraction(33, 4))], [[0, 2, 1]]),
        # Ints, Fractions and strings mixed, negative rationals, and one
        # counterclockwise ring next to a clockwise one.
        ([(-3, Fraction(-7, 6)), (Fraction(-1, 4), -2), ("5/8", "-11/3"),
          (4, 4), (10, 0), (12, Fraction(-9, 10)), (11, 3)], [[0, 1, 2], [4, 6, 5]]),
        # Zero-area and two-corner rings keep their order.
        ([(Fraction(1, 2), 0), (1, 0), (Fraction(3, 2), 0), (0, Fraction(-5, 3))],
         [[0, 1, 2], [3, 0]]),
        # A common denominator of 2^60.
        ([(Fraction(1, 2**60), Fraction(-3, 2**59)), (5, Fraction(1, 2**30)),
          (Fraction(-1, 3), 2)], [[0, 1, 2]]),
        ([], []),
    ],
    ids=["non-unit", "mixed-negative", "degenerate-rings", "large-scale", "empty"],
)
def test_integer_geometry_matches_fraction_formula(vertices, obstacles):
    _assert_integer_geometry_matches_reference(vertices, obstacles)


def test_integer_geometry_matches_fraction_formula_on_random_scenes():
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(3, 12)
        dens = [1, 1, 2, 3, 7, 10, 12, 2**31 - 1]
        vertices = [
            tuple(Fraction(rng.randint(-10**6, 10**6), rng.choice(dens)) for _ in range(2))
            for _ in range(n)
        ]
        obstacles = [rng.sample(range(n), rng.randint(3, n)) for _ in range(rng.randint(0, 2))]
        _assert_integer_geometry_matches_reference(vertices, obstacles)


def test_integer_geometry_matches_fraction_formula_on_fixtures():
    for name in FIXTURE_NAMES:
        sc = load_scene(name)
        _assert_integer_geometry_matches_reference(sc.vertices, sc.obstacles)


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


def _same_report_as_reference(scene):
    got = tuple(check_general_position(scene))
    assert got == tuple(reference_general_position.check_general_position(scene))
    return got


def test_general_position_matches_reference_on_the_tier1_mix():
    for scene in [load_scene(name) for name in FIXTURE_NAMES] + [generate(c) for c in configs()]:
        _same_report_as_reference(scene)


def _grid(rng, n, k):
    # Points of a (2k+1)^2 grid, duplicates allowed: many horizontal
    # pairs and collinear triples, in every direction.
    return [(rng.randint(-k, k), rng.randint(-k, k)) for _ in range(n)]


def test_general_position_matches_reference_on_small_grids():
    rng = random.Random(18)
    reports = [
        _same_report_as_reference(Scene(_grid(rng, rng.randint(0, 30), rng.randint(1, 6))))
        for _ in range(400)
    ]
    assert sum(r[2] > 0 for r in reports) > 300
    assert sum(r[0] > 0 for r in reports) > 300


@pytest.mark.parametrize("block", [1, 30, 100])
def test_general_position_matches_reference_in_blocks(monkeypatch, block):
    # One to a few rows per block: the counts add up over blocks, and
    # the first pair or triple may come from a later block.
    monkeypatch.setattr(scene_module, "BLOCK", block)
    rng = random.Random(block)
    for _ in range(40):
        _same_report_as_reference(Scene(_grid(rng, rng.randint(0, 25), 4)))


def test_general_position_same_report_across_the_int64_guard():
    # One grid scene, stretched and moved so that its largest
    # coordinate is 2^29 - 1 and then 2^29: a translation changes no
    # direction, so both reports are the same, int64 then Python ints.
    pts = _grid(random.Random(29), 40, 5)
    s = INT64_GUARD // 16
    reports = []
    for top, dtype in ((INT64_GUARD - 1, np.int64), (INT64_GUARD, object)):
        shift = top - s * max(c for p in pts for c in p)
        scene = Scene([(s * x + shift, s * y + shift) for x, y in pts])
        assert max(abs(c) for p in scene.ipoints for c in p) == top
        assert scene.exact_points().dtype == dtype
        reports.append(_same_report_as_reference(scene))
    assert reports[0] == reports[1]
    assert reports[0][0] and reports[0][2]


def _count_exact_keys(monkeypatch) -> list:
    """Record the apex count of every ``_direction_keys`` call."""
    calls = []
    keys = scene_module._direction_keys

    def probe(x, y, apex, *rest):
        calls.append(apex.size)
        return keys(x, y, apex, *rest)

    monkeypatch.setattr(scene_module, "_direction_keys", probe)
    return calls


def test_float_slope_tie_runs_the_exact_keys(monkeypatch):
    # The slopes (2^28 + 1) / 2^28 and (2^28 + 2) / (2^28 + 1) differ by
    # about 2^-56, under half a float step at 1: one double, no triple.
    scene = Scene([(0, 0), (2**28, 2**28 + 1), (2**28 + 1, 2**28 + 2)])
    assert scene.exact_points().dtype == np.int64
    assert (2**28 + 1) / 2**28 == (2**28 + 2) / (2**28 + 1)
    calls = _count_exact_keys(monkeypatch)
    assert _same_report_as_reference(scene) == (0, None, 0, None)
    assert calls == [3]


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0), (0, 5), (0, -3), (1, 7)],  # vertical, both ways: +-inf
        [(0, 5), (0, 0), (2, 1), (0, -3)],
        [(0, 0), (5, 0), (-5, 0), (1, 7)],  # horizontal, both ways: +-0.0
        [(0, 0), (1, 2), (1, 2)],  # duplicates, in the three orders
        [(1, 2), (1, 2), (0, 0)],
        [(1, 2), (0, 0), (1, 2)],
        [(0, 0), (0, 0), (0, 0), (3, 1)],
        [(3, 1), (0, 0), (6, 2), (-3, -1), (2, 9)],  # collinear
    ],
)
def test_float_screen_keeps_vertical_duplicate_and_collinear_reports(points):
    _same_report_as_reference(Scene(points))


def test_benchmark_sized_scenes_never_make_the_exact_keys(monkeypatch):
    # Every scene of every benchmark workload, all variants: general
    # position, so the float screen clears every block.
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    calls = _count_exact_keys(monkeypatch)
    variants = workloads.VARIANTS["full"]
    for w in workloads.WORKLOADS.values():
        for i, slot in enumerate(w.slots["full"]):
            for seed in range(w.seed_base + i * variants, w.seed_base + (i + 1) * variants):
                config = GeneratorConfig(slot.n, slot.obstacles, slot.obstacle_size, seed=seed)
                assert check_general_position(generate(config)).ok
    assert calls == []


def test_object_path_makes_the_exact_keys_in_every_block(monkeypatch):
    # The same general-position scene below and at the guard: the float
    # screen clears every int64 block, Python ints make the keys anyway.
    monkeypatch.setattr(scene_module, "BLOCK", 60)
    pts = [(i, i * i) for i in range(12)]
    calls = _count_exact_keys(monkeypatch)
    for shift, dtype in ((0, np.int64), (INT64_GUARD, object)):
        scene = Scene([(x + shift, y) for x, y in pts])
        assert scene.exact_points().dtype == dtype
        assert _same_report_as_reference(scene)[2] == 0
    assert calls == [5, 5, 2]


@pytest.mark.parametrize(
    "points, collinear",
    [
        ([(0, 0), (1, 2), (1, 2)], 1),
        ([(1, 2), (1, 2), (0, 0)], 0),
        ([(1, 2), (0, 0), (1, 2)], 0),
    ],
)
def test_duplicate_points_count_by_order_but_fail_validation(points, collinear):
    # The two copies of (1, 2) make one collinear triple only when an
    # earlier apex sees both along one direction; an apex at a copy skips
    # the other as a zero direction. So the count, and with it the
    # general-position detail line, depends on vertex order. Every order
    # fails scene-valid, and the run stops before any graph is built,
    # so no ok flag depends on the order.
    report = check_general_position(Scene(points))
    assert (report.parallel_count, report.collinear_count) == (1, collinear)
    outcomes = run_verification(Scene(points))
    assert [(o.name, o.ok) for o in outcomes] == [("scene-valid", False), ("general-position", False)]
    assert outcomes[1].detail == f"1 parallel pair(s), {collinear} collinear triple(s)"


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
