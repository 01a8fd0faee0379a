"""The obstacle tests stay one pass each, behind exact box prunes, and
``visibility_graph`` sends the kernel only the pairs its array tests
cannot decide, after their endpoint wedges.

Counters replace the names that ``geom``, ``scene`` and ``verify`` call,
so bringing back the kernel's point-in-polygon fall-through,
dropping a box prune, dropping the wedge test before the kernel or
sending ``vis`` pairs in general position to the kernel fails here,
although every output would stay the same.
"""

import pytest

from tests.conftest import load_scene
from tests.reference_cones import inside_wedge, obstacle_wedge

from polyspanner import geom, scene as scene_module, verify
from polyspanner.cones import ConeIndex
from polyspanner.scene import Scene
from polyspanner.spanners import build_g_infinity
from polyspanner.verify import check_empty_triangles, check_planarity, oracle_g_infinity
from polyspanner.visibility import visibility_graph

FIXTURES = ["nonconvex.json", "split_cones.json"]


def _box(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def _counted(monkeypatch, module, name, check):
    """Replace module.name by a wrapper that asserts check(*args) and
    counts calls; returns the list of calls."""
    real = getattr(module, name)
    calls = []

    def wrapper(*args):
        assert check(*args), (name, args)
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _closed_boxes_meet(a, b, poly):
    x0, y0, x1, y1 = _box([a, b])
    px0, py0, px1, py1 = _box(poly)
    return x0 <= px1 and px0 <= x1 and y0 <= py1 and py0 <= y1


@pytest.mark.parametrize("name", FIXTURES)
def test_kernel_decides_inside_without_point_in_polygon(name, monkeypatch):
    scene = load_scene(name)
    rings = scene.ipolygons
    # Every vertex as a, and midpoints of corner pairs strictly inside
    # the ring, where the kernel's own parity decides the answer.
    starts = []
    for poly in rings:
        mids = [((c[0] + d[0]) // 2, (c[1] + d[1]) // 2) for c in poly for d in poly]
        inner = [m for m in mids if geom.point_in_polygon(m, poly) > 0]
        assert inner
        starts.append(list(scene.ipoints) + inner)
    _counted(monkeypatch, geom, "point_in_polygon", lambda p, poly: False)
    for poly, ends in zip(rings, starts):
        for a in ends:
            for b in scene.ipoints:
                geom.segment_properly_intersects_polygon(a, b, poly)
    visibility_graph(scene)
    oracle_g_infinity(scene)


def _mean(*points):
    return tuple(sum(c) / len(points) for c in zip(*points))


def _irregular(name):
    """A fixture plus a free vertex on the first edge of obstacle 0 and
    one strictly inside it: the pairs at those two vertices are the
    ones ``visibility_graph`` still sends to the kernel."""
    scene = load_scene(name)
    ring = [scene.vertices[i] for i in scene.obstacles[0]]
    inside = next(
        m
        for m in (_mean(p, q, r) for p in ring for q in ring for r in ring)
        if geom.point_in_polygon(m, ring) > 0
    )
    return Scene([*scene.vertices, _mean(ring[0], ring[1]), inside], scene.obstacles)


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize(
    "module, make, run",
    [
        (verify, load_scene, lambda scene, vis: oracle_g_infinity(scene)),
        (scene_module, _irregular, lambda scene, vis: visibility_graph(scene)),
        (scene_module, load_scene, check_planarity),
    ],
    ids=["oracle", "vis", "planarity"],
)
def test_segment_tests_only_where_boxes_meet(name, module, make, run, monkeypatch):
    scene = make(name)
    vis = visibility_graph(scene)
    calls = _counted(
        monkeypatch, module, "segment_properly_intersects_polygon", _closed_boxes_meet
    )
    run(scene, vis)
    # Each unordered pair meets each obstacle at most once, and on both
    # fixtures some pair's box misses some obstacle's box.
    pairs = scene.n * (scene.n - 1) // 2
    assert 0 < len(calls) < pairs * len(scene.obstacles)


# A spike whose corner comes first, then last, in vertex order. ODD holds
# a vertex on the spike's first edge and one strictly inside it, so the
# pairs at them reach the kernel; the corner's wedge decides some first,
# with the corner as u, then as v.
SPIKE = [(0, 0), (20, 100), (-5, 101)]
ODD = [(10, 50), (5, 67)]
SPIKES = {
    "spike-first": Scene(SPIKE + [(3, 150)], [[0, 1, 2]]),
    "spike-last": Scene([(3, 150)] + SPIKE, [[1, 2, 3]]),
}
ODD_SPIKES = {
    "spike-first": Scene(SPIKE + [(3, 150)] + ODD, [[0, 1, 2]]),
    "spike-last": Scene(ODD + [(3, 150)] + SPIKE, [[3, 4, 5]]),
}


@pytest.mark.parametrize("name", FIXTURES + list(SPIKES))
def test_vis_scans_no_pair_decided_at_a_wedge(name, monkeypatch):
    scene = ODD_SPIKES[name] if name in SPIKES else _irregular(name)
    vertex = {p: v for v, p in enumerate(scene.ipoints)}
    assert len(vertex) == scene.n

    def leaves_no_wedge(a, b, poly):
        for p, q in ((a, b), (b, a)):
            w = obstacle_wedge(scene, vertex[p])
            if w is not None and inside_wedge(w, q[0] - p[0], q[1] - p[1]):
                return False
        return True

    calls = _counted(
        monkeypatch, scene_module, "segment_properly_intersects_polygon", leaves_no_wedge
    )
    visibility_graph(scene)
    assert calls


def test_vis_calls_no_kernel_in_general_position(monkeypatch):
    calls = _counted(
        monkeypatch, scene_module, "segment_properly_intersects_polygon", lambda *args: True
    )
    for scene in [load_scene(name) for name in FIXTURES] + list(SPIKES.values()):
        visibility_graph(scene)
    assert calls == []


@pytest.mark.parametrize("name", FIXTURES)
def test_empty_triangles_test_only_inside_the_box(name, monkeypatch):
    scene = load_scene(name)

    def strictly_inside_box(p, tri):
        x0, y0, x1, y1 = _box(tri)
        return x0 < p[0] < x1 and y0 < p[1] < y1

    def reaches_open_box(a, b, tri):
        x0, y0, x1, y1 = _box(tri)
        ex0, ey0, ex1, ey1 = _box([a, b])
        return ex1 > x0 and ex0 < x1 and ey1 > y0 and ey0 < y1

    points = _counted(monkeypatch, verify, "point_in_polygon", strictly_inside_box)
    edges = _counted(
        monkeypatch, verify, "segment_properly_intersects_polygon", reaches_open_box
    )
    vis = visibility_graph(scene)
    check_empty_triangles(scene, build_g_infinity(scene, vis), ConeIndex(scene))
    # vis as ginf spans triangles whose boxes hold vertices.
    check_empty_triangles(scene, vis, ConeIndex(scene))
    assert points and edges
