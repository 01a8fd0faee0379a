"""The per-run cone index against the reference classification, which
recomputes every call from scratch, and the guards that one run
classifies each vertex, builds each canonical-sequence and charge
table and decides general position once."""

import sys
from collections import Counter

import pytest

from polyspanner import cones, scene as scene_module, spanners
from polyspanner.cones import ConeIndex
from polyspanner.generator import GeneratorConfig, generate
from polyspanner.scene import Scene
from polyspanner.spanners import (
    build_all,
    build_g10,
    build_g15,
    build_g7,
    build_g_infinity,
)
from polyspanner.verify import run_verification
from polyspanner.visibility import Graph, visibility_graph

from tests import reference_cones
from tests.conftest import load_scene
from tests.test_acceptance import FIXTURE_NAMES, configs


def test_index_matches_reference_classification():
    # Every ordered vis and ginf pair of the six fixtures and of every
    # seventh acceptance configuration, plus every subcone list.
    scenes = [load_scene(name) for name in FIXTURE_NAMES]
    scenes += [generate(cfg) for cfg in configs()[::7]]
    for scene in scenes:
        vis = visibility_graph(scene)
        index = ConeIndex(scene)
        for g in (vis, build_g_infinity(scene, vis, index)):
            for u in range(scene.n):
                for v in g.neighbors(u):
                    want = reference_cones.subcone_of(scene, u, v)
                    assert index.subcone_of(u, v) == want
        for apex in range(scene.n):
            split = reference_cones.split_cone_label(scene, apex)
            assert index.split_label(apex) == split
            for positive in (True, False):
                want = reference_cones.subcones(scene, apex, positive)
                assert list(index.subcones(apex, positive)) == want


# A ring that repeats vertex 0 gives it a zero-length wedge edge; Scene
# accepts it, validate does not.
RING = Scene([(0, 0), (5, 1), (2, 7)], [(0, 1, 0)])
SPIKE = Scene([(0, 0), (20, 100), (-5, 101), (3, 150)], [[0, 1, 2]])


RAISING = pytest.mark.parametrize(
    "scene, apex, p",
    [(RING, 0, 2), (SPIKE, 0, 3), (Scene([(0, 0), (5, 0)]), 0, 1)],
    ids=["zero-wedge-edge", "into-wedge", "cone-boundary"],
)


def _assert_raises_as_reference(index, apex, p):
    with pytest.raises(ValueError) as want:
        reference_cones.subcone_of(index.scene, apex, p)
    for _ in range(2):  # a failure is not memoised
        with pytest.raises(ValueError) as got:
            index.subcone_of(apex, p)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


@RAISING
def test_index_raises_what_reference_raises(scene, apex, p):
    _assert_raises_as_reference(ConeIndex(scene), apex, p)


@RAISING
def test_reverse_direction_first_changes_nothing(scene, apex, p):
    # (p, apex) keeps its sector for (apex, p), which must still raise
    # as a fresh index does; on the ring and the spike (p, apex) itself
    # classifies, although the other end cannot.
    index = ConeIndex(scene)
    try:
        want = reference_cones.subcone_of(scene, p, apex)
    except ValueError:
        _assert_raises_as_reference(index, p, apex)
    else:
        assert index.subcone_of(p, apex) == want
    _assert_raises_as_reference(index, apex, p)


def test_index_subcones_raise_what_reference_raises():
    with pytest.raises(ValueError) as want:
        reference_cones.subcones(RING, 0, True)
    index = ConeIndex(RING)
    for positive in (True, False):
        with pytest.raises(ValueError) as got:
            index.subcones(0, positive)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_ginf_finds_one_sector_per_visible_pair(name, monkeypatch):
    # Split labels first, so every sector counted is a pair's.
    scene = load_scene(name)
    vis = visibility_graph(scene)
    index = ConeIndex(scene)
    for v in range(scene.n):
        index.split_label(v)
    calls = []
    real = cones.direction_sector

    def probe(dx, dy):
        calls.append((dx, dy))
        return real(dx, dy)

    monkeypatch.setattr(cones, "direction_sector", probe)
    build_g_infinity(scene, vis, index)
    assert 0 < len(calls) <= vis.m


def test_index_belongs_to_one_scene():
    with pytest.raises(ValueError, match="another scene"):
        build_g_infinity(SPIKE, visibility_graph(SPIKE), ConeIndex(RING))


def _dropped_first(g):
    return Graph(g.n, g.sorted_edges()[1:])


@pytest.mark.parametrize("fixture", ["split_cones.json", "g7_structural.json"])
@pytest.mark.parametrize(
    "name, corrupt, tables",
    [
        (None, None, 1),
        ("ginf", _dropped_first, 2),
        ("ginf", lambda g: Graph(g.n, g.edges), 1),
        ("g15", _dropped_first, 1),
    ],
    ids=["honest", "ginf-differs", "ginf-same-edges", "g15-differs"],
)
def test_one_run_classifies_once(monkeypatch, fixture, name, corrupt, tables):
    scene = load_scene(fixture)
    subs = None
    if name is not None:
        subs = {name: corrupt(build_all(scene)[0][name])}
    splits = Counter()
    built = []
    charged = []
    real_split = cones.split_cone_label
    real_table = spanners._sequence_table
    real_charges = spanners._charge_table

    def split_probe(sc, vi):
        splits[vi] += 1
        return real_split(sc, vi)

    def table_probe(sc, ginf, index):
        built.append(ginf.edges)
        return real_table(sc, ginf, index)

    def charge_probe(sc, ginf, index):
        charged.append(ginf.edges)
        return real_charges(sc, ginf, index)

    monkeypatch.setattr(cones, "split_cone_label", split_probe)
    monkeypatch.setattr(spanners, "_sequence_table", table_probe)
    monkeypatch.setattr(spanners, "_charge_table", charge_probe)
    run_verification(scene, subs)
    assert max(splits.values()) == 1
    assert len(built) == len(set(built)) == tables
    assert len(charged) == len(set(charged)) == tables


def test_charge_build_that_raises_is_not_kept():
    # One extra vis edge in ginf makes the charge build ask for a
    # direction inside vertex 0's obstacle wedge. It raises each time it
    # is asked, the index keeps no table, and a run reports the error
    # as its three charge lines.
    scene = generate(GeneratorConfig(n_points=20, n_obstacles=2, seed=0))
    graphs = build_all(scene)[0]
    assert graphs["vis"].has_edge(0, 6) and not graphs["ginf"].has_edge(0, 6)
    bad = Graph(scene.n, graphs["ginf"].sorted_edges() + [(0, 6)])
    index = ConeIndex(scene)
    message = "vertex 16 lies strictly inside the obstacle wedge at vertex 0"
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            spanners.compute_charges(scene, bad, index)
    assert bad.edges not in index.charges
    lines = [
        (o.ok, o.detail)
        for o in run_verification(scene, {"ginf": bad})
        if o.name.startswith("charges(")
    ]
    assert lines == [(False, message)] * 3


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_general_position_checked_once_per_run(monkeypatch, fixture):
    # Every library binding of check_general_position counts its calls.
    # A run asks its index once and the oracle once on its own; a fresh
    # build_g_infinity asks once; the later steps never ask, so an index
    # that checked eagerly on construction would fail here.
    scene = load_scene(fixture)
    vis = visibility_graph(scene)
    real = scene_module.check_general_position
    calls = Counter()
    for name, module in list(sys.modules.items()):
        if not name.startswith("polyspanner"):
            continue
        if getattr(module, "check_general_position", None) is real:

            def probe(sc, name=name):
                calls[name] += 1
                return real(sc)

            monkeypatch.setattr(module, "check_general_position", probe)
    run_verification(scene)
    assert calls == {"polyspanner.cones": 1, "polyspanner.verify": 1}
    calls.clear()
    ginf = build_g_infinity(scene, vis)
    assert calls == {"polyspanner.cones": 1}
    calls.clear()
    g10 = build_g10(scene, ginf)
    build_g15(scene, ginf)
    build_g7(scene, ginf, g10)
    assert not calls
