import pytest

from tests import reference_sequences
from tests.conftest import load_scene, neighbors
from tests.test_acceptance import FIXTURE_NAMES, configs

from polyspanner import spanners
from polyspanner.cones import ConeIndex, ConeLabel, SubconeRef
from polyspanner.generator import GeneratorConfig, generate
from polyspanner.spanners import (
    build_g10,
    build_g15,
    build_g7,
    build_g_infinity,
    canonical_sequences,
    compute_charges,
    g7_transform,
)
from polyspanner.verify import degree_report
from polyspanner.visibility import Graph, visibility_graph


def pipeline(scene):
    vis = visibility_graph(scene)
    ginf = build_g_infinity(scene, vis)
    return vis, ginf, build_g15(scene, ginf), build_g10(scene, ginf)


def test_micro3_graph(micro3):
    vis, ginf, g15, g10 = pipeline(micro3)
    assert vis.sorted_edges() == [(0, 1), (0, 2), (1, 2)]
    assert ginf.sorted_edges() == [(0, 1), (1, 2)]
    # nothing to trim at three points
    assert g15 == ginf and g10 == ginf


def test_ginf_one_edge_per_populated_subcone(split_cones, nonconvex):
    for scene in (split_cones, nonconvex):
        vis, ginf, _, _ = pipeline(scene)
        index = ConeIndex(scene)
        for v in range(scene.n):
            chosen = {}
            for u in neighbors(ginf, v):
                ref = index.subcone_of(v, u)
                if not ref.label.positive:
                    continue
                assert ref not in chosen, f"two picks in {ref}"
                chosen[ref] = u
            # every positive subcone with a visible member produced an edge
            populated = set()
            for u in neighbors(vis, v):
                ref = index.subcone_of(v, u)
                if ref.label.positive:
                    populated.add(ref)
            assert populated == set(chosen)


def test_split_cone_picks_obstacle_corners(split_cones):
    # the spike's own corners are the nearest members on each side of
    # the split upward cone at its apex
    _, ginf, _, _ = pipeline(split_cones)
    assert ginf.has_edge(0, 1) and ginf.has_edge(0, 2)
    for far in (3, 6, 7, 10):
        assert not ginf.has_edge(0, far)


def test_split_cones_ginf_edge_list(split_cones):
    _, ginf, _, _ = pipeline(split_cones)
    assert ginf.sorted_edges() == [
        (0, 1), (0, 2), (1, 2), (1, 7), (2, 6), (2, 7), (3, 4), (3, 5),
        (3, 7), (3, 9), (3, 10), (3, 11), (4, 5), (4, 7), (4, 8), (5, 8),
        (5, 9), (6, 7), (6, 10), (7, 8), (7, 10), (7, 11), (8, 9), (8, 11),
        (9, 11),
    ]


def test_canonical_sequences_on_split_fixture(split_cones):
    _, ginf, _, _ = pipeline(split_cones)
    table = canonical_sequences(split_cones, ginf, ConeIndex(split_cones))
    seq = table[SubconeRef(7, ConeLabel(False, 1))]
    assert seq.vertices == (11, 8, 4)
    assert seq.consecutive_pairs == ((11, 8), (8, 4))
    seq = table[SubconeRef(11, ConeLabel(False, 2))]
    assert seq.vertices == (3, 9, 8)


def test_canonical_sequences_have_no_positive_subcone(split_cones):
    _, ginf, _, _ = pipeline(split_cones)
    table = canonical_sequences(split_cones, ginf, ConeIndex(split_cones))
    assert table
    assert not [ref for ref in table if ref.label.positive]


def _reference_table(scene, ginf):
    out = []
    for apex in range(scene.n):
        for seq in reference_sequences._negative_sequences(scene, ginf, apex):
            closest = reference_sequences._closest(
                scene, apex, seq.subcone.label, seq.vertices
            )
            out.append((seq.subcone, seq.vertices, closest))
    return out


def test_canonical_sequences_match_reference():
    # The six fixtures and every seventh acceptance configuration, each
    # with its ginf and with a thinned ginf (every third edge dropped).
    scenes = [load_scene(name) for name in FIXTURE_NAMES]
    scenes += [generate(cfg) for cfg in configs()[::7]]
    for scene in scenes:
        index = ConeIndex(scene)
        ginf = build_g_infinity(scene, visibility_graph(scene), index)
        thinned = Graph(
            scene.n, [e for j, e in enumerate(ginf.sorted_edges()) if j % 3]
        )
        for g in (ginf, thinned):
            table = canonical_sequences(scene, g, index)
            # one table per ginf edge set and index, shared on reuse
            assert canonical_sequences(scene, Graph(g.n, g.edges), index) is table
            assert all(
                (seq.apex, seq.subcone) == (ref.apex, ref)
                for ref, seq in table.items()
            )
            got = [(ref, seq.vertices, seq.closest) for ref, seq in table.items()]
            assert got == _reference_table(scene, g)


def test_degree_trim_chain(split_cones):
    _, ginf, g15, g10 = pipeline(split_cones)
    assert g10.is_subgraph_of(g15)
    assert g15.is_subgraph_of(ginf)
    assert sorted(set(g15.edges) - set(g10.edges)) == [
        (3, 7), (3, 11), (7, 10), (7, 11),
    ]


def test_path_edges_survive_in_g10(split_cones):
    _, ginf, _, g10 = pipeline(split_cones)
    for seq in canonical_sequences(split_cones, ginf, ConeIndex(split_cones)).values():
        for p, q in seq.consecutive_pairs:
            assert g10.has_edge(p, q)


def test_charges_cover_degree(split_cones, nonconvex):
    for scene in (split_cones, nonconvex):
        _, ginf, _, g10 = pipeline(scene)
        ledger = compute_charges(scene, ginf, ConeIndex(scene))
        totals = [0] * scene.n
        for ref, charges in ledger.items():
            totals[ref.apex] += len(charges)
        for v, degree in enumerate(g10.degrees()):
            assert totals[v] >= degree


def test_charge_slot_caps(split_cones, nonconvex):
    for scene in (split_cones, nonconvex):
        _, ginf, _, _ = pipeline(scene)
        ledger = compute_charges(scene, ginf, ConeIndex(scene))
        for ref, charges in ledger.items():
            cap = 2 if ref.label.positive else 1
            assert len(charges) <= cap, str(ref)


def test_all_scenarios_appear(split_cones):
    _, ginf, _, _ = pipeline(split_cones)
    ledger = compute_charges(split_cones, ginf, ConeIndex(split_cones))
    kinds = {c.scenario for _, cs in ledger.items() for c in cs}
    assert kinds == {"A", "B", "C", "D"}


def test_absorbed_transformation_keeps_graph():
    # plenty of double charges here, all absorbed without edge surgery
    scene = load_scene("g7_edge_removal.json")
    _, ginf, _, g10 = pipeline(scene)
    res = g7_transform(scene, ginf, g10, ConeIndex(scene))
    absorbed = [t for t in res.transformations if t.absorbed]
    assert absorbed
    removed = {t.removed_vy for t in res.transformations if not t.absorbed}
    removed |= {t.removed_xw for t in res.transformations if t.removed_xw}
    added = {t.added_xy for t in res.transformations if not t.absorbed}
    assert set(res.graph.edges) == (set(g10.edges) - removed) | added


def _g7_keeps_shared_table(scene, ginf, g10):
    """g7_transform on an explicit index. It rewires its own copy of the
    charge table: the index's table is still the one a fresh index
    builds, and it takes no item assignment."""
    index = ConeIndex(scene)
    res = g7_transform(scene, ginf, g10, index)
    table = compute_charges(scene, ginf, index)
    assert table == compute_charges(scene, ginf, ConeIndex(scene))
    with pytest.raises(TypeError):
        table[next(iter(table))] = ()
    return res


def test_structural_transformation_rewires_path():
    scene = load_scene("g7_structural.json")
    _, ginf, _, g10 = pipeline(scene)
    res = _g7_keeps_shared_table(scene, ginf, g10)
    structural = [t for t in res.transformations if not t.absorbed]
    assert len(structural) == 1
    t = structural[0]
    assert (t.v, t.x, t.y) == (12, 32, 27)
    assert t.removed_vy == (12, 27)
    assert t.added_xy == (27, 32)
    assert t.uncharged_xw == (3, 32)
    assert not res.graph.has_edge(12, 27)
    assert res.graph.has_edge(27, 32)
    assert degree_report(res.graph).max_degree <= 7


def test_transformation_can_remove_crowding_edge():
    scene = load_scene("g7_edge_removal.json")
    _, ginf, _, g10 = pipeline(scene)
    res = _g7_keeps_shared_table(scene, ginf, g10)
    removals = [t for t in res.transformations if t.removed_xw]
    assert removals
    t = removals[0]
    assert t.removed_xw == (1, 14)
    assert not res.graph.has_edge(1, 14)
    assert degree_report(res.graph).max_degree <= 7


def test_transformation_can_move_a_charge():
    scene = load_scene("g7_charge_move.json")
    _, ginf, _, g10 = pipeline(scene)
    res = _g7_keeps_shared_table(scene, ginf, g10)
    moved = [t for t in res.transformations if t.uncharged_xw]
    assert moved
    assert moved[0].uncharged_xw == (20, 56)
    assert degree_report(res.graph).max_degree <= 7


def test_build_g7_on_generated_instances():
    for seed in (1000, 1017, 1042):
        scene = generate(GeneratorConfig(n_points=24, n_obstacles=2, seed=seed))
        vis, ginf, g15, g10 = pipeline(scene)
        g7 = build_g7(scene, ginf, g10)
        assert degree_report(g7).max_degree <= 7
        assert degree_report(g10).max_degree <= 10
        assert degree_report(g15).max_degree <= 15


def test_pipeline_builds_in_graph_name_order(split_cones):
    steps = spanners.pipeline(split_cones, ConeIndex(split_cones))
    assert tuple(name for name, _ in steps) == spanners.GRAPH_NAMES
