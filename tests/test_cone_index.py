"""The per-run cone index against the reference classification, which
recomputes every call from scratch, and the guards that one run
classifies each scene once and builds each canonical-sequence,
path-charge and charge table at most once, that general position is
decided once per scene, and that no build makes the charge table."""

import sys
from collections import Counter

import numpy as np
import pytest

from polyspanner import cli, cones, scene as scene_module, spanners, verify
from polyspanner.cones import ConeIndex, SubconeRef, key_bounds
from polyspanner.generator import GeneratorConfig, generate
from polyspanner.io import parse_edge_list, write_edge_list, write_instance
from polyspanner.scene import INT64_GUARD, Scene
from polyspanner.spanners import (
    build_all,
    canonical_sequences,
    build_g10,
    build_g15,
    build_g7,
    build_g_infinity,
)
from polyspanner.verify import oracle_g_infinity, run_verification
from polyspanner.visibility import Graph, visibility_graph

from tests import reference_cones
from tests.conftest import load_scene
from tests.test_acceptance import FIXTURE_NAMES, configs


def _reference_or_error(scene, apex, p):
    try:
        return reference_cones.subcone_of(scene, apex, p)
    except ValueError as exc:
        return type(exc), str(exc)


def _index_or_error(index, apex, p):
    try:
        return index.subcone_of(apex, p)
    except ValueError as exc:
        return type(exc), str(exc)


def _code_ref(apex, code):
    # The SubconeRef a code names, read from the code layout 3 * sector + side.
    return SubconeRef(apex, cones._SECTOR_LABEL[code // 3], cones._SIDES[code % 3])


def _assert_codes_and_sequences_as_reference(index):
    # One ``codes`` gather gives every pair that classifies its reference
    # subcone. The graph of the pairs that classify both ways has, at
    # every apex, one canonical sequence per nonempty reference negative
    # subcone, holding its members, in ``reference_cones.subcones`` order.
    scene = index.scene
    refs = {
        (u, v): _reference_or_error(scene, u, v)
        for u in range(scene.n)
        for v in range(scene.n)
        if u != v
    }
    pairs = [pair for pair, ref in refs.items() if isinstance(ref, SubconeRef)]
    a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    got = index.codes(a, b).tolist()
    assert [_code_ref(u, code) for u, code in zip(a.tolist(), got)] == [refs[p] for p in pairs]
    both = {(u, v) for u, v in pairs if isinstance(refs[v, u], SubconeRef)}
    want = []
    for apex in range(scene.n):
        groups: dict = {}
        for v in range(scene.n):
            if (apex, v) in both and not refs[apex, v].label.positive:
                groups.setdefault(refs[apex, v], set()).add(v)
        order = reference_cones.subcones(scene, apex, False)
        want += [(ref, groups[ref]) for ref in order if ref in groups]
    graph = Graph(scene.n, [(u, v) for u, v in both if u < v])
    table = canonical_sequences(scene, graph, index)
    assert [(ref, set(seq.vertices)) for ref, seq in table.items()] == want
    return len(want)


def test_index_matches_reference_classification():
    # Every ordered pair u != v of the six fixtures and of every seventh
    # acceptance configuration, the raising ones included, plus every
    # split label, the codes of every pair that classifies and the order
    # of the negative subcones.
    scenes = [load_scene(name) for name in FIXTURE_NAMES]
    scenes += [generate(cfg) for cfg in configs()[::7]]
    raised = grouped = 0
    for scene in scenes:
        index = ConeIndex(scene)
        for u in range(scene.n):
            for v in range(scene.n):
                if u != v:
                    want = _reference_or_error(scene, u, v)
                    raised += not isinstance(want, SubconeRef)
                    assert _index_or_error(index, u, v) == want, (u, v)
        for apex in range(scene.n):
            split = reference_cones.split_cone_label(scene, apex)
            assert index.split_label(apex) == split
        grouped += _assert_codes_and_sequences_as_reference(index)
    assert raised > 0 and grouped > 0


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
        reference_cones.subcones(RING, 0, False)
    index = ConeIndex(RING)
    asks = (
        lambda: index.split_label(0),
        lambda: index.codes(np.array([0, 0]), np.array([1, 2])),
        lambda: canonical_sequences(RING, Graph(3, [(0, 1), (0, 2)]), index),
    )
    for ask in asks:
        with pytest.raises(ValueError) as got:
            ask()
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_sequences_skip_a_vertex_without_edges_whose_split_raises():
    # Vertex 0's split raises, but no edge of this graph leaves it, so
    # no pair of it is read and the table holds vertex 2's one sequence.
    # Only a hand-made graph on a scene that ``validate`` rejects gets
    # here: a split raises only at a zero-length obstacle edge.
    index = ConeIndex(RING)
    table = canonical_sequences(RING, Graph(3, [(1, 2)]), index)
    assert [str(ref) for ref in table] == ["C0-@2"]
    with pytest.raises(ValueError, match="zero direction"):
        index.split_label(0)


def test_codes_raise_at_the_least_pair_that_cannot_classify():
    # Seed 9 has nine pairs inside obstacle wedges; asked in any order,
    # one gather raises what the least of them raises, every time.
    scene = generate(GeneratorConfig(n_points=20, n_obstacles=3, obstacle_size=5, extent=1000, seed=9))
    index = ConeIndex(scene)
    a, b = np.nonzero(~np.eye(scene.n, dtype=bool))
    codes = index.classification.codes[a, b]
    marked = sorted(zip(a[codes >= cones.N_REFS].tolist(), b[codes >= cones.N_REFS].tolist()))
    assert len(marked) == 9
    with pytest.raises(ValueError) as want:
        reference_cones.subcone_of(scene, *marked[0])
    order = np.random.default_rng(5).permutation(a.size)
    for _ in range(2):
        with pytest.raises(ValueError) as got:
            index.codes(a[order], b[order])
        assert str(got.value) == str(want.value)
    free = order[codes[order] < cones.N_REFS]
    assert index.codes(a[free], b[free]).tolist() == codes[free].tolist()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_one_array_pass_per_index(name, monkeypatch):
    # A run classifies its scene in one array pass.
    scene = load_scene(name)
    passes = []
    real_classify = cones.classify

    def classify_probe(sc):
        passes.append(sc)
        return real_classify(sc)

    monkeypatch.setattr(cones, "classify", classify_probe)
    build_all(scene)
    assert passes == [scene]
    passes.clear()
    assert all(o.ok for o in run_verification(scene))
    assert passes == [scene]


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
    # The build reads the sequence and path-charge tables of the honest
    # ginf; the charge checks read all three tables of the ginf they
    # check. So each table is built once per distinct ginf that reads
    # it, and the charge table only for the checked one.
    scene = load_scene(fixture)
    subs = None
    if name is not None:
        subs = {name: corrupt(build_all(scene)[0][name])}
    checked = (subs or {}).get("ginf", build_all(scene)[0]["ginf"]).edges
    splits = Counter()
    built = {"sequences": [], "paths": [], "charges": []}
    real_classify = cones.classify

    def split_probe(sc):
        # One array pass decides the split label of every vertex.
        splits.update(range(sc.n))
        return real_classify(sc)

    def table_probe(name, real):
        def probe(sc, ginf, index):
            built[name].append(ginf.edges)
            return real(sc, ginf, index)

        return probe

    monkeypatch.setattr(cones, "classify", split_probe)
    for name, attr in (("sequences", "_sequence_table"), ("paths", "_path_table"), ("charges", "_charge_table")):
        monkeypatch.setattr(spanners, attr, table_probe(name, getattr(spanners, attr)))
    run_verification(scene, subs)
    assert max(splits.values()) == 1
    for name in ("sequences", "paths"):
        assert len(built[name]) == len(set(built[name])) == tables
        assert checked in built[name]
    assert built["charges"] == [checked]


def test_charge_build_that_raises_is_not_kept():
    # One extra vis edge in ginf makes the path-charge build, which the
    # charge build reads, ask for a direction inside vertex 0's obstacle
    # wedge. It raises each time it is asked, the index keeps neither
    # table, and a run reports the error as its three charge lines.
    scene = generate(GeneratorConfig(n_points=20, n_obstacles=2, seed=0))
    graphs = build_all(scene)[0]
    assert graphs["vis"].has_edge(0, 6) and not graphs["ginf"].has_edge(0, 6)
    bad = Graph(scene.n, graphs["ginf"].sorted_edges() + [(0, 6)])
    index = ConeIndex(scene)
    message = "vertex 16 lies strictly inside the obstacle wedge at vertex 0"
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            spanners.compute_charges(scene, bad, index)
        with pytest.raises(ValueError, match=message):
            spanners.path_charges(scene, bad, index)
    key = bad.pair_keys().tobytes()
    assert key not in index.charges and key not in index.paths
    assert key in index.tables
    lines = [
        (o.ok, o.detail)
        for o in run_verification(scene, {"ginf": bad})
        if o.name.startswith("charges(")
    ]
    assert lines == [(False, message)] * 3


def test_ginf_raises_for_a_vis_pair_it_cannot_classify():
    # Vertex 16 lies inside vertex 0's obstacle wedge; a vis that holds
    # the pair anyway makes ginf raise as subcone_of does, every time.
    scene = generate(GeneratorConfig(n_points=20, n_obstacles=2, seed=0))
    vis = visibility_graph(scene)
    bad = Graph(scene.n, vis.sorted_edges() + [(0, 16)])
    for _ in range(2):
        with pytest.raises(ValueError, match="vertex 16 lies strictly inside the obstacle wedge at vertex 0"):
            build_g_infinity(scene, bad)


def _count_general_position(monkeypatch) -> Counter:
    """Calls of check_general_position, by the library module whose
    binding made them."""
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
    return calls


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_general_position_checked_once_per_run(monkeypatch, fixture):
    # Every library binding of check_general_position counts its calls.
    # The scene keeps its report: a run asks once, through
    # Scene.general_position, and the oracle once on its own; a second
    # run on the same scene asks only the oracle again. On a fresh
    # scene, visibility_graph asks once, for the ray test, and ginf and
    # the later steps read the scene's report and never ask.
    scene = load_scene(fixture)
    calls = _count_general_position(monkeypatch)
    run_verification(scene)
    assert calls == {"polyspanner.scene": 1, "polyspanner.verify": 1}
    run_verification(scene)
    assert calls == {"polyspanner.scene": 1, "polyspanner.verify": 2}
    calls.clear()
    scene = load_scene(fixture)
    vis = visibility_graph(scene)
    assert calls == {"polyspanner.scene": 1}
    ginf = build_g_infinity(scene, vis)
    g10 = build_g10(scene, ginf)
    build_g15(scene, ginf)
    build_g7(scene, ginf, g10)
    assert calls == {"polyspanner.scene": 1}


def test_ginf_settles_keys_closer_than_the_bracket(monkeypatch):
    # In C2+ of vertex 0 the key is -dy + dx*sqrt3. Vertex 2 sits
    # (-2131, -3691) from vertex 1, and 3691/2131 is within 1.3e-7 below
    # sqrt3: its key is smaller by about 2.7e-4, yet its lower bound is
    # the larger one, so only key_compare can tell the two apart.
    scene = Scene([(0, 0), (100_000, -100_000), (97_869, -103_691)])
    index = ConeIndex(scene)
    code = index.classification.codes[0, 1:]
    assert code[0] == code[1] == 3 * 5
    dx, dy = scene.exact_points()[1:].T
    lo, hi = key_bounds(code, dx, dy)
    assert lo[0] < lo[1] <= hi[1] and lo[1] <= hi[0]
    settled = []
    real = spanners.key_compare

    def probe(label, d1, d2):
        settled.append((d1, d2))
        return real(label, d1, d2)

    monkeypatch.setattr(spanners, "key_compare", probe)
    ginf = build_g_infinity(scene, visibility_graph(scene))
    assert settled
    assert ginf == oracle_g_infinity(scene)
    assert ginf.has_edge(0, 2) and not ginf.has_edge(0, 1)


def _at_top(scene, top):
    # The scene stretched by 2s and moved so that its largest coordinate
    # is exactly top; for two tops with one s the scenes differ by a
    # translation, which changes no cone, no key order and no sight line.
    s = INT64_GUARD // 1000 - 1
    pts = [(2 * s * x, 2 * s * y) for x, y in scene.ipoints]
    shift = top - max(c for p in pts for c in p)
    return Scene([(x + shift, y + shift) for x, y in pts], scene.obstacles)


def test_same_codes_and_graphs_across_the_int64_guard():
    # Seed 9 has two split corners and nine pairs inside their wedges.
    base = generate(GeneratorConfig(n_points=20, n_obstacles=3, obstacle_size=5, extent=1000, seed=9))
    results = []
    for top, dtype in ((INT64_GUARD - 1, np.int64), (INT64_GUARD, object)):
        scene = _at_top(base, top)
        assert max(abs(c) for p in scene.ipoints for c in p) == top
        graphs = build_all(scene)[0]
        index = graphs["ginf"].index
        assert scene.exact_points().dtype == dtype
        assert (index.classification.codes == cones.IN_WEDGE).sum() == 9
        results.append((index.classification.codes, [graphs[g].edges for g in ("ginf", "g15", "g10", "g7")]))
    (codes_a, graphs_a), (codes_b, graphs_b) = results
    assert np.array_equal(codes_a, codes_b)
    assert graphs_a == graphs_b


def test_generated_scenes_take_the_int64_path():
    # The default extent, 10^6, is far below the guard: a silent switch
    # to Python-int arrays would show only as a slower benchmark.
    for cfg in configs()[::10]:
        scene = generate(cfg)
        assert scene.exact_points().dtype == np.int64
        assert scene.obstacle_wedges()[1].dtype == np.int64


def _count_chain_work(monkeypatch):
    """Calls of the four once-per-index builds and of the once-per-scene
    general-position check, by name, with the scene each was asked for."""
    calls = {name: [] for name in ("classify", "sequences", "paths", "charges", "general_position")}
    for module, attr, name in (
        (cones, "classify", "classify"),
        (spanners, "_sequence_table", "sequences"),
        (spanners, "_path_table", "paths"),
        (spanners, "_charge_table", "charges"),
        (scene_module, "check_general_position", "general_position"),
    ):
        real = getattr(module, attr)

        def probe(sc, *args, real=real, name=name):
            calls[name].append(sc)
            return real(sc, *args)

        monkeypatch.setattr(module, attr, probe)
    return calls


def _readme_chain(scene):
    vis = visibility_graph(scene)
    ginf = build_g_infinity(scene, vis)
    g15 = build_g15(scene, ginf)
    g10 = build_g10(scene, ginf)
    return ginf, g15, g10, build_g7(scene, ginf, g10)


@pytest.mark.parametrize("fixture", ["split_cones.json", "g7_structural.json"])
def test_steps_called_alone_share_the_index_of_their_ginf(monkeypatch, fixture):
    # The README's chain classifies, builds the sequence and path-charge
    # tables and checks general position once, and never builds the
    # charge table; the three later steps read the index their ginf
    # carries.
    scene = load_scene(fixture)
    calls = _count_chain_work(monkeypatch)
    ginf, *later = _readme_chain(scene)
    assert {name: len(scenes) for name, scenes in calls.items()} == dict.fromkeys(calls, 1) | {"charges": 0}
    assert ginf.index.scene is scene
    assert all(g.index is None for g in later)
    assert [g.edges for g in later] == [build_all(scene)[0][name].edges for name in ("g15", "g10", "g7")]


def test_a_second_chain_classifies_again(monkeypatch):
    # No index is kept on the scene or at module level: the index lives
    # as long as its ginf, so a second chain classifies and builds its
    # tables again. Only the general-position report is the scene's own.
    scene = load_scene("split_cones.json")
    calls = _count_chain_work(monkeypatch)
    first = _readme_chain(scene)
    second = _readme_chain(scene)
    assert first == second
    assert first[0].index is not second[0].index
    assert {name: len(scenes) for name, scenes in calls.items()} == dict.fromkeys(calls, 2) | {
        "charges": 0,
        "general_position": 1,
    }


def test_a_scene_makes_its_arrays_and_report_once(monkeypatch):
    # From generate through the README's chain, build_all and
    # run_verification, every reader shares one exact-point array, one
    # wedge build and one library general-position report; only the
    # oracle checks again, on its own. The arrays are read-only.
    returned = {"exact_points": [], "obstacle_wedges": []}
    for name, kept in returned.items():
        real = getattr(Scene, name)

        def probe(self, real=real, kept=kept):
            kept.append(real(self))
            return kept[-1]

        monkeypatch.setattr(Scene, name, probe)
    calls = _count_general_position(monkeypatch)
    scene = generate(GeneratorConfig(42, 5, obstacle_size=8, seed=1))
    _readme_chain(scene)
    build_all(scene)
    assert all(o.ok for o in run_verification(scene))
    for kept in returned.values():
        assert len(kept) > 1 and all(x is kept[0] for x in kept)
    assert calls == {"polyspanner.scene": 1, "polyspanner.verify": 1}
    xy, (corner, wedges) = scene.exact_points(), scene.obstacle_wedges()
    assert xy.dtype == wedges.dtype == np.int64
    for array in (xy, corner, wedges):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("fixture", ["split_cones.json", "g7_structural.json"])
@pytest.mark.parametrize("entry", ["build_all", "cli-build-g7"])
def test_builds_never_make_the_charge_table(monkeypatch, tmp_path, fixture, entry):
    # As for the README's chain above, g7 reads the path charges, built
    # once, and never the charge table; the graph is the one build_all
    # gives.
    scene = load_scene(fixture)
    want = build_all(scene)[0]["g7"]
    calls = _count_chain_work(monkeypatch)
    if entry == "build_all":
        got = build_all(scene)[0]["g7"]
    else:
        instance, out = tmp_path / "scene.json", tmp_path / "g7.edges"
        instance.write_text(write_instance(scene))
        assert cli.main(["build", "--graph", "g7", "--in", str(instance), "--out", str(out)]) == 0
        got = parse_edge_list(out.read_text())
    assert got == want
    assert len(calls["sequences"]) == len(calls["paths"]) == 1
    assert calls["charges"] == []


def test_a_ginf_of_another_scene_gets_a_fresh_index(monkeypatch):
    # A translated copy has the same n and the same graphs, but the
    # ginf built on the original carries the original's index: the
    # steps on the copy make their own instead of raising.
    scene = load_scene("g7_structural.json")
    moved = Scene([(x + 7, y - 3) for x, y in scene.vertices], scene.obstacles)
    ginf = build_g_infinity(scene, visibility_graph(scene))
    fresh = _readme_chain(moved)
    calls = _count_chain_work(monkeypatch)
    g15 = build_g15(moved, ginf)
    g10 = build_g10(moved, ginf)
    g7 = build_g7(moved, ginf, g10)
    assert (g15, g10, g7) == fresh[1:]
    assert calls["classify"] == [moved] * 3
    assert ginf.index.scene is scene


def test_graphs_built_elsewhere_carry_no_index():
    scene = load_scene("split_cones.json")
    vis = visibility_graph(scene)
    ginf = build_g_infinity(scene, vis)
    assert vis.index is None and ginf.index is not None
    assert Graph(scene.n, ginf.edges).index is None
    assert parse_edge_list(write_edge_list(ginf)).index is None


def test_the_carried_index_is_not_part_of_equality():
    scene = load_scene("split_cones.json")
    vis = visibility_graph(scene)
    graphs = [
        build_g_infinity(scene, vis),
        build_g_infinity(scene, visibility_graph(scene)),
        Graph(scene.n, build_g_infinity(scene, vis).edges),
    ]
    assert graphs[0].index is not graphs[1].index and graphs[2].index is None
    assert graphs[0] == graphs[1] == graphs[2]
    assert len({hash(g) for g in graphs}) == 1
    assert len(set(graphs)) == 1


@pytest.mark.parametrize("fixture", ["split_cones.json", "g7_structural.json"])
def test_array_readers_ask_subcone_of_once_per_subcone(monkeypatch, fixture):
    # On an honest run the per-edge bound reads all of vis's codes in
    # one gather and asks subcone_of nothing; the sequence table keys
    # each nonempty negative subcone by the code its run already
    # gathered, so it asks nothing either.
    scene = load_scene(fixture)
    within = [None]
    asked, ran = Counter(), Counter()
    tables = []
    real_ask = ConeIndex.subcone_of

    def ask(self, apex, p):
        asked[within[-1]] += 1
        return real_ask(self, apex, p)

    def counted(name, real):
        def run(*args):
            ran[name] += 1
            within.append(name)
            try:
                result = real(*args)
            finally:
                within.pop()
            if name == "sequences":
                tables.append(result)
            return result

        return run

    monkeypatch.setattr(ConeIndex, "subcone_of", ask)
    monkeypatch.setattr(spanners, "_sequence_table", counted("sequences", spanners._sequence_table))
    monkeypatch.setattr(verify, "check_per_edge_bound_ginf", counted("per-edge", verify.check_per_edge_bound_ginf))
    assert all(o.ok for o in run_verification(scene))
    (table,) = tables
    assert len(table) > 0
    assert asked["sequences"] == 0
    assert ran == {"sequences": 1, "per-edge": 1}
    assert asked["per-edge"] == 0
