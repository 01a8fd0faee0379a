"""Cone spanners of the visibility graph and their degree-bounded
thinnings.

Construction chain:

* ``build_g_infinity``: per vertex and per positive subcone, keep one
  edge to the visible vertex whose projection on the cone bisector is
  smallest. Plane 2-spanner of the visibility graph.
* ``build_g15``: per negative subcone keep only the clockwise extreme,
  the counterclockwise extreme, and the projection-closest edge.
  Degree at most 15.
* ``build_g10``: per negative subcone keep the closest edge plus the
  path joining angularly consecutive neighbors (the canonical path).
  Degree at most 10.
* ``build_g7``: rewires vertices whose positive cone is paid for twice
  by the same canonical path. Degree at most 7.

Every edge of the first graph lies in a positive cone of exactly one
endpoint and a negative cone of the other, so "per negative subcone"
decisions cover each edge exactly once.

``canonical_sequences`` builds those per-subcone facts in one pass: the
ccw-ordered ginf neighbors of every nonempty negative subcone, its
closest member and its consecutive pairs. The degree-15, degree-10 and
degree-7 steps, the charge tables and the structural checks in
``verify`` all read that table. ``path_charges`` states the C/D rule
once: the charges of each sequence's canonical-path edges.
``g7_transform`` fills a private ledger with only their scenario-C
charges, which land in positive subcones and decide a rewiring, so no
build makes the whole charge table. ``compute_charges`` makes it, the
charges of each g10 edge by paying subcone, for ``verify``'s charge
checks: each sequence's A and B charges of its closest edge, then its
path charges.
``pipeline`` is the one spelling of the chain's order: it builds the
graphs lazily, so the CLI stops at the graph it was asked for.
``build_all`` runs it to the end and returns all five graphs, which
``verify`` uses.

Every per-pair cone fact comes from the run's ``cones.ConeIndex``,
which classifies all ordered pairs of the scene in one array pass.
``build_g_infinity`` (vis's edges, positive subcones) and
``canonical_sequences`` (ginf's edges, negative subcones) share one
grouping, ``_subcone_runs``, which reads the codes of a graph's
``Graph.pairs`` in both directions in one ``ConeIndex.codes`` gather
and orders the runs by ``cones.CODE_RUN_ORDER``; ``build_g_infinity``
hands the codes to ``cones.key_bounds`` and ``canonical_sequences``
keys each run by ``cones.subcone_ref`` of its code. Neither unpacks a
code: only ``cones`` knows their layout. The charge tables and
``g7_transform`` ask ``subcone_of`` for single pairs. The three tables
are built once per ginf edge set on the index, kept by the bytes of
its ``pair_keys``, and shared read-only, so ``canonical_sequences``,
``path_charges``, ``compute_charges`` and ``g7_transform`` take the
index as a required argument. The index enters the chain at
``build_g_infinity``, the first step that reads a cone: it makes the
run's index and returns a ginf that carries it as ``Graph.index``.
``build_g15``, ``build_g10`` and ``build_g7`` read it from their ginf
by one rule, ``_index_of``, which makes a fresh index only for a ginf
that carries none or one of another scene. So a chain of steps called
alone classifies the scene and builds each table once, and the index
lives exactly as long as its ginf. General position and the exact
arrays belong to the scene (``Scene.general_position``,
``Scene.exact_points``), so vis and ginf share them with no plumbing.
Every step makes its graph with ``Graph.from_keys``: no build makes a
graph's ``edges`` frozenset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .cones import (
    CODE_POSITIVE,
    CODE_RUN_ORDER,
    ConeIndex,
    ConeLabel,
    GeneralPositionError,
    SIDE_LEFT,
    SIDE_RIGHT,
    SIDE_WHOLE,
    SubconeRef,
    ccw_sorted,
    key_bounds,
    key_compare,
    subcone_ref,
)
from .scene import Scene
from .visibility import Graph, visibility_graph


def _edge(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


def _key(n: int, u: int, v: int) -> int:
    return u * n + v if u < v else v * n + u


def _closest(scene: Scene, apex: int, label: ConeLabel, members) -> int:
    pts = scene.ipoints
    ax, ay = pts[apex]
    best = None
    best_d = None
    for v in members:
        vx, vy = pts[v]
        d = (vx - ax, vy - ay)
        if best is None or key_compare(label, d, best_d) < 0:
            best = v
            best_d = d
    return best


def _subcone_runs(index: ConeIndex, g: Graph, positive: bool):
    """g's ``pairs`` in both directions (a, b) whose b lies in a subcone
    of a of the given sign, as arrays a, b and their codes, sorted by
    apex, cone, side (right before left) and member, with ``first``
    marking the start of each subcone's run. Raises as
    ``ConeIndex.codes`` for the least pair that cannot classify."""
    u, v = g.pairs()
    a, b = np.concatenate((u, v)), np.concatenate((v, u))
    code = index.codes(a, b)
    keep = CODE_POSITIVE[code] == positive
    a, b, code = a[keep], b[keep], code[keep]
    order = np.lexsort((b, CODE_RUN_ORDER[code], a))
    a, b, code = a[order], b[order], code[order]
    first = np.ones(a.size, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (code[1:] != code[:-1])
    return a, b, code, first


def _index_of(scene: Scene, ginf: Graph) -> ConeIndex:
    """The index that ginf carries, or a fresh one of scene when ginf
    carries none or one of another scene."""
    index = ginf.index
    return index if index is not None and index.scene is scene else ConeIndex(scene)


def build_g_infinity(scene: Scene, vis: Graph) -> Graph:
    """One edge per nonempty positive subcone, to the visible vertex
    with the smallest bisector projection. Refuses a scene outside
    general position, as ``Scene.general_position`` reports it. Makes
    the run's ``ConeIndex``; the graph returned carries it as
    ``Graph.index``, for the later steps.

    vis's edges are grouped by positive subcone with ``_subcone_runs``.
    Within a group only the members whose lower key bound reaches the
    group's least upper bound can be closest; a group left with several
    settles them by ``key_compare``, in vertex order. The winners' pair
    keys become ginf through ``Graph.from_keys``: a vis pair lies in a
    positive subcone of exactly one of its ends, so no pair is won
    twice."""
    report = scene.general_position()
    if not report.ok:
        raise GeneralPositionError(
            f"scene is not in general position: "
            f"{report.parallel_count} boundary-parallel pair(s), "
            f"{report.collinear_count} collinear triple(s)"
        )
    index = ConeIndex(scene)
    xy = scene.exact_points()
    a, b, code, first = _subcone_runs(index, vis, True)
    lo, hi = key_bounds(code, xy[b, 0] - xy[a, 0], xy[b, 1] - xy[a, 1])
    start, group = np.flatnonzero(first), np.cumsum(first) - 1
    alive = np.flatnonzero(lo <= np.minimum.reduceat(hi, start)[group])
    single = np.bincount(group[alive], minlength=start.size)[group[alive]] == 1
    contested: dict = {}
    for u, v in zip(a[alive[~single]].tolist(), b[alive[~single]].tolist()):
        contested.setdefault(index.subcone_of(u, v), []).append(v)
    won = np.array(
        [(ref.apex, _closest(scene, ref.apex, ref.label, m)) for ref, m in contested.items()],
        dtype=np.intp,
    ).reshape(-1, 2)
    u = np.concatenate((a[alive[single]], won[:, 0]))
    v = np.concatenate((b[alive[single]], won[:, 1]))
    ginf = Graph.from_keys(scene.n, np.minimum(u, v) * scene.n + np.maximum(u, v))
    ginf.index = index
    return ginf


class CanonicalSequence(NamedTuple):
    """Neighbors of the apex inside one negative subcone, in
    counterclockwise order around the apex, the member with the
    smallest bisector projection, and each member with its successor,
    as the table builder makes them."""

    apex: int
    subcone: SubconeRef
    vertices: tuple
    closest: int
    consecutive_pairs: tuple


def _memo(memo: dict, build, scene: Scene, ginf: Graph, index: ConeIndex) -> Mapping:
    """The read-only table that build makes of ginf, kept in memo by the
    bytes of ginf's ``pair_keys`` on its first ask; a build that raises
    is not kept."""
    key = ginf.pair_keys().tobytes()
    table = memo.get(key)
    if table is None:
        table = memo[key] = MappingProxyType(build(scene, ginf, index))
    return table


def canonical_sequences(
    scene: Scene, ginf: Graph, index: ConeIndex
) -> Mapping[SubconeRef, CanonicalSequence]:
    """The canonical sequence of every nonempty negative subcone of
    ginf, keyed by subcone in ``_subcone_runs`` order: apexes in index
    order, each apex's subcones by cone, a split cone's right side before
    its left. Built once per ginf edge set and index, then shared
    read-only."""
    return _memo(index.tables, _sequence_table, scene, ginf, index)


def _sequence_table(scene: Scene, ginf: Graph, index: ConeIndex) -> dict:
    a, b, code, first = _subcone_runs(index, ginf, False)
    starts = np.flatnonzero(first).tolist()
    a, b, code = a.tolist(), b.tolist(), code.tolist()
    table = {}
    for i, j in zip(starts, starts[1:] + [len(b)]):
        apex = a[i]
        ref = subcone_ref(apex, code[i])
        if j - i == 1:
            seq = CanonicalSequence(apex, ref, (b[i],), b[i], ())
        else:
            members = tuple(ccw_sorted(scene, apex, b[i:j]))
            closest = _closest(scene, apex, ref.label, members)
            seq = CanonicalSequence(apex, ref, members, closest, tuple(zip(members, members[1:])))
        table[ref] = seq
    return table


def build_g15(scene: Scene, ginf: Graph) -> Graph:
    """Keep the two angular extremes and the projection-closest edge of
    every negative subcone."""
    n, keys = scene.n, []
    for seq in canonical_sequences(scene, ginf, _index_of(scene, ginf)).values():
        for v in (seq.vertices[0], seq.vertices[-1], seq.closest):
            keys.append(_key(n, seq.apex, v))
    return Graph.from_keys(n, keys)


def build_g10(scene: Scene, ginf: Graph) -> Graph:
    """Keep the closest edge of every negative subcone plus the
    canonical path joining consecutive sequence members."""
    n, keys = scene.n, []
    for seq in canonical_sequences(scene, ginf, _index_of(scene, ginf)).values():
        keys.append(_key(n, seq.apex, seq.closest))
        for p, q in seq.consecutive_pairs:
            keys.append(_key(n, p, q))
    return Graph.from_keys(n, keys)


# --- the charge table --------------------------------------------------------


@dataclass(frozen=True)
class Charge:
    """One unit charged to a subcone for one graph edge.

    Scenarios: A/B are the two endpoint charges of a closest edge (A at
    the positive end, B at the negative end); C/D are the endpoint
    charges of a canonical-path edge (C lands in the positive cone that
    contains the path owner, D in an empty negative cone). owner_subcone
    identifies the canonical sequence that created the charge; its apex
    is the path owner.
    """

    edge: tuple
    scenario: str
    owner_subcone: SubconeRef


def _positive_subcone_containing(index: ConeIndex, apex: int, v: int) -> SubconeRef:
    ref = index.subcone_of(apex, v)
    if not ref.label.positive:
        raise ValueError(f"vertex {v} is not in a positive cone of {apex}")
    return ref


def _scenario_d_target(index: ConeIndex, vertex: int, cone: int, side_hint: str) -> SubconeRef:
    """Negative cone paying for a scenario-D charge. The geometry keeps
    this cone unsplit; if an obstacle splits it anyway, charge the side
    adjacent to the canonical path's positive cone."""
    label = ConeLabel(False, cone)
    if index.split_label(vertex) == label:
        return SubconeRef(vertex, label, side_hint)
    return SubconeRef(vertex, label, SIDE_WHOLE)


def path_charges(
    scene: Scene, ginf: Graph, index: ConeIndex
) -> Mapping[SubconeRef, tuple]:
    """The path charges of ginf: each canonical sequence with a path
    (two members or more), by its subcone, to the (paying subcone,
    charge) pairs of its path edges, edge by edge, p's end before q's.
    Built once per ginf edge set and index, then shared read-only; a
    build that raises ValueError is not kept.

    This is the one statement of the C/D rule. A canonical-path edge
    lies in a negative cone of one endpoint (scenario C, charged to the
    positive subcone containing the owner) and a positive cone of the
    other (scenario D, charged to the adjacent empty negative cone).
    """
    return _memo(index.paths, _path_table, scene, ginf, index)


def _path_table(scene: Scene, ginf: Graph, index: ConeIndex) -> dict:
    table = {}
    for owner, seq in canonical_sequences(scene, ginf, index).items():
        if not seq.consecutive_pairs:
            continue
        u, j = seq.apex, owner.label.index
        ccw, cw = (j + 1) % 3, (j - 1) % 3
        pairs = []
        for p, q in seq.consecutive_pairs:
            e = _edge(p, q)
            # Each end a looks at the other end b: from p toward its ccw
            # successor q, then from q toward its cw predecessor p. An
            # edge in a negative cone of a is scenario C at a; otherwise
            # a pays scenario D to its negative cone on the path's side.
            for a, b, cone, side in ((p, q, ccw, SIDE_LEFT), (q, p, cw, SIDE_RIGHT)):
                if index.subcone_of(a, b).label.positive:
                    pairs.append((_scenario_d_target(index, a, cone, side), Charge(e, "D", owner)))
                else:
                    pairs.append((_positive_subcone_containing(index, a, u), Charge(e, "C", owner)))
        table[owner] = tuple(pairs)
    return table


def compute_charges(
    scene: Scene, ginf: Graph, index: ConeIndex
) -> Mapping[SubconeRef, tuple]:
    """The charge table of ginf: each paying subcone to the tuple of
    its charges, for every edge of g10, the degree-10 graph of ginf.
    Built once per ginf edge set and index, then shared read-only; a
    build that raises ValueError is not kept. No build step reads it:
    ``g7_transform`` reads ``path_charges`` only, so it is made where
    ``verify``'s charge checks ask for it.

    Each sequence adds, in turn, scenario B at its owner and scenario A
    at its closest vertex for the closest edge, then its path charges
    from ``path_charges``.
    """
    return _memo(index.charges, _charge_table, scene, ginf, index)


def _charge_table(scene: Scene, ginf: Graph, index: ConeIndex) -> dict:
    paths = path_charges(scene, ginf, index)
    charges: dict[SubconeRef, list] = {}
    for owner, seq in canonical_sequences(scene, ginf, index).items():
        e = _edge(seq.apex, seq.closest)
        closest = (
            (owner, Charge(e, "B", owner)),
            (_positive_subcone_containing(index, seq.closest, seq.apex), Charge(e, "A", owner)),
        )
        for ref, charge in closest + paths.get(owner, ()):
            charges.setdefault(ref, []).append(charge)
    return {ref: tuple(cs) for ref, cs in charges.items()}


# --- the degree-7 transformation ---------------------------------------------


@dataclass(frozen=True)
class Transformation:
    """Record of one double-charge resolution at vertex v.

    x and y are the path neighbors of v (x on the side of the path
    owner's closest vertex; the owner is owner_subcone's apex). absorbed
    means only bookkeeping changed; otherwise edge (v, y) was removed,
    (x, y) added, and possibly (x, w) removed as well.
    """

    owner_subcone: SubconeRef
    v: int
    x: int
    y: int
    absorbed: bool
    removed_vy: Optional[tuple] = None
    added_xy: Optional[tuple] = None
    removed_xw: Optional[tuple] = None
    uncharged_xw: Optional[tuple] = None


@dataclass(frozen=True)
class G7Result:
    graph: Graph
    transformations: tuple


def g7_transform(
    scene: Scene, ginf: Graph, g10: Graph, index: ConeIndex
) -> G7Result:
    """Resolve every positive subcone charged twice by one canonical
    path, scanning vertices in index order. Only scenario-C charges,
    which land in positive subcones, decide a resolution, so a private
    ledger keeps just those of ``path_charges``, per subcone, in the
    charge table's order, and stays current after each application;
    the shared tables are left as built, and the charge table is not
    built."""
    ledger: dict[SubconeRef, list] = {}
    for pairs in path_charges(scene, ginf, index).values():
        for ref, c in pairs:
            if c.scenario == "C":
                ledger.setdefault(ref, []).append(c)
    table = canonical_sequences(scene, ginf, index)

    def drop_edge(edge: tuple) -> None:
        for cs in ledger.values():
            cs[:] = [c for c in cs if c.edge != edge]

    def closest_in_own_subcone(apex: int, member: int) -> bool:
        seq = table.get(index.subcone_of(apex, member))
        return seq is not None and seq.closest == member

    n, edges = scene.n, set(g10.pair_keys().tolist())
    transcript = []

    candidates = []
    for ref in sorted(ledger):
        owners = [c.owner_subcone for c in ledger[ref]]
        candidates += [(ref, owner) for owner in sorted(set(owners)) if owners.count(owner) == 2]

    for ref, owner_sub in candidates:
        current = [c for c in ledger[ref] if c.owner_subcone == owner_sub]
        if len(current) != 2:
            continue  # an earlier application already resolved this cone
        v = ref.apex
        seq = table[owner_sub]
        order = seq.vertices
        i = order.index(v)
        # Both charged edges are the path edges at v; x sits on the same
        # side of v as the owner's closest vertex.
        if order.index(seq.closest) < i:
            x, y = order[i - 1], order[i + 1]
        else:
            x, y = order[i + 1], order[i - 1]

        charge_vx = next((c for c in current if c.edge == _edge(v, x)), None)
        charge_vy = next((c for c in current if c.edge == _edge(v, y)), None)
        if charge_vx is None or charge_vy is None:
            continue  # an overlapping application already rewired one edge

        if closest_in_own_subcone(v, x):
            ledger[ref].remove(charge_vx)
            transcript.append(Transformation(owner_sub, v, x, y, absorbed=True))
            continue
        if closest_in_own_subcone(v, y):
            ledger[ref].remove(charge_vy)
            transcript.append(Transformation(owner_sub, v, x, y, absorbed=True))
            continue

        # Structural step: (v, y) goes away, (x, y) arrives. Its charges
        # at v go; those at y move to (x, y), placed after y's other
        # charges, since ``freed`` below takes the first match.
        e_vy = _edge(v, y)
        e_xy = _edge(x, y)
        for r, cs in ledger.items():
            moved = [replace(c, edge=e_xy) for c in cs if c.edge == e_vy and r.apex == y]
            cs[:] = [c for c in cs if c.edge != e_vy] + moved
        edges.discard(_key(n, v, y))
        edges.add(_key(n, x, y))

        # At x the new edge takes over the slot of (x, w) when that edge
        # is redundant or removable; w is x's neighbor on the canonical
        # path of v through x's subcone.
        removed_xw = None
        uncharged_xw = None
        sub_x = index.subcone_of(v, x)
        vseq = table[sub_x].vertices
        xi = vseq.index(x)
        w = None
        if len(vseq) > 1:
            if xi == 0:
                w = vseq[1]
            elif xi == len(vseq) - 1:
                w = vseq[-2]
            else:
                # The path structure makes x an endpoint; stay total if
                # an unexpected interior position shows up.
                w = vseq[xi + 1]
        slot = _positive_subcone_containing(index, x, v)
        if w is not None:
            lab_w = index.subcone_of(x, w).label
            if lab_w == ConeLabel(False, ref.label.index):
                e_xw = _edge(x, w)
                if closest_in_own_subcone(x, w):
                    # (x, w) was double counted at x; free its path charge.
                    freed = next((c for c in ledger.get(slot, ()) if c.edge == e_xw), None)
                    if freed is not None:
                        ledger[slot].remove(freed)
                        uncharged_xw = e_xw
                else:
                    drop_edge(e_xw)
                    edges.discard(_key(n, x, w))
                    removed_xw = e_xw
        ledger.setdefault(slot, []).append(Charge(e_xy, "C", sub_x))
        transcript.append(
            Transformation(
                owner_sub,
                v,
                x,
                y,
                absorbed=False,
                removed_vy=e_vy,
                added_xy=e_xy,
                removed_xw=removed_xw,
                uncharged_xw=uncharged_xw,
            )
        )

    return G7Result(Graph.from_keys(n, list(edges)), tuple(transcript))


def build_g7(scene: Scene, ginf: Graph, g10: Graph) -> Graph:
    return g7_transform(scene, ginf, g10, _index_of(scene, ginf)).graph


GRAPH_NAMES = ("vis", "ginf", "g15", "g10", "g7")


def pipeline(scene: Scene):
    """The chain in order, lazily, each step built from the one before:
    (name, graph) for vis, ginf, g15 and g10, then ("g7", G7Result).
    A caller that stops early builds nothing past its graph; vis comes
    before the general-position check of ``build_g_infinity``, and
    reads the scene's report for its ray test. ``build_g_infinity``
    makes the run's index and the later steps read it from the ginf it
    returns."""
    vis = visibility_graph(scene)
    yield "vis", vis
    ginf = build_g_infinity(scene, vis)
    yield "ginf", ginf
    yield "g15", build_g15(scene, ginf)
    g10 = build_g10(scene, ginf)
    yield "g10", g10
    yield "g7", g7_transform(scene, ginf, g10, ginf.index)


def build_all(scene: Scene):
    """The five graphs of the pipeline, by name, plus the g7
    transformation log; ``graphs["ginf"].index`` is the run's index."""
    graphs = dict(pipeline(scene))
    g7res = graphs["g7"]
    graphs["g7"] = g7res.graph
    return graphs, g7res
