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
ccw-ordered ginf neighbors of every nonempty negative subcone and its
closest member. The degree-15, degree-10 and degree-7 steps, the charge
table and the structural checks in ``verify`` all read that table.
``compute_charges`` turns it into the charge table, the charges of each
g10 edge by paying subcone; ``g7_transform`` rewires a private copy.
``pipeline`` is the one spelling of the chain's order: it builds the
graphs lazily, so the CLI stops at the graph it was asked for.
``build_all`` runs it to the end and returns all five graphs, which
``verify`` uses.

Every per-pair cone fact comes from the run's ``cones.ConeIndex``,
which classifies all ordered pairs of the scene in one array pass.
``build_g_infinity`` (vis's edges, positive subcones) and
``canonical_sequences`` (ginf's edges, negative subcones) share one
grouping, ``_subcone_runs``, which reads the codes of a graph's
``Graph.pairs`` in both directions in one ``ConeIndex.codes`` gather;
the charge table and ``g7_transform`` ask ``subcone_of`` for single pairs. Both tables
are built once per ginf edge set on the index and shared read-only, so
``canonical_sequences``, ``compute_charges`` and ``g7_transform`` take
the index as a required argument. ``build_g_infinity`` takes an
optional one, makes its own without it, and returns a ginf that carries
it as ``Graph.index``; ``build_g15``, ``build_g10`` and ``build_g7``
read the index from their ginf, and make a fresh one only for a ginf
that carries none or one of another scene. So a chain of steps called alone classifies the scene,
builds each table and decides general position once, and the index
lives exactly as long as its ginf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .cones import (
    CODE_CONE,
    CODE_POSITIVE,
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
)
from .scene import Scene
from .visibility import Graph, visibility_graph


def _edge(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


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
    order = np.lexsort((b, 3 * CODE_CONE[code] + code % 3, a))
    a, b, code = a[order], b[order], code[order]
    first = np.ones(a.size, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (code[1:] != code[:-1])
    return a, b, code, first


def build_g_infinity(
    scene: Scene, vis: Graph, index: Optional[ConeIndex] = None
) -> Graph:
    """One edge per nonempty positive subcone, to the visible vertex
    with the smallest bisector projection. Refuses a scene outside
    general position, as the index reports it. The graph returned
    carries the index as ``Graph.index``, for the later steps.

    vis's edges are grouped by positive subcone with ``_subcone_runs``.
    Within a group only the members whose lower key bound reaches the
    group's least upper bound can be closest; a group left with several
    settles them by ``key_compare``, in vertex order."""
    index = ConeIndex.of(scene, index)
    report = index.general_position()
    if not report.ok:
        raise GeneralPositionError(
            f"scene is not in general position: "
            f"{report.parallel_count} boundary-parallel pair(s), "
            f"{report.collinear_count} collinear triple(s)"
        )
    xy = index.classification.xy
    a, b, code, first = _subcone_runs(index, vis, True)
    lo, hi = key_bounds(code // 3, xy[b, 0] - xy[a, 0], xy[b, 1] - xy[a, 1])
    start, group = np.flatnonzero(first), np.cumsum(first) - 1
    alive = np.flatnonzero(lo <= np.minimum.reduceat(hi, start)[group])
    single = np.bincount(group[alive], minlength=start.size)[group[alive]] == 1
    edges = list(zip(a[alive[single]].tolist(), b[alive[single]].tolist()))
    contested: dict = {}
    for u, v in zip(a[alive[~single]].tolist(), b[alive[~single]].tolist()):
        contested.setdefault(index.subcone_of(u, v), []).append(v)
    for ref, members in contested.items():
        edges.append((ref.apex, _closest(scene, ref.apex, ref.label, members)))
    ginf = Graph(scene.n, edges)
    ginf.index = index
    return ginf


def _index_of(scene: Scene, ginf: Graph) -> ConeIndex:
    """The index that built ginf, or a fresh one of scene when ginf
    carries none or one of another scene."""
    index = ginf.index
    return index if index is not None and index.scene is scene else ConeIndex(scene)


@dataclass(frozen=True)
class CanonicalSequence:
    """Neighbors of the apex inside one negative subcone, in
    counterclockwise order around the apex, and the member with the
    smallest bisector projection. ``consecutive_pairs`` holds each
    member with its successor, built once with the sequence."""

    apex: int
    subcone: SubconeRef
    vertices: tuple
    closest: int
    consecutive_pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "consecutive_pairs", tuple(zip(self.vertices, self.vertices[1:])))


def canonical_sequences(
    scene: Scene, ginf: Graph, index: ConeIndex
) -> Mapping[SubconeRef, CanonicalSequence]:
    """The canonical sequence of every nonempty negative subcone of
    ginf, keyed by subcone in ``_subcone_runs`` order: apexes in index
    order, each apex's subcones by cone, a split cone's right side before
    its left. Built once per ginf edge set and index, then shared
    read-only."""
    table = index.tables.get(ginf.edges)
    if table is None:
        table = MappingProxyType(_sequence_table(scene, ginf, index))
        index.tables[ginf.edges] = table
    return table


def _sequence_table(scene: Scene, ginf: Graph, index: ConeIndex) -> dict:
    a, b, _, first = _subcone_runs(index, ginf, False)
    starts = np.flatnonzero(first).tolist()
    a, b = a.tolist(), b.tolist()
    table = {}
    for i, j in zip(starts, starts[1:] + [len(b)]):
        apex, members = a[i], b[i:j]
        ref = index.subcone_of(apex, members[0])
        if len(members) == 1:
            closest = members[0]
        else:
            members = ccw_sorted(scene, apex, members)
            closest = _closest(scene, apex, ref.label, members)
        table[ref] = CanonicalSequence(apex, ref, tuple(members), closest)
    return table


def build_g15(scene: Scene, ginf: Graph) -> Graph:
    """Keep the two angular extremes and the projection-closest edge of
    every negative subcone."""
    edges = set()
    for seq in canonical_sequences(scene, ginf, _index_of(scene, ginf)).values():
        for v in (seq.vertices[0], seq.vertices[-1], seq.closest):
            edges.add(_edge(seq.apex, v))
    return Graph(scene.n, edges)


def build_g10(scene: Scene, ginf: Graph) -> Graph:
    """Keep the closest edge of every negative subcone plus the
    canonical path joining consecutive sequence members."""
    edges = set()
    for seq in canonical_sequences(scene, ginf, _index_of(scene, ginf)).values():
        edges.add(_edge(seq.apex, seq.closest))
        for p, q in seq.consecutive_pairs:
            edges.add(_edge(p, q))
    return Graph(scene.n, edges)


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


def compute_charges(
    scene: Scene, ginf: Graph, index: ConeIndex
) -> Mapping[SubconeRef, tuple]:
    """The charge table of ginf: each paying subcone to the tuple of
    its charges, for every edge of g10, the degree-10 graph of ginf.
    Built once per ginf edge set and index, then shared read-only; a
    build that raises ValueError is not kept.

    Closest edges pay scenario B at the sequence owner and scenario A at
    the chosen vertex. A canonical-path edge lies in a negative cone of
    one endpoint (scenario C, charged to the positive subcone containing
    the owner) and a positive cone of the other (scenario D, charged to
    the adjacent empty negative cone).
    """
    table = index.charges.get(ginf.edges)
    if table is None:
        table = MappingProxyType(_charge_table(scene, ginf, index))
        index.charges[ginf.edges] = table
    return table


def _charge_table(scene: Scene, ginf: Graph, index: ConeIndex) -> dict:
    charges: dict[SubconeRef, list] = {}

    def add(ref: SubconeRef, charge: Charge) -> None:
        charges.setdefault(ref, []).append(charge)

    for seq in canonical_sequences(scene, ginf, index).values():
        u = seq.apex
        j = seq.subcone.label.index
        e = _edge(u, seq.closest)
        add(seq.subcone, Charge(e, "B", seq.subcone))
        add(
            _positive_subcone_containing(index, seq.closest, u),
            Charge(e, "A", seq.subcone),
        )
        for p, q in seq.consecutive_pairs:
            e = _edge(p, q)
            # Looking from p toward its ccw successor q.
            lab_pq = index.subcone_of(p, q).label
            if not lab_pq.positive:
                # scenario C at p; the edge sits in the negative cone
                # adjacent (ccw) to the cone containing u.
                add(
                    _positive_subcone_containing(index, p, u),
                    Charge(e, "C", seq.subcone),
                )
            else:
                add(
                    _scenario_d_target(index, p, (j + 1) % 3, SIDE_LEFT),
                    Charge(e, "D", seq.subcone),
                )
            # Looking from q toward its cw predecessor p.
            lab_qp = index.subcone_of(q, p).label
            if not lab_qp.positive:
                add(
                    _positive_subcone_containing(index, q, u),
                    Charge(e, "C", seq.subcone),
                )
            else:
                add(
                    _scenario_d_target(index, q, (j - 1) % 3, SIDE_RIGHT),
                    Charge(e, "D", seq.subcone),
                )
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
    path, scanning vertices in index order and keeping a private copy
    of the charge table current after each application; the shared
    table is left as built."""
    charges = {
        ref: list(cs) for ref, cs in compute_charges(scene, ginf, index).items()
    }
    table = canonical_sequences(scene, ginf, index)

    def drop_edge(edge: tuple) -> None:
        for cs in charges.values():
            cs[:] = [c for c in cs if c.edge != edge]

    def closest_in_own_subcone(apex: int, member: int) -> bool:
        seq = table.get(index.subcone_of(apex, member))
        return seq is not None and seq.closest == member

    edges = set(g10.edges)
    transcript = []

    candidates = []
    for ref in sorted(charges):
        if not ref.label.positive:
            continue
        groups: dict[SubconeRef, list] = {}
        for c in charges[ref]:
            if c.scenario == "C":
                groups.setdefault(c.owner_subcone, []).append(c)
        for owner_sub, cs in sorted(groups.items()):
            if len(cs) == 2:
                candidates.append((ref, owner_sub))

    for ref, owner_sub in candidates:
        current = [
            c
            for c in charges[ref]
            if c.scenario == "C" and c.owner_subcone == owner_sub
        ]
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
            charges[ref].remove(charge_vx)
            transcript.append(Transformation(owner_sub, v, x, y, absorbed=True))
            continue
        if closest_in_own_subcone(v, y):
            charges[ref].remove(charge_vy)
            transcript.append(Transformation(owner_sub, v, x, y, absorbed=True))
            continue

        # Structural step: (v, y) goes away, (x, y) arrives.
        e_vy = _edge(v, y)
        e_xy = _edge(x, y)
        y_side = [
            (r, c)
            for r, cs in charges.items()
            if r.apex == y
            for c in cs
            if c.edge == e_vy
        ]
        drop_edge(e_vy)
        edges.discard(e_vy)
        edges.add(e_xy)
        for r, c in y_side:
            charges.setdefault(r, []).append(Charge(e_xy, c.scenario, c.owner_subcone))

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
                    freed = [
                        c
                        for c in charges.get(slot, [])
                        if c.edge == e_xw and c.scenario == "C"
                    ]
                    if freed:
                        charges[slot].remove(freed[0])
                        uncharged_xw = e_xw
                else:
                    drop_edge(e_xw)
                    edges.discard(e_xw)
                    removed_xw = e_xw
        charges.setdefault(slot, []).append(Charge(e_xy, "C", sub_x))
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

    return G7Result(Graph(scene.n, edges), tuple(transcript))


def build_g7(scene: Scene, ginf: Graph, g10: Graph) -> Graph:
    return g7_transform(scene, ginf, g10, _index_of(scene, ginf)).graph


GRAPH_NAMES = ("vis", "ginf", "g15", "g10", "g7")


def pipeline(scene: Scene, index: ConeIndex):
    """The chain in order, lazily, each step built from the one before:
    (name, graph) for vis, ginf, g15 and g10, then ("g7", G7Result).
    A caller that stops early builds nothing past its graph; vis comes
    before the general-position check of ``build_g_infinity``. The
    index goes to ``build_g_infinity``; the later steps read it from
    the ginf it returns."""
    vis = visibility_graph(scene)
    yield "vis", vis
    ginf = build_g_infinity(scene, vis, index)
    yield "ginf", ginf
    yield "g15", build_g15(scene, ginf)
    g10 = build_g10(scene, ginf)
    yield "g10", g10
    yield "g7", g7_transform(scene, ginf, g10, index)


def build_all(scene: Scene, index: Optional[ConeIndex] = None):
    """The five graphs of the pipeline, by name, plus the g7
    transformation log."""
    graphs = dict(pipeline(scene, ConeIndex.of(scene, index)))
    g7res = graphs["g7"]
    graphs["g7"] = g7res.graph
    return graphs, g7res
