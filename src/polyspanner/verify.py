"""Executable forms of every property the spanner chain promises.

Exact predicates decide planarity, canonical-path membership, and
triangle emptiness. Metric statements (stretch factors, per-edge path
bounds) run in floating point with a relative tolerance of 1e-9, which
dominates double-precision accumulation error at the coordinate scales
this package targets. ``run_verification`` makes one ``EdgeTable`` (a
graph's ``Graph.pairs`` arrays, with each edge's float offset and
length) over the union of the five graphs' edges, which on an honest
run is ``vis``, and gathers each graph's table from it by sorted pair
keys, so each edge's floats are computed once per run. The metric work
runs on those arrays: one Dijkstra call per spanner for the distance
matrix, and the stretch and per-edge reads on the base graph's edges,
so the dense ``vis`` graph never needs a matrix. No check of an honest
run reads ``vis``'s ``edges`` frozenset: the subgraph chain compares
sorted pair keys too. The per-edge bound reads ``vis``'s table for its
offsets and lengths and one ``ConeIndex.codes`` gather for the unit
bisectors of its cones, from the ``cones`` table.
Planarity is one ``check_planarity`` sweep over the union of ``ginf``,
``g15``, ``g10`` and ``g7``; each graph's report is the union's
restricted to its edges, so every edge meets the obstacle test once per
run. ``run_verification`` reads general position from
``Scene.general_position``, as ``build_g_infinity`` does, takes the
run's ``ConeIndex`` from the honest ginf that ``build_all`` returns,
and hands that index to the per-edge, canonical-path, empty-triangle
and charge checks; the oracle calls ``check_general_position`` on its
own, to stay independent. The oracle shares no code with the builder
except the exact predicates. It reads each apex's obstacle wedge once, and runs a
pair's sector, side, key and comparison with its slot's best before
its visibility test, so only a pair that can still win its slot is
tested.

Every one of the 25 checks is one ``check`` step of
``run_verification``: a function that returns (ok, detail), whose
``ValueError`` becomes a failed outcome with the error as its detail.
That step is the only place that makes a ``CheckOutcome``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .cones import CODE_BISECTOR, ConeIndex
from .geom import (
    cross,
    point_in_polygon,
    segment_properly_intersects_polygon,
    segments_properly_intersect,
    sign,
    sqrt3_sign,
)
from .scene import Scene, check_general_position
from .spanners import build_all, canonical_sequences, compute_charges
from .visibility import Graph

REL_TOL = 1e-9


class EdgeTable(NamedTuple):
    """One graph on n vertices as arrays: its ``sorted_edges`` as
    endpoints u < v, each edge's float offset (dx, dy) from u to v and
    its length."""

    n: int
    u: np.ndarray
    v: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    length: np.ndarray


def edge_table(scene: Scene, g: Graph) -> EdgeTable:
    """g's ``EdgeTable`` on the scene's points, its endpoints read from
    ``Graph.pairs``. Each offset is an exact integer difference divided
    by the scale; int / int division is correctly rounded, so it is the
    same float as ``float`` of the Fraction difference, and the length
    is its ``math.hypot`` (``np.hypot`` rounds some inputs differently).
    The int64 arrays of ``Scene.exact_points`` divide as floats, exactly
    while the scale is below 2**53 too; otherwise the differences are
    Python ints, divided one by one."""
    if g.n != scene.n:
        raise ValueError("graphs must share the scene's vertex set")
    u, v = g.pairs()
    xy = scene.exact_points()
    if scene.scale >= 2**53:
        xy = xy.astype(object)
    dx, dy = ((xy[v] - xy[u]) / scene.scale).astype(float, copy=False).T
    length = list(map(math.hypot, dx.tolist(), dy.tolist()))
    return EdgeTable(scene.n, u, v, dx, dy, np.array(length, dtype=float))


def _union(n: int, graphs) -> Graph:
    """The union of graphs on n vertices, one ``Graph.from_keys`` call."""
    return Graph.from_keys(n, np.concatenate([g.pair_keys() for g in graphs]))


def _edge_tables(scene: Scene, graphs: dict) -> dict:
    """Each graph's ``EdgeTable``, by name, gathered from one
    ``edge_table`` over the union of their edges, so each edge's floats
    are computed once however many graphs hold it. On an honest run the
    union is vis."""
    union = _union(scene.n, graphs.values())
    whole, keys = edge_table(scene, union), union.pair_keys()
    tables = {}
    for name, g in graphs.items():
        at = np.searchsorted(keys, g.pair_keys())
        tables[name] = EdgeTable(scene.n, *g.pairs(), whole.dx[at], whole.dy[at], whole.length[at])
    return tables


def distance_matrix(table: EdgeTable) -> np.ndarray:
    """All-pairs shortest-path distances with Euclidean edge weights,
    from one Dijkstra call over all sources. The CSR matrix holds each
    edge in both directions and the search runs directed, because
    scipy's undirected mode builds the transpose again on every call."""
    n = table.n
    rows = np.concatenate((table.u, table.v))
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    cols = np.concatenate((table.v, table.u))[order]
    data = np.concatenate((table.length, table.length))[order]
    return dijkstra(csr_matrix((data, cols, indptr), shape=(n, n)), directed=True)


# --- stretch ----------------------------------------------------------------


@dataclass
class StretchReport:
    max_ratio: float
    witness_pair: Optional[tuple]

    def within(self, bound: float) -> bool:
        return self.max_ratio <= bound * (1.0 + REL_TOL)


def stretch_factor(base: EdgeTable, sub_dist: np.ndarray) -> StretchReport:
    """Largest d_sub(x,y) / d_base(x,y) over pairs connected in base,
    read on base's edges from sub's ``distance_matrix``.

    This is exact: every base edge has d_base(u,v) = |uv|, and along a
    base shortest path p0..pk, d_sub(p0,pk) <= sum d_sub(pi,pi+1) <=
    t * d_base(p0,pk), where t is the largest ratio over base edges. The
    witness is the first base edge, in ``sorted_edges`` order, attaining
    the maximum; an edge whose ends sub does not connect gives an
    infinite ratio. An edgeless base reads 1 with no witness.
    """
    if sub_dist.shape != (base.n, base.n):
        raise ValueError("graphs must share the scene's vertex set")
    if not len(base.length):
        return StretchReport(1.0, None)
    ratios = sub_dist[base.u, base.v] / base.length
    k = int(np.argmax(ratios))
    return StretchReport(float(ratios[k]), (int(base.u[k]), int(base.v[k])))


# --- planarity and degrees --------------------------------------------------


@dataclass(frozen=True)
class PlanarityReport:
    crossing_pairs: tuple
    obstacle_conflicts: tuple

    @property
    def ok(self) -> bool:
        return not self.crossing_pairs and not self.obstacle_conflicts

    def restricted_to(self, g: Graph) -> "PlanarityReport":
        """The report of a subgraph g of the graph this report checked:
        the crossings with both edges in g and the conflicts on g's
        edges. Each pair is decided on its own, and a subset's
        ``sorted_edges`` order is its order in the whole, so this equals
        ``check_planarity`` of g."""
        edges = g.edges
        return PlanarityReport(
            tuple(p for p in self.crossing_pairs if p[0] in edges and p[1] in edges),
            tuple(c for c in self.obstacle_conflicts if c[0] in edges),
        )


def check_planarity(scene: Scene, g: Graph) -> PlanarityReport:
    """Exact crossing test plus obstacle-interior test. Edges sharing an
    endpoint never count as crossing.

    Edges are swept in order of their low integer x; each is tested only
    against later edges whose x-extent starts at or before its high x
    and whose y-extent meets its own. This is still exact: a proper
    crossing or a collinear overlap puts a common point in both closed
    boxes. Crossing pairs are reported in ``sorted_edges`` order.
    """
    edges = g.sorted_edges()
    pts = scene.ipoints
    boxes = []
    for k, (a, b) in enumerate(edges):
        (ax, ay), (bx, by) = pts[a], pts[b]
        boxes.append((min(ax, bx), max(ax, bx), min(ay, by), max(ay, by), k))
    boxes.sort()
    found = []
    for s, (_, hi_x, lo_y, hi_y, i) in enumerate(boxes):
        for t in range(s + 1, len(boxes)):
            lo_x2, _, lo_y2, hi_y2, j = boxes[t]
            if lo_x2 > hi_x:
                break
            if hi_y2 < lo_y or hi_y < lo_y2:
                continue
            pair = (i, j) if i < j else (j, i)
            (a, b), (c, d) = edges[pair[0]], edges[pair[1]]
            if a == c or a == d or b == c or b == d:
                continue
            if segments_properly_intersect(pts[a], pts[b], pts[c], pts[d]):
                found.append(pair)
    crossings = [(edges[i], edges[j]) for i, j in sorted(found)]
    conflicts = tuple(
        ((a, b), oi) for a, b in edges for oi in scene.crossed_obstacles(pts[a], pts[b])
    )
    return PlanarityReport(tuple(crossings), conflicts)


@dataclass(frozen=True)
class DegreeReport:
    max_degree: int
    histogram: tuple  # sorted (degree, count) pairs


def degree_report(g: Graph) -> DegreeReport:
    count = np.bincount(g.degrees()).tolist()
    hist = tuple((d, c) for d, c in enumerate(count) if c)
    return DegreeReport(max(len(count) - 1, 0), hist)


# --- per-edge path bound ----------------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return not self.witnesses


def per_edge_bound(theta):
    """Path-length factor sqrt(3)*cos(theta) + sin(theta) for the angle
    between the pair's segment and its cone bisector; theta may be an
    array."""
    return math.sqrt(3.0) * np.cos(theta) + np.sin(theta)


def check_per_edge_bound_ginf(
    vis: EdgeTable, ginf_dist: np.ndarray, index: ConeIndex
) -> WitnessReport:
    """Every visibility edge (u, v), read from the endpoint whose
    positive cone holds the other, has a ginf path no longer than the
    angle-dependent factor times the Euclidean distance; vis is the
    visibility graph's ``edge_table`` and ginf_dist is ginf's
    ``distance_matrix``.

    The codes of all edges (u, v) come from one ``ConeIndex.codes``
    gather, so an edge on a cone boundary or into an obstacle wedge
    raises ValueError at the first such edge in ``sorted_edges`` order.
    The angle is atan2(|b x d|, b . d), where d is the table's offset
    (dx, dy) from u to v and b is the ``cones.CODE_BISECTOR`` of the
    code of (u, v), the bisector of u's cone that holds v. When that
    cone is negative, v is the apex, and the angle equals the one
    between -d and the bisector of v's positive cone of the same index.
    Witnesses come out in ``sorted_edges`` order.
    """
    bx, by = CODE_BISECTOR[index.codes(vis.u, vis.v)].T
    theta = np.arctan2(np.abs(bx * vis.dy - by * vis.dx), bx * vis.dx + by * vis.dy)
    bound = per_edge_bound(theta) * vis.length
    have = ginf_dist[vis.u, vis.v]
    over = np.flatnonzero(have > bound * (1.0 + REL_TOL))
    return WitnessReport(tuple(
        ((int(vis.u[k]), int(vis.v[k])), float(have[k]), float(bound[k]))
        for k in over
    ))


# --- structural property checks ----------------------------------------------


def check_canonical_paths(
    scene: Scene, ginf: Graph, g15: Graph, index: ConeIndex
) -> WitnessReport:
    """Consecutive canonical-sequence members are joined by a g15 edge."""
    missing = []
    for seq in canonical_sequences(scene, ginf, index).values():
        for p, q in seq.consecutive_pairs:
            if not g15.has_edge(p, q):
                missing.append((seq.apex, p, q))
    return WitnessReport(tuple(missing))


def check_empty_triangles(
    scene: Scene, ginf: Graph, index: ConeIndex
) -> WitnessReport:
    """The triangle spanned by the apex and two consecutive canonical
    members contains no vertex in its open interior and no obstacle
    piece crosses into it. The members come ``ccw_sorted``, so (apex, p,
    q) is the counterclockwise polygon that ``point_in_polygon`` and
    ``segment_properly_intersects_polygon`` take. Only a vertex strictly
    inside the triangle's bounding box, and only an obstacle edge whose
    box reaches into the open box, can meet the open interior; the
    others are skipped."""
    pts = scene.ipoints
    edges = []  # (edge, a, b, closed box of ab)
    for e in scene.obstacle_edges():
        a, b = pts[e[0]], pts[e[1]]
        edges.append((e, a, b, min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1])))
    bad = []
    for seq in canonical_sequences(scene, ginf, index).values():
        u = seq.apex
        for p, q in seq.consecutive_pairs:
            tri = [pts[u], pts[p], pts[q]]
            (x0, y0), (x1, y1), (x2, y2) = tri
            tx0, tx1 = min(x0, x1, x2), max(x0, x1, x2)
            ty0, ty1 = min(y0, y1, y2), max(y0, y1, y2)
            for w, (wx, wy) in enumerate(pts):
                if not (tx0 < wx < tx1 and ty0 < wy < ty1) or w in (u, p, q):
                    continue
                if point_in_polygon(pts[w], tri) > 0:
                    bad.append((u, p, q, "vertex", w))
            for e, a, b, ex0, ex1, ey0, ey1 in edges:
                if ex1 <= tx0 or tx1 <= ex0 or ey1 <= ty0 or ty1 <= ey0:
                    continue
                if segment_properly_intersects_polygon(a, b, tri):
                    bad.append((u, p, q, "obstacle-edge", e))
    return WitnessReport(tuple(bad))


# --- independent construction oracle ----------------------------------------


def _oracle_sector(dx, dy) -> int:
    """Sector 0..5 via half-plane signs; boundary hits raise ValueError."""
    above = sign(dy)
    s60 = sqrt3_sign(dy, -dx)
    s120 = sqrt3_sign(-dy, -dx)
    if above == 0 or s60 == 0 or s120 == 0:
        raise ValueError(f"direction ({dx}, {dy}) on a cone boundary")
    if above > 0:
        if s60 < 0:
            return 0
        if s120 < 0:
            return 1
        return 2
    if s60 > 0:
        return 3
    if s120 > 0:
        return 4
    return 5


# Doubled bisector projection (a, b) ~ a + b*sqrt(3) for a direction in
# each positive sector.
def _oracle_key(sector: int, dx, dy) -> tuple:
    if sector == 1:
        return 2 * dy, 0
    if sector == 3:
        return -dy, -dx
    if sector == 5:
        return -dy, dx
    raise ValueError(f"sector {sector} is not positive")


def _oracle_visible(scene: Scene, u: int, v: int) -> bool:
    a = scene.ipoints[u]
    b = scene.ipoints[v]
    sx0, sx1 = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
    sy0, sy1 = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
    for (bx0, by0, bx1, by1), poly in zip(scene.ibboxes, scene.ipolygons):
        if sx1 < bx0 or bx1 < sx0 or sy1 < by0 or by1 < sy0:
            continue  # the closed boxes are disjoint
        if segment_properly_intersects_polygon(a, b, poly):
            return False
    return True


def _oracle_wedge(scene: Scene, u: int):
    """(sector, d_next, d_prev) of the convex obstacle corner at u when
    both its boundary edges leave u inside one sector, which that corner
    then splits; None when no sector is split at u."""
    nb = scene.boundary_neighbors(u)
    if nb is None:
        return None
    ux, uy = scene.ipoints[u]
    prev_i, next_i = nb
    nx, ny = scene.ipoints[next_i]
    px, py = scene.ipoints[prev_i]
    dn = (nx - ux, ny - uy)
    dp = (px - ux, py - uy)
    try:
        sn = _oracle_sector(dn[0], dn[1])
        sp = _oracle_sector(dp[0], dp[1])
    except ValueError:
        return None
    if sn != sp or sign(cross(dn[0], dn[1], dp[0], dp[1])) <= 0:
        return None
    return sn, dn, dp


def _oracle_wedge_side(wedge, u: int, dx, dy, sector: int) -> int:
    """0 for an unsplit sector, 1/2 for the clockwise/counterclockwise
    side of a sector split by the obstacle corner at u. Raises if the
    direction points strictly into the obstacle wedge."""
    if wedge is None or wedge[0] != sector:
        return 0
    _, dn, dp = wedge
    if sign(cross(dx, dy, dn[0], dn[1])) >= 0:
        return 1
    if sign(cross(dp[0], dp[1], dx, dy)) >= 0:
        return 2
    raise ValueError(f"direction ({dx}, {dy}) inside the wedge at {u}")


def oracle_g_infinity(scene: Scene) -> Graph:
    """Brute-force restatement of the cone-spanner definition: per
    vertex, per positive subcone, the visible vertex with the smallest
    bisector projection. Shares only the exact predicates with the
    builder. Scenes outside general position are refused, so no vertex
    lies inside another pair's segment and only obstacles can block; an
    obstacle whose bounding box misses the segment's is not tested.

    Each apex's wedge is read once. Each pair then runs sector, side,
    key and a comparison with its slot's best, and only a pair that can
    still win its slot is tested for visibility: one whose key is at
    most the best's, or the first of its slot. A slot's best is always
    visible, so the skipped tests cannot change the minimum. A visible
    projection tie, or a visible direction inside the wedge, raises."""
    report = check_general_position(scene)
    if not report.ok:
        raise ValueError("scene is not in general position")
    pts = scene.ipoints
    edges = set()
    for u in range(scene.n):
        ux, uy = pts[u]
        wedge = _oracle_wedge(scene, u)
        best: dict[tuple, tuple] = {}
        for v in range(scene.n):
            if v == u:
                continue
            vx, vy = pts[v]
            dx, dy = vx - ux, vy - uy
            sector = _oracle_sector(dx, dy)
            if sector not in (1, 3, 5):
                continue
            try:
                side = _oracle_wedge_side(wedge, u, dx, dy, sector)
            except ValueError:
                if _oracle_visible(scene, u, v):
                    raise
                continue
            key = _oracle_key(sector, dx, dy)
            slot = (sector, side)
            held = best.get(slot)
            if held is not None:
                ka, kb = held[0]
                cmp = sqrt3_sign(key[0] - ka, key[1] - kb)
                if cmp > 0:
                    continue
            if not _oracle_visible(scene, u, v):
                continue
            if held is not None and cmp == 0:
                raise ValueError(f"projection tie between {held[1]} and {v} at {u}")
            best[slot] = (key, v)
        for _, v in best.values():
            edges.add((u, v) if u < v else (v, u))
    return Graph(scene.n, edges)


# --- the full suite ---------------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f": {self.detail}" if self.detail and not self.ok else ""
        return f"{status} {self.name}{tail}"


def _fmt_pair(pair) -> str:
    return f"({pair[0]},{pair[1]})" if pair else "-"


def run_verification(
    scene: Scene, substitutions: Optional[dict] = None
) -> list:
    """All checks on one scene, in stable order. Substitutions replace
    one or more of the five pipeline graphs before checking (the
    remaining graphs are still built honestly), so a corrupted edge
    list surfaces as failed checks.

    Every check is one ``check`` step: its function returns (ok,
    detail), and a ValueError it raises, such as a substituted edge the
    cones cannot classify, becomes a failed outcome with the error as
    its detail. What the checks share is made once, before them, and
    outside any step: the substituted graphs, whose errors reach the
    caller, the union planarity sweep, each graph's edge table
    (gathered from one ``edge_table`` of the five graphs' union) and
    each spanner's ``distance_matrix``. The checks that read cones use
    the run's index, taken from the honest ginf before any substitution.
    The charge checks each read ``compute_charges``, which keeps no
    table whose build raised, so on a corrupted ginf all three report
    its error."""
    outcomes: list[CheckOutcome] = []

    def check(name: str, fn) -> None:
        try:
            ok, detail = fn()
        except ValueError as exc:
            ok, detail = False, str(exc)
        outcomes.append(CheckOutcome(name, ok, detail))

    vres, gp = scene.validation(), scene.general_position()
    check("scene-valid", lambda: (vres.ok, "; ".join(v.detail for v in vres.violations[:3])))
    check("general-position", lambda: (
        gp.ok,
        f"{gp.parallel_count} parallel pair(s), {gp.collinear_count} collinear triple(s)",
    ))
    if not (vres.ok and gp.ok):
        return outcomes

    graphs, g7res = build_all(scene)
    index = graphs["ginf"].index
    for name, g in (substitutions or {}).items():
        if name not in graphs:
            raise ValueError(f"unknown graph name {name!r}")
        if g.n != scene.n:
            raise ValueError(f"substituted {name} has {g.n} vertices, scene has {scene.n}")
        graphs[name] = g
    vis, ginf = graphs["vis"], graphs["ginf"]
    g15, g10, g7 = graphs["g15"], graphs["g10"], graphs["g7"]

    def oracle_equivalence():
        diff = ginf.edges ^ oracle_g_infinity(scene).edges
        return not diff, f"{len(diff)} differing edge(s): {sorted(diff)[:4]}"

    def g7_extra_edges():
        added = {t.added_xy for t in g7res.transformations if t.added_xy}
        unexplained = g7.edges - g10.edges - added
        return not unexplained, f"unexplained extra edge(s): {sorted(unexplained)[:4]}"

    check("oracle-equivalence(ginf)", oracle_equivalence)
    check("subgraph-chain", lambda: (
        g10.is_subgraph_of(g15) and g15.is_subgraph_of(ginf) and ginf.is_subgraph_of(vis),
        "expected g10 within g15 within ginf within vis",
    ))
    check("g7-extra-edges", g7_extra_edges)

    # Crossings and conflicts are decided pair by pair, so one sweep over
    # the four graphs' union answers each of them; g15 and g10 thin ginf
    # and g7 rewires a few g10 edges, so the union is little more than ginf.
    spanner_names = ("ginf", "g15", "g10", "g7")
    union_rep = check_planarity(scene, _union(scene.n, (graphs[name] for name in spanner_names)))
    for name in spanner_names:
        rep = union_rep.restricted_to(graphs[name])
        check(f"planarity({name})", lambda: (
            rep.ok,
            f"{len(rep.crossing_pairs)} crossing(s), "
            f"{len(rep.obstacle_conflicts)} obstacle conflict(s)",
        ))

    for name, cap in (("g15", 15), ("g10", 10), ("g7", 7)):
        top = degree_report(graphs[name]).max_degree
        check(f"degree({name}<={cap})", lambda: (top <= cap, f"max degree {top}"))

    def cover_degree():
        totals = [0] * scene.n
        for ref, cs in compute_charges(scene, ginf, index).items():
            totals[ref.apex] += len(cs)
        uncovered = [v for v, d in enumerate(g10.degrees().tolist()) if totals[v] < d]
        return not uncovered, f"vertices undercharged: {uncovered[:4]}"

    def capped(positive: bool, cap: int):
        over = [
            (str(ref), len(cs))
            for ref, cs in compute_charges(scene, ginf, index).items()
            if ref.label.positive == positive and len(cs) > cap
        ]
        return not over, f"overcharged: {over[:4]}"

    check("charges(cover-degree)", cover_degree)
    check("charges(negative-cap-1)", lambda: capped(False, 1))
    check("charges(positive-cap-2)", lambda: capped(True, 2))

    tables = _edge_tables(scene, graphs)
    dists = {name: distance_matrix(tables[name]) for name in spanner_names}
    stretch_specs = (
        ("ginf", "vis", 2.0),
        ("g15", "ginf", 3.0),
        ("g10", "ginf", 3.0),
        ("g7", "ginf", 3.0),
        ("g15", "vis", 6.0),
        ("g10", "vis", 6.0),
        ("g7", "vis", 6.0),
    )
    for sub_name, base_name, bound in stretch_specs:
        rep = stretch_factor(tables[base_name], dists[sub_name])
        check(f"stretch({sub_name}|{base_name}<={bound:g})", lambda: (
            rep.within(bound),
            f"max ratio {rep.max_ratio:.12g} at {_fmt_pair(rep.witness_pair)}",
        ))

    def per_edge_bound():
        rep = check_per_edge_bound_ginf(tables["vis"], dists["ginf"], index)
        ws = rep.witnesses
        return rep.ok, f"{len(ws)} edge(s) over bound: {[w[0] for w in ws[:4]]}"

    def canonical_path_edges():
        rep = check_canonical_paths(scene, ginf, g15, index)
        return rep.ok, f"missing path edge(s): {rep.witnesses[:4]}"

    def empty_triangles():
        rep = check_empty_triangles(scene, ginf, index)
        return rep.ok, f"occupied triangle(s): {rep.witnesses[:4]}"

    check("per-edge-bound(ginf|vis)", per_edge_bound)
    check("canonical-path-edges(g15)", canonical_path_edges)
    check("empty-canonical-triangles(ginf)", empty_triangles)
    return outcomes
