"""The six pi/3 cones around a vertex, obstacle subcones, bisector keys.

Layout: positive cone 0 opens straight up; walking counterclockwise the
cones alternate positive and negative as (C0+, C2-, C1+, C0-, C2+, C1-).
Cone boundaries therefore lie on lines of slope 0, +sqrt(3), -sqrt(3),
which is exactly why general position bans vertex pairs on lines of
those slopes. The bisector of negative cone i points opposite to the
bisector of positive cone i, and p lies in positive cone i of q iff q
lies in negative cone i of p.

A vertex on an obstacle corner may have one of its cones split by the
two incident boundary edges; the two free angular parts are then
separate "subcones" (side "right" before the wedge in ccw order, side
"left" after it). Everything downstream works per subcone.

A run classifies each pair once, both directions from one sector: the
sector of -d is that of d plus three, so ``ConeIndex`` finds the sector
of (apex, p) and keeps (sector + 3) mod 6 for (p, apex); only the
split-label test is per apex. It memoises every vertex's split label,
the subcone of each directed pair and the subcone lists, and holds the
canonical-sequence and charge tables of each distinct ``ginf`` (filled
by ``spanners.canonical_sequences`` and ``compute_charges``) and, once
asked, the run's general-position report. None has another entry: one
index is made per run and passed along. ``inside_wedge`` is the one test of a
direction strictly inside an obstacle wedge: the index raises on it,
and ``visibility`` runs it elementwise on arrays of pairs at both
endpoints.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Iterable, NamedTuple, Optional

from .geom import cross, sign, sqrt3_sign
from .scene import check_general_position


class GeneralPositionError(ValueError):
    """A direction lies exactly on a cone boundary (or equivalent tie)."""


class ConeLabel(NamedTuple):
    positive: bool
    index: int  # 0, 1 or 2

    def __str__(self) -> str:
        return f"C{self.index}{'+' if self.positive else '-'}"


POSITIVE_LABELS = tuple(ConeLabel(True, i) for i in range(3))
NEGATIVE_LABELS = tuple(ConeLabel(False, i) for i in range(3))

# Sector k covers directions with angle in (60k, 60(k+1)) degrees.
_SECTOR_LABEL = (
    ConeLabel(False, 1),
    ConeLabel(True, 0),
    ConeLabel(False, 2),
    ConeLabel(True, 1),
    ConeLabel(False, 0),
    ConeLabel(True, 2),
)

SIDE_WHOLE = "whole"
SIDE_RIGHT = "right"  # clockwise of the obstacle wedge
SIDE_LEFT = "left"  # counterclockwise of the obstacle wedge


class SubconeRef(NamedTuple):
    """One free angular region of one cone at one vertex."""

    apex: int
    label: ConeLabel
    side: str = SIDE_WHOLE

    def __str__(self) -> str:
        tail = "" if self.side == SIDE_WHOLE else f"/{self.side}"
        return f"{self.label}@{self.apex}{tail}"


def direction_sector(dx, dy) -> int:
    """Sector 0..5 of a nonzero direction; boundary directions raise.

    The boundaries lie on dy = 0 and dy = +-sqrt(3) dx. For rational
    offsets dy^2 = 3 dx^2 holds only at 0, so dy = 0 is the one boundary
    a nonzero direction can hit, and the sign of dy^2 - 3 dx^2 tells the
    steep sectors 1 and 4 from the others.
    """
    if dx == 0 and dy == 0:
        raise ValueError("zero direction has no cone")
    if dy == 0:
        raise GeneralPositionError(
            f"direction ({dx}, {dy}) lies on a cone boundary"
        )
    if dy * dy > 3 * dx * dx:
        return 1 if dy > 0 else 4
    if dy > 0:
        return 0 if dx > 0 else 2
    return 3 if dx < 0 else 5


def _key_parts(label: ConeLabel, dx, dy):
    """Rational pair (a, b) with doubled bisector projection a + b*sqrt3."""
    if label.positive:
        if label.index == 0:  # bisector (0, 1)
            return 2 * dy, 0
        if label.index == 1:  # bisector (-sqrt3/2, -1/2)
            return -dy, -dx
        return -dy, dx  # bisector (sqrt3/2, -1/2)
    if label.index == 0:  # bisector (0, -1)
        return -2 * dy, 0
    if label.index == 1:  # bisector (sqrt3/2, 1/2)
        return dy, dx
    return dy, -dx  # bisector (-sqrt3/2, 1/2)


def key_compare(label: ConeLabel, d1, d2) -> int:
    """Exact sign of key(d1) - key(d2) for directions in the same cone."""
    a1, b1 = _key_parts(label, d1[0], d1[1])
    a2, b2 = _key_parts(label, d2[0], d2[1])
    return sqrt3_sign(a1 - a2, b1 - b2)


# --- obstacle wedges and subcones -----------------------------------------


def obstacle_wedge(scene, vi: int):
    """Directions (d_next, d_prev) of the boundary edges leaving vertex
    vi, or None when vi is not an obstacle corner. The obstacle interior
    near vi spans d_next counterclockwise to d_prev."""
    nb = scene.boundary_neighbors(vi)
    if nb is None:
        return None
    prev_i, next_i = nb
    px, py = scene.ipoints[vi]
    nx, ny = scene.ipoints[next_i]
    qx, qy = scene.ipoints[prev_i]
    return (nx - px, ny - py), (qx - px, qy - py)


def inside_wedge(wedge, dx, dy) -> bool:
    """True iff direction (dx, dy) lies strictly inside the obstacle
    wedge (d_next, d_prev) of ``obstacle_wedge``: strictly
    counterclockwise of d_next and strictly clockwise of d_prev. At a
    convex or straight corner both must hold; at a reflex corner the
    wedge is wider than pi and either one suffices. Elementwise, so the
    entries may also be numpy arrays of one shape."""
    (nx, ny), (px, py) = wedge
    after_next = nx * dy - ny * dx > 0
    before_prev = dx * py - dy * px > 0
    reflex = nx * py - ny * px < 0
    return after_next & before_prev | reflex & (after_next | before_prev)


def split_cone_label(scene, vi: int) -> Optional[ConeLabel]:
    """The cone of vi split in two by its obstacle wedge, if any.

    A cone splits only when both incident edge directions fall strictly
    inside it and the wedge occupies the middle (d_next clockwise of
    d_prev within the cone). A wedge that covers the cone except for a
    notch between the edges leaves a single free region: not a split.
    """
    w = obstacle_wedge(scene, vi)
    if w is None:
        return None
    dn, dp = w
    try:
        sn = direction_sector(dn[0], dn[1])
        sp = direction_sector(dp[0], dp[1])
    except GeneralPositionError:
        return None  # edge on a cone boundary: treat as non-splitting
    if sn != sp:
        return None
    if cross(dn[0], dn[1], dp[0], dp[1]) <= 0:
        return None
    return _SECTOR_LABEL[sn]


class ConeIndex:
    """Subcone membership in one scene, memoised for one run.

    Each vertex's split label is computed at most once and each pair is
    classified at most once per direction, from one sector: the first
    direction asked keeps the sector of the other. ``tables`` and
    ``charges`` map a ginf edge set to its read-only canonical-sequence
    and charge tables. Make one index per run and pass it to every step;
    never keep it on a ``Scene`` or at module level, where its memo
    would outlive the run that paid for it. A computation that raises
    is not memoised, so a repeated call raises again.
    """

    def __init__(self, scene):
        self.scene = scene
        self.tables: dict = {}
        self.charges: dict = {}
        self._split: dict = {}
        self._refs: dict = {}
        self._sectors: dict = {}  # (apex, p) -> sector, from (p, apex)
        self._subcones: dict = {}
        self._general_position = None

    @classmethod
    def of(cls, scene, index: Optional["ConeIndex"]) -> "ConeIndex":
        """index itself, or a fresh index of scene when index is None."""
        if index is None:
            return cls(scene)
        if index.scene is not scene:
            raise ValueError("cone index belongs to another scene")
        return index

    def general_position(self):
        """``check_general_position`` of the scene, on first call only."""
        if self._general_position is None:
            self._general_position = check_general_position(self.scene)
        return self._general_position

    def split_label(self, vi: int) -> Optional[ConeLabel]:
        """``split_cone_label`` of vi."""
        if vi not in self._split:
            self._split[vi] = split_cone_label(self.scene, vi)
        return self._split[vi]

    def subcone_of(self, apex: int, p: int) -> SubconeRef:
        """Subcone of vertex apex containing vertex p.

        Directions strictly inside the obstacle wedge are unreachable by
        any visible vertex and raise ValueError; directions along a wedge
        edge classify with the free region they bound. The sector found
        here serves (p, apex) too, but p's side is decided only when
        (p, apex) is asked, so each direction raises exactly where a
        fresh index would.
        """
        key = (apex, p)
        ref = self._refs.get(key)
        if ref is not None:
            return ref
        scene = self.scene
        ax, ay = scene.ipoints[apex]
        px, py = scene.ipoints[p]
        dx, dy = px - ax, py - ay
        sector = self._sectors.pop(key, None)
        if sector is None:
            sector = direction_sector(dx, dy)
            self._sectors[(p, apex)] = (sector + 3) % 6
        label = _SECTOR_LABEL[sector]
        if self.split_label(apex) != label:
            ref = SubconeRef(apex, label, SIDE_WHOLE)
        else:
            wedge = obstacle_wedge(scene, apex)
            if inside_wedge(wedge, dx, dy):
                raise ValueError(
                    f"vertex {p} lies strictly inside the obstacle wedge at vertex {apex}"
                )
            dn = wedge[0]
            # At or clockwise of d_next is right, else at or past d_prev.
            side = SIDE_RIGHT if cross(dx, dy, dn[0], dn[1]) >= 0 else SIDE_LEFT
            ref = SubconeRef(apex, label, side)
        self._refs[key] = ref
        return ref

    def subcones(self, apex: int, positive: bool) -> tuple:
        """All subcone refs of one sign at a vertex, in deterministic order."""
        key = (apex, positive)
        if key not in self._subcones:
            split = self.split_label(apex)
            out = []
            for label in POSITIVE_LABELS if positive else NEGATIVE_LABELS:
                if label == split:
                    out.append(SubconeRef(apex, label, SIDE_RIGHT))
                    out.append(SubconeRef(apex, label, SIDE_LEFT))
                else:
                    out.append(SubconeRef(apex, label, SIDE_WHOLE))
            self._subcones[key] = tuple(out)
        return self._subcones[key]


def ccw_sorted(scene, apex: int, members: Iterable[int]) -> list:
    """Vertices sorted counterclockwise around apex; valid within one
    cone (angular extent below pi), where the cross product is a strict
    total order for scenes in general position."""
    pts = scene.ipoints
    ax, ay = pts[apex]

    def cmp(u: int, v: int) -> int:
        ux, uy = pts[u]
        vx, vy = pts[v]
        return -sign(cross(ux - ax, uy - ay, vx - ax, vy - ay))

    return sorted(members, key=cmp_to_key(cmp))
