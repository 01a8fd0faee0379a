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

Each cone is stated once, in ``_POSITIVE_KEYS``: the coefficients of
its exact bisector projection key, from which its integer key bounds
and float unit bisector follow. Only this module knows the cone layout
and how a pair code packs sector and side.

``classify`` decides a whole scene in one exact integer array pass over
the scene's ``exact_points`` and ``obstacle_wedges``: each vertex's
split label, then each ordered pair's code, 3 * sector + side, or a
marker for a pair whose classification raises. A run's ``ConeIndex``
makes that pass on its first subcone question. Whole edge sets read it
through ``ConeIndex.codes``, one gather that raises at the least pair
that cannot classify, and read what they need of
each code from this module: its sign (``CODE_POSITIVE``), its key
bounds (``key_bounds``), its unit bisector (``CODE_BISECTOR``) and the
order of its subcone's run (``CODE_RUN_ORDER``) and the subcone it
names (``subcone_ref``, a fresh ``SubconeRef`` value); ``subcone_of``
answers one pair from its code through ``subcone_ref``. The index also
holds the canonical-sequence, path-charge and charge tables of each
distinct ``ginf`` (filled by ``spanners.canonical_sequences``,
``path_charges`` and ``compute_charges``). None has another entry: one
index is made per run, by ``spanners.build_g_infinity``, and carried by
the ginf it returns to the later steps. ``inside_wedge`` is the one
test of a direction strictly inside an obstacle wedge; ``classify`` and
``visibility`` run it elementwise on the wedges of
``Scene.obstacle_wedges``.
"""

from __future__ import annotations

import math
from functools import cached_property, cmp_to_key
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .geom import cross, sign, sqrt3_sign


class GeneralPositionError(ValueError):
    """A direction lies exactly on a cone boundary (or equivalent tie)."""


class ConeLabel(NamedTuple):
    positive: bool
    index: int  # 0, 1 or 2

    def __str__(self) -> str:
        return f"C{self.index}{'+' if self.positive else '-'}"


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

# A pair that classifies has code 3 * sector + side, the side indexing
# _SIDES; one that raises has a marker code at or above N_REFS.
_SIDES = (SIDE_WHOLE, SIDE_RIGHT, SIDE_LEFT)
N_REFS = 3 * len(_SECTOR_LABEL)
ZERO, BOUNDARY, SPLIT_RAISES, IN_WEDGE = range(N_REFS, N_REFS + 4)
# A vertex's split: the sector of its split cone, or one of these.
NO_SPLIT = -1

_ZERO_DIRECTION = "zero direction has no cone"


class SubconeRef(NamedTuple):
    """One free angular region of one cone at one vertex."""

    apex: int
    label: ConeLabel
    side: str = SIDE_WHOLE

    def __str__(self) -> str:
        tail = "" if self.side == SIDE_WHOLE else f"/{self.side}"
        return f"{self.label}@{self.apex}{tail}"


# The sector of a direction with dy != 0, indexed by the three bits
# (dy > 0, dx > 0, dy^2 > 3 dx^2); dx = 0 is always steep.
_SECTOR_BY_SIGNS = np.array([3, 4, 5, 4, 2, 1, 0, 1])


def _sectors(dx, dy) -> np.ndarray:
    """Sector 0..5 of each direction of the arrays dx, dy.

    The boundaries lie on dy = 0 and dy = +-sqrt(3) dx. For rational
    offsets dy^2 = 3 dx^2 holds only at 0, so dy = 0 is the one boundary
    a nonzero direction can hit, and the sign of dy^2 - 3 dx^2 tells the
    steep sectors 1 and 4 from the others. A direction with dy = 0 gets
    some sector, which the caller overrides with a marker code.
    """
    return _SECTOR_BY_SIGNS[(dy > 0) * 4 + (dx > 0) * 2 + (dy * dy > 3 * dx * dx)]


# Per positive cone C0+, C1+, C2+: the coefficients (ka, kb) of its
# doubled bisector projection a + b*sqrt3, with a = ka*dy and b = kb*dx,
# so its unit bisector is (kb*sqrt3/2, ka/2). Negative cone i negates
# positive cone i. Inside a cone a >= 0 and b >= 0.
_POSITIVE_KEYS = ((2, 0), (-1, -1), (-1, 1))


def _key(label: ConeLabel) -> tuple:
    """The coefficients (ka, kb) of the cone label."""
    ka, kb = _POSITIVE_KEYS[label.index]
    return (ka, kb) if label.positive else (-ka, -kb)


# Per pair code: whether its cone is positive; the (ka, kb) and the
# float unit bisector of that cone; and its run order among the codes
# of one sign, by cone index, then side (right before left).
CODE_POSITIVE = np.array([label.positive for label in _SECTOR_LABEL for _ in _SIDES])
CODE_KEY = np.array([_key(label) for label in _SECTOR_LABEL for _ in _SIDES])
CODE_BISECTOR = CODE_KEY[:, ::-1] * (math.sqrt(3.0) / 2, 0.5)
CODE_RUN_ORDER = np.array([3 * label.index + side for label in _SECTOR_LABEL for side in range(3)])


# Per pair code that classifies: the label and side it names.
_CODE_SUBCONE = tuple((label, side) for label in _SECTOR_LABEL for side in _SIDES)


def subcone_ref(apex: int, code: int) -> SubconeRef:
    """The subcone of apex that a pair code below ``N_REFS`` names."""
    return SubconeRef(apex, *_CODE_SUBCONE[code])


def key_compare(label: ConeLabel, d1, d2) -> int:
    """Exact sign of key(d1) - key(d2) for directions in the same cone."""
    ka, kb = _key(label)
    return sqrt3_sign(ka * (d1[1] - d2[1]), kb * (d1[0] - d2[0]))


# sqrt(3) lies strictly between these two ratios over KEY_SCALE.
KEY_SCALE, SQRT3_BELOW, SQRT3_ABOVE = 10**6, 1732050, 1732051


def key_bounds(code, dx, dy):
    """Integer arrays lo, hi with lo <= KEY_SCALE * key <= hi for the
    doubled bisector projection a + b*sqrt3 of each direction (dx, dy)
    in the cone of its pair code. As a, b >= 0 there, hi - lo = b, and
    the bounds are strict when b > 0."""
    ka, kb = CODE_KEY[code].T
    a, b = ka * dy, kb * dx
    return a * KEY_SCALE + b * SQRT3_BELOW, a * KEY_SCALE + b * SQRT3_ABOVE


# --- obstacle wedges and subcones -----------------------------------------


def inside_wedge(wedge, dx, dy) -> bool:
    """True iff direction (dx, dy) lies strictly inside the obstacle
    wedge (d_next, d_prev) of ``Scene.obstacle_wedges``: strictly
    counterclockwise of d_next and strictly clockwise of d_prev. At a
    convex or straight corner both must hold; at a reflex corner the
    wedge is wider than pi and either one suffices. Elementwise, so the
    entries may also be numpy arrays of one shape."""
    (nx, ny), (px, py) = wedge
    after_next = nx * dy - ny * dx > 0
    before_prev = dx * py - dy * px > 0
    reflex = nx * py - ny * px < 0
    return after_next & before_prev | reflex & (after_next | before_prev)


class Classification(NamedTuple):
    """The array pass of one scene."""

    split: list  # per vertex: sector of its split cone, NO_SPLIT or SPLIT_RAISES
    codes: np.ndarray  # n x n int8, the code of (apex, p) at [apex, p]


def classify(scene) -> Classification:
    """Every vertex's split label and every ordered pair's code.

    A cone splits only when both incident edge directions fall strictly
    inside it and the wedge occupies the middle (d_next clockwise of
    d_prev within the cone). A wedge that covers the cone except for a
    notch between the edges leaves a single free region: not a split.
    An edge on a cone boundary splits nothing; a zero-length edge makes
    the split raise (unless d_next, tested first, lies on a boundary).

    A pair's marker follows the order in which its classification
    raises: a zero direction, then one on a cone boundary, then an apex
    whose split raises, then a direction strictly inside the wedge of
    a split apex. Along a wedge edge a direction takes the free side
    that the edge bounds.
    """
    xy = scene.exact_points()
    corner, ((nx, ny), (px, py)) = scene.obstacle_wedges()
    raises = corner & ((nx == 0) & (ny == 0) | (ny != 0) & (px == 0) & (py == 0))
    sector = _sectors(nx, ny)
    splits = corner & (ny != 0) & (py != 0) & (sector == _sectors(px, py))
    splits &= nx * py - ny * px > 0
    split = np.where(raises, SPLIT_RAISES, np.where(splits, sector, NO_SPLIT))

    dx, dy = xy[None, :, 0] - xy[:, None, 0], xy[None, :, 1] - xy[:, None, 1]
    sector = _sectors(dx, dy)
    codes = 3 * sector
    a, b = np.nonzero(sector == split[:, None])
    ddx, ddy = dx[a, b], dy[a, b]
    side = np.where(cross(ddx, ddy, nx[a], ny[a]) >= 0, 1, 2)
    inside = inside_wedge(((nx[a], ny[a]), (px[a], py[a])), ddx, ddy)
    codes[a, b] = np.where(inside, IN_WEDGE, codes[a, b] + side)
    codes[raises] = SPLIT_RAISES
    flat = dy == 0
    codes[flat] = BOUNDARY
    codes[flat & (dx == 0)] = ZERO
    return Classification(split.tolist(), codes.astype(np.int8))


class ConeIndex:
    """Subcone membership in one scene, classified once for one run.

    The first subcone question runs ``classify``; ``codes`` then
    gathers the codes of many pairs at once, and ``subcone_of`` reads
    one pair's code and makes its ``SubconeRef``, a value that compares
    equal to every other ref of the same subcone. The index keeps no
    copy of the codes. ``tables``, ``paths`` and ``charges`` map a ginf
    edge set to its read-only canonical-sequence, path-charge and
    charge tables; a build reads the first two only.
    ``spanners.build_g_infinity`` makes one index per run: the ginf it
    returns carries the index as ``Graph.index``, and the later build
    steps read it from there, so the index lives exactly as long as
    that ginf. Never keep it on a ``Scene`` or at module level, where
    its memo would outlive the run that paid for it. A question that
    raises is asked again each time, so a repeated call raises again.
    """

    def __init__(self, scene):
        self.scene = scene
        self.tables: dict = {}
        self.paths: dict = {}
        self.charges: dict = {}

    @cached_property
    def classification(self) -> Classification:
        """``classify`` of the scene, on first use only."""
        return classify(self.scene)

    def split_label(self, vi: int) -> Optional[ConeLabel]:
        """The cone of vi split in two by its obstacle wedge, if any."""
        s = self.classification.split[vi]
        if s == SPLIT_RAISES:
            raise ValueError(_ZERO_DIRECTION)  # a zero-length wedge edge
        return None if s == NO_SPLIT else _SECTOR_LABEL[s]

    def codes(self, a, b) -> np.ndarray:
        """The codes of the pairs (a[i], b[i]), for index arrays a and b
        of one length. Raises as ``subcone_of`` for the least pair in
        (a, b) order whose classification raises."""
        code = self.classification.codes[a, b]
        marked = np.flatnonzero(code >= N_REFS)
        if marked.size:
            i = marked[np.lexsort((b[marked], a[marked]))[0]]
            self.subcone_of(int(a[i]), int(b[i]))  # raises
        return code

    def subcone_of(self, apex: int, p: int) -> SubconeRef:
        """Subcone of vertex apex containing vertex p.

        Directions strictly inside the obstacle wedge are unreachable by
        any visible vertex and raise ValueError; directions along a wedge
        edge classify with the free region they bound.
        """
        code = int(self.classification.codes[apex, p])
        if code >= N_REFS:
            self._refuse(apex, p, code)
        return subcone_ref(apex, code)

    def _refuse(self, apex: int, p: int, code: int):
        """Raise what classifying the pair (apex, p) raises, by its marker."""
        if code == BOUNDARY:
            dx = self.scene.ipoints[p][0] - self.scene.ipoints[apex][0]
            raise GeneralPositionError(f"direction ({dx}, 0) lies on a cone boundary")
        if code == IN_WEDGE:
            raise ValueError(
                f"vertex {p} lies strictly inside the obstacle wedge at vertex {apex}"
            )
        raise ValueError(_ZERO_DIRECTION)  # ZERO or SPLIT_RAISES


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
