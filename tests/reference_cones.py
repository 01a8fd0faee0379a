"""Reference cone and subcone classification: every call from scratch.

This is the original implementation of ``subcone_of`` and ``subcones``.
Each call recomputes the apex's obstacle wedge and split label. The
library memoises those per run in ``cones.ConeIndex``; the differential
tests in ``test_cone_index.py`` compare the two. ``direction_sector`` is
the original half-plane form, with two ``sqrt3_sign`` tests per
direction; ``test_cones.py`` compares the library's integer rule to it.
``cone_of`` names the cone of one point as seen from another, for tests
that work with bare points instead of scene vertices. ``inside_wedge``
restates the library's wedge test by half-planes: it orders directions
by counterclockwise angle from d_next, with no case split on the
corner's kind.
"""

from __future__ import annotations

from typing import Optional

from polyspanner.cones import (
    _SECTOR_LABEL,
    SIDE_LEFT,
    SIDE_RIGHT,
    SIDE_WHOLE,
    ConeLabel,
    GeneralPositionError,
    SubconeRef,
)
from polyspanner.geom import cross, sign, sqrt3_sign

POSITIVE_LABELS = tuple(ConeLabel(True, i) for i in range(3))
NEGATIVE_LABELS = tuple(ConeLabel(False, i) for i in range(3))


def direction_sector(dx, dy) -> int:
    """Sector 0..5 of a nonzero direction; boundary directions raise."""
    if dx == 0 and dy == 0:
        raise ValueError("zero direction has no cone")
    c0 = sign(dy)  # against boundary ray at 0 degrees
    c1 = sqrt3_sign(dy, -dx)  # against ray at 60 degrees
    c2 = sqrt3_sign(-dy, -dx)  # against ray at 120 degrees
    if c0 == 0 or c1 == 0 or c2 == 0:
        raise GeneralPositionError(
            f"direction ({dx}, {dy}) lies on a cone boundary"
        )
    if c0 > 0:
        if c1 < 0:
            return 0
        return 1 if c2 < 0 else 2
    if c1 > 0:
        return 3
    return 4 if c2 > 0 else 5


def cone_of(apex, p) -> ConeLabel:
    """Cone of apex containing p. Raises on boundary directions."""
    return _SECTOR_LABEL[direction_sector(p[0] - apex[0], p[1] - apex[1])]


def inside_wedge(wedge, dx, dy) -> bool:
    """True iff (dx, dy) is strictly inside the counterclockwise sweep
    from d_next to d_prev: its angle from d_next is positive and smaller
    than d_prev's. Each angle is first placed in the open-left half-plane
    of d_next (half 0, with d_next itself) or the other (half 1)."""
    (nx, ny), prev = wedge

    def half(v):
        c = cross(nx, ny, v[0], v[1])
        return 0 if c > 0 or c == 0 and nx * v[0] + ny * v[1] > 0 else 1

    d = (dx, dy)
    if d == (0, 0) or cross(nx, ny, dx, dy) == 0 and nx * dx + ny * dy > 0:
        return False  # no direction, or along d_next
    if half(d) != half(prev):
        return half(d) < half(prev)
    return cross(dx, dy, prev[0], prev[1]) > 0


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


def subcone_of(scene, apex: int, p: int) -> SubconeRef:
    """Subcone of vertex apex containing vertex p.

    Directions strictly inside the obstacle wedge are unreachable by any
    visible vertex and raise ValueError; directions along a wedge edge
    classify with the free region they bound.
    """
    ax, ay = scene.ipoints[apex]
    px, py = scene.ipoints[p]
    dx, dy = px - ax, py - ay
    label = _SECTOR_LABEL[direction_sector(dx, dy)]
    if split_cone_label(scene, apex) != label:
        return SubconeRef(apex, label, SIDE_WHOLE)
    dn, dp = obstacle_wedge(scene, apex)
    c_n = cross(dx, dy, dn[0], dn[1])
    if c_n >= 0:  # at or clockwise of d_next
        return SubconeRef(apex, label, SIDE_RIGHT)
    c_p = cross(dp[0], dp[1], dx, dy)
    if c_p >= 0:  # at or counterclockwise of d_prev
        return SubconeRef(apex, label, SIDE_LEFT)
    raise ValueError(
        f"vertex {p} lies strictly inside the obstacle wedge at vertex {apex}"
    )


def subcones(scene, apex: int, positive: bool) -> list:
    """All subcone refs of one sign at a vertex, in deterministic order."""
    split = split_cone_label(scene, apex)
    out = []
    for label in POSITIVE_LABELS if positive else NEGATIVE_LABELS:
        if label == split:
            out.append(SubconeRef(apex, label, SIDE_RIGHT))
            out.append(SubconeRef(apex, label, SIDE_LEFT))
        else:
            out.append(SubconeRef(apex, label, SIDE_WHOLE))
    return out
