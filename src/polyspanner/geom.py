"""Exact 2D predicates over rational coordinates.

Every decision in this package reduces to the sign of an integer or
rational expression, so no predicate can flip under rounding. Points are
plain ``(x, y)`` tuples whose entries are ints or ``fractions.Fraction``
(the two mix freely in arithmetic). The only irrational values anywhere
in the pipeline are rational multiples of sqrt(3); ``sqrt3_sign``
decides the sign of a + b*sqrt(3) exactly, with comparisons alone.
Where an array pass screens with floats first (``scene._slope_tie``),
the floats only choose which exact work runs; they decide nothing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

CCW = 1
COLLINEAR = 0
CW = -1


def sign(x) -> int:
    """-1, 0 or +1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def sqrt3_sign(a, b) -> int:
    """Exact sign of a + b*sqrt(3) for rational a, b, by comparisons.

    When a and b disagree in sign the answer hinges on whether |a|
    beats sqrt(3)*|b|, i.e. on a*a against 3*b*b. As sqrt(3) is
    irrational the two are equal only at a = b = 0, so that comparison
    is never a tie.
    """
    if b > 0:
        return 1 if a >= 0 or 3 * b * b > a * a else -1
    if b < 0:
        return -1 if a <= 0 or 3 * b * b > a * a else 1
    return 1 if a > 0 else -1 if a < 0 else 0


def cross(ux, uy, vx, vy):
    return ux * vy - uy * vx


def orient(p, q, r) -> int:
    """Orientation of the triple p, q, r: CCW, COLLINEAR or CW."""
    return sign((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))


def _axis_interval_overlap_positive(a, b, c, d) -> bool:
    # All four points collinear; compare parameter intervals on the
    # axis where the common line actually extends.
    ax = 0 if a[0] != b[0] else 1
    lo1, hi1 = (a[ax], b[ax]) if a[ax] <= b[ax] else (b[ax], a[ax])
    lo2, hi2 = (c[ax], d[ax]) if c[ax] <= d[ax] else (d[ax], c[ax])
    return min(hi1, hi2) > max(lo1, lo2)


def segments_properly_intersect(a, b, c, d) -> bool:
    """True iff the relative interiors of segments ab and cd cross.

    Touching at an endpoint is not proper; collinear overlap of positive
    length is.
    """
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        if a == b or c == d:
            return False
        return _axis_interval_overlap_positive(a, b, c, d)
    return o1 * o2 < 0 and o3 * o4 < 0


def segments_intersect_closed(a, b, c, d) -> bool:
    """True iff closed segments ab and cd share at least one point."""
    if orient(a, b, c) * orient(a, b, d) < 0 and orient(c, d, a) * orient(c, d, b) < 0:
        return True

    # Any remaining intersection puts an endpoint of one segment on the
    # other (collinear overlaps included).
    def on_closed(p, s, t):
        if orient(s, t, p) != COLLINEAR:
            return False
        return (
            min(s[0], t[0]) <= p[0] <= max(s[0], t[0])
            and min(s[1], t[1]) <= p[1] <= max(s[1], t[1])
        )

    return (
        on_closed(c, a, b)
        or on_closed(d, a, b)
        or on_closed(a, c, d)
        or on_closed(b, c, d)
    )


def polygon_signed_area2(poly) -> Rational:
    """Twice the signed area; positive iff the ring is counterclockwise."""
    total = 0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        total += x1 * y2 - y1 * x2
    return total


def point_in_polygon(p, poly) -> int:
    """+1 strictly inside, 0 on the boundary, -1 strictly outside.

    Exact even-odd crossing count with an upward ray; edges are treated
    half-open in y so a crossing at a shared vertex is counted once.
    """
    x, y = p[0], p[1]
    inside = False
    n = len(poly)
    for i in range(n):
        a = poly[i]
        b = poly[(i + 1) % n]
        if (
            orient(a, b, p) == COLLINEAR
            and min(a[0], b[0]) <= x <= max(a[0], b[0])
            and min(a[1], b[1]) <= y <= max(a[1], b[1])
        ):
            return 0
        if (a[1] > y) != (b[1] > y):
            o = orient(a, b, p)
            if b[1] > a[1]:
                if o > 0:
                    inside = not inside
            else:
                if o < 0:
                    inside = not inside
    return 1 if inside else -1


def segment_properly_intersects_polygon(a, b, poly) -> bool:
    """True iff the open segment (a, b) meets the open interior of the
    simple counterclockwise ring poly; touching the boundary does not
    count. Decided from orientation signs alone, in one pass over the
    ring: True exactly when ab
    - properly crosses an edge;
    - passes through a corner, or leaves an endpoint that is a corner,
      strictly into the interior wedge there (d_next counterclockwise
      to d_prev, as in ``scene.obstacle_wedges``);
    - leaves an endpoint in an edge's relative interior to the interior
      (left) side;
    - starts strictly inside, at a: an odd number of edges cross the ray
      from a through b strictly ahead of a, with corners on line ab
      counted right of it, and a lies on no edge. (If only b is inside,
      ab reaches b through the boundary, where a case above holds.)
    Every corner is read, so callers first skip a ring whose bounding box
    misses the segment's, as ``Scene.crossed_obstacles`` and the oracle do.
    """
    ax, ay = a[0], a[1]
    dx, dy = b[0] - ax, b[1] - ay
    if dx == 0 and dy == 0:
        return False
    # Side of line ab for every corner: >0 left, <0 right, 0 on the line.
    sides = [dx * (p[1] - ay) - dy * (p[0] - ax) for p in poly]
    length2 = dx * dx + dy * dy
    k = len(poly)
    inside = on_boundary = False
    for i, c in enumerate(poly):
        s, s_prev, s_next = sides[i], sides[i - 1], sides[(i + 1) % k]
        nxt = poly[(i + 1) % k]
        if s == 0:
            # Corner on line ab; t is 0 at a and length2 at b. The wedge
            # holds ab's direction iff d_next lies right of ab and d_prev
            # left of it (both at a convex corner, either at a reflex one).
            t = (c[0] - ax) * dx + (c[1] - ay) * dy
            if s_next * s_prev < 0:
                # Neighbours on opposite sides: convex and reflex agree.
                forward, backward = s_next < 0, s_next > 0
            elif orient(c, nxt, poly[i - 1]) == CW:  # reflex corner
                forward, backward = s_next < 0 or s_prev > 0, s_next > 0 or s_prev < 0
            else:  # convex corner, neighbours on one side or the line
                forward = backward = False
            if forward and 0 <= t < length2 or backward and 0 < t <= length2:
                return True
            if t == 0:
                on_boundary = True  # a is this corner
            elif s_next > 0:
                inside ^= t > 0  # the edge leaves the line at c
            elif s_next == 0:
                # The edge runs along line ab; a is on it iff its ends
                # lie on both sides of a.
                on_boundary |= t * ((nxt[0] - ax) * dx + (nxt[1] - ay) * dy) < 0
        elif s * s_next < 0:
            # The edge crosses line ab. True if it crosses strictly inside
            # ab, or at an endpoint that ab leaves to the edge's interior
            # (left) side, which is ab's forward side iff c is left of ab.
            ex, ey = nxt[0] - c[0], nxt[1] - c[1]
            oa = ex * (ay - c[1]) - ey * (ax - c[0])
            ob = ex * (b[1] - c[1]) - ey * (b[0] - c[0])
            if oa * ob < 0 or oa == 0 and s > 0 or ob == 0 and s < 0:
                return True
            # The crossing lies ahead of a iff oa and s differ in sign.
            # It is at a iff oa == 0; then s < 0, so ab leaves a to the
            # exterior and the crossings ahead are those of an outside
            # point: even, with no flag needed.
            inside ^= oa * s < 0
        elif s_next == 0 and s > 0:
            # The edge reaches the line at nxt, which counts as right.
            inside ^= (nxt[0] - ax) * dx + (nxt[1] - ay) * dy > 0
    return inside and not on_boundary
