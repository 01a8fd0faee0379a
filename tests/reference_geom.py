"""Reference predicates: the original implementations of two ``geom``
predicates, which the differential tests in ``test_geom.py`` compare
with the library's.

``segment_properly_intersects_polygon`` cuts the segment at every
boundary hit and classifies each open piece by its midpoint, in exact
Fractions; the library decides the same question from integer
orientation signs. ``sqrt3_sign`` combines three ``sign`` calls; the
library decides with comparisons alone.
"""

from __future__ import annotations

from fractions import Fraction

from polyspanner.geom import COLLINEAR, cross, orient, point_in_polygon, sign


def sqrt3_sign(a, b) -> int:
    """Exact sign of a + b*sqrt(3) for rational a, b.

    When a and b disagree in sign the answer hinges on whether |a|
    beats sqrt(3)*|b|, i.e. on the sign of a*a - 3*b*b.
    """
    sa = sign(a)
    sb = sign(b)
    if sb == 0:
        return sa
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    return sa * sign(a * a - 3 * b * b)


def segment_polygon_hits(a, b, poly) -> list:
    """Sorted parameters t in [0, 1] where segment a + t*(b-a) meets the
    polygon boundary. Collinear overlaps contribute both overlap ends."""
    abx = b[0] - a[0]
    aby = b[1] - a[1]
    ts = set()

    def param_of(p):
        if abx != 0:
            return Fraction(p[0] - a[0], abx)
        return Fraction(p[1] - a[1], aby)

    n = len(poly)
    for i in range(n):
        c = poly[i]
        d = poly[(i + 1) % n]
        cdx = d[0] - c[0]
        cdy = d[1] - c[1]
        denom = cross(abx, aby, cdx, cdy)
        if denom != 0:
            acx = c[0] - a[0]
            acy = c[1] - a[1]
            t = Fraction(cross(acx, acy, cdx, cdy), denom)
            s = Fraction(cross(acx, acy, abx, aby), denom)
            if 0 <= t <= 1 and 0 <= s <= 1:
                ts.add(t)
            continue
        if orient(a, b, c) != COLLINEAR:
            continue
        # Collinear edge: clip its parameter interval to [0, 1].
        t1 = param_of(c)
        t2 = param_of(d)
        lo, hi = (t1, t2) if t1 <= t2 else (t2, t1)
        lo = max(lo, Fraction(0))
        hi = min(hi, Fraction(1))
        if lo <= hi:
            ts.add(lo)
            ts.add(hi)
    return sorted(ts)


def segment_properly_intersects_polygon(a, b, poly) -> bool:
    """True iff the open segment (a, b) meets the open interior of poly.

    Touching the boundary, passing through vertices, or running along a
    boundary edge does not count. The segment is cut at every boundary
    hit and each open piece is classified by its midpoint, which is
    exact because all cut parameters are rational.
    """
    if a == b:
        return False
    ts = segment_polygon_hits(a, b, poly)
    cuts = [Fraction(0)]
    for t in ts:
        if 0 < t < 1:
            cuts.append(t)
    cuts.append(Fraction(1))
    abx = b[0] - a[0]
    aby = b[1] - a[1]
    for t0, t1 in zip(cuts, cuts[1:]):
        tm = (t0 + t1) / 2
        mid = (a[0] + tm * abx, a[1] + tm * aby)
        if point_in_polygon(mid, poly) > 0:
            return True
    return False
