"""Reference visibility: the pairwise predicate, total on any input.

This is the original ``visibility.visible`` with the obstacle loop of
the oracle's ``_oracle_visible``: a vertex strictly inside the segment
blocks it, and every obstacle is tested with no bounding-box prune.
The library decides visibility only in ``visibility_graph``, by one
exact array pass per scene; ``test_visibility.py`` compares the two on
scenes in and out of general position, on arbitrary rings and on both
sides of the int64 guard.
"""

from __future__ import annotations

from polyspanner.geom import COLLINEAR, orient, segment_properly_intersects_polygon


def strictly_inside_segment(p, a, b) -> bool:
    """True iff p lies on the open segment (a, b)."""
    if orient(a, b, p) != COLLINEAR:
        return False
    if a[0] != b[0]:
        lo, hi = (a[0], b[0]) if a[0] < b[0] else (b[0], a[0])
        return lo < p[0] < hi
    lo, hi = (a[1], b[1]) if a[1] < b[1] else (b[1], a[1])
    return lo < p[1] < hi


def visible(scene, u: int, v: int) -> bool:
    """True iff vertices u and v see each other."""
    if u == v:
        return False
    a = scene.ipoints[u]
    b = scene.ipoints[v]
    for w in range(scene.n):
        if w != u and w != v and strictly_inside_segment(scene.ipoints[w], a, b):
            return False
    for oi in range(len(scene.obstacles)):
        if segment_properly_intersects_polygon(a, b, scene.ipolygons[oi]):
            return False
    return True
