"""Reference integer geometry of a scene: the Fraction formula.

This is the original construction in ``Scene.__init__``. It orients each
ring by the signed area of its rational corners and scales every vertex
with a Fraction multiply, ``int(x * scale)``. The library now scales
each numerator by ``scale // denominator`` and orients rings on the
integer points; the differential test in ``test_scene.py`` compares the
two.
"""

from __future__ import annotations

import math
from fractions import Fraction

from polyspanner.geom import polygon_signed_area2


def integer_geometry(vertices, obstacles) -> dict:
    """scale, ipoints, obstacles (counterclockwise index rings),
    ipolygons and ibboxes, as ``Scene`` attributes of the same names."""
    vs = [(Fraction(x), Fraction(y)) for x, y in vertices]
    rings = []
    for ring in obstacles:
        idx = tuple(int(i) for i in ring)
        if len(idx) >= 3 and polygon_signed_area2([vs[i] for i in idx]) < 0:
            idx = idx[::-1]
        rings.append(idx)
    scale = 1
    for x, y in vs:
        scale = math.lcm(scale, x.denominator, y.denominator)
    ipoints = tuple((int(x * scale), int(y * scale)) for x, y in vs)
    ipolygons = tuple(tuple(ipoints[i] for i in ring) for ring in rings)
    ibboxes = tuple(
        (
            min(p[0] for p in poly),
            min(p[1] for p in poly),
            max(p[0] for p in poly),
            max(p[1] for p in poly),
        )
        for poly in ipolygons
    )
    return {
        "scale": scale,
        "ipoints": ipoints,
        "obstacles": tuple(rings),
        "ipolygons": ipolygons,
        "ibboxes": ibboxes,
    }
