"""Reference general-position check: one pair at a time.

This is the original implementation of ``scene.check_general_position``.
It walks the pairs i < j in a Python double loop and groups the later
points of each apex by their gcd-reduced direction in a dict, in the
order their first member appears. The library now makes one array pass
in row blocks; the differential test in ``test_scene.py`` compares the
two reports field by field.
"""

from __future__ import annotations

import math

from polyspanner.scene import GeneralPositionReport, Scene


def check_general_position(scene: Scene) -> GeneralPositionReport:
    pts = scene.ipoints
    n = len(pts)
    parallel, first_pair = 0, None
    count, first = 0, None
    for i in range(n):
        xi, yi = pts[i]
        by_dir: dict[tuple, list] = {}
        for j in range(i + 1, n):
            dx = pts[j][0] - xi
            dy = pts[j][1] - yi
            if dy == 0:
                parallel += 1
                if first_pair is None:
                    first_pair = (i, j)
            g = math.gcd(dx, dy)
            if g == 0:
                continue  # duplicate point; reported by validate
            dx //= g
            dy //= g
            if dx < 0 or (dx == 0 and dy < 0):
                dx, dy = -dx, -dy
            by_dir.setdefault((dx, dy), []).append(j)
        # Each pair of later points on one line through i is a triple.
        for members in by_dir.values():
            m = len(members)
            if m > 1:
                count += m * (m - 1) // 2
                if first is None:
                    first = (i, members[0], members[1])
    return GeneralPositionReport(parallel, first_pair, count, first)
