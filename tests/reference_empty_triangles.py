"""Reference empty-triangle check: every vertex and every obstacle edge
against every canonical triangle, no filter.

This is the original implementation of ``check_empty_triangles``. The
library now skips a vertex that is not strictly inside the triangle's
bounding box and an obstacle edge whose box stays on or beyond one side
of it; the differential test in ``test_verify.py`` compares the two.
"""

from __future__ import annotations

from polyspanner.cones import ConeIndex
from polyspanner.geom import CW, orient, point_in_polygon, segment_properly_intersects_polygon
from polyspanner.scene import Scene
from polyspanner.spanners import canonical_sequences
from polyspanner.verify import WitnessReport
from polyspanner.visibility import Graph


def check_empty_triangles(scene: Scene, ginf: Graph) -> WitnessReport:
    """The triangle spanned by the apex and two consecutive canonical
    members contains no vertex in its open interior and no obstacle
    piece crosses into it."""
    bad = []
    for seq in canonical_sequences(scene, ginf, ConeIndex(scene)).values():
        u = seq.apex
        for p, q in seq.consecutive_pairs:
            tri = [scene.ipoints[u], scene.ipoints[p], scene.ipoints[q]]
            if orient(*tri) == CW:
                tri.reverse()
            for w in range(scene.n):
                if w in (u, p, q):
                    continue
                if point_in_polygon(scene.ipoints[w], tri) > 0:
                    bad.append((u, p, q, "vertex", w))
            for a, b in scene.obstacle_edges():
                if segment_properly_intersects_polygon(
                    scene.ipoints[a], scene.ipoints[b], tri
                ):
                    bad.append((u, p, q, "obstacle-edge", (a, b)))
    return WitnessReport(tuple(bad))
