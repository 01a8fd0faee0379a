"""Reference planarity check: every pair of edges, no filter.

This is the original implementation of ``check_planarity``. It runs the
exact crossing test on all O(m^2) pairs of edges. The library now sweeps
the edges in order of their low x and prunes pairs whose bounding boxes
are disjoint; the differential tests in ``test_verify.py`` compare the
two.
"""

from __future__ import annotations

from polyspanner.geom import (
    segment_properly_intersects_polygon,
    segments_properly_intersect,
)
from polyspanner.scene import Scene
from polyspanner.verify import PlanarityReport
from polyspanner.visibility import Graph


def check_planarity(scene: Scene, g: Graph) -> PlanarityReport:
    """Exhaustive exact pairwise crossing test plus obstacle-interior
    test. Edges sharing an endpoint never count as crossing."""
    edges = g.sorted_edges()
    pts = scene.ipoints
    crossings = []
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            if a == c or a == d or b == c or b == d:
                continue
            if segments_properly_intersect(pts[a], pts[b], pts[c], pts[d]):
                crossings.append(((a, b), (c, d)))
    conflicts = []
    for a, b in edges:
        lo_x = min(pts[a][0], pts[b][0])
        hi_x = max(pts[a][0], pts[b][0])
        lo_y = min(pts[a][1], pts[b][1])
        hi_y = max(pts[a][1], pts[b][1])
        for oi in range(len(scene.obstacles)):
            bx0, by0, bx1, by1 = scene.ibboxes[oi]
            if hi_x < bx0 or bx1 < lo_x or hi_y < by0 or by1 < lo_y:
                continue
            if segment_properly_intersects_polygon(
                pts[a], pts[b], scene.ipolygons[oi]
            ):
                conflicts.append(((a, b), oi))
    return PlanarityReport(tuple(crossings), tuple(conflicts))
