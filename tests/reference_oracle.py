"""Reference construction oracle: visibility before anything else.

This is the original loop of ``oracle_g_infinity`` and its per-pair
``_oracle_wedge_side``. It tests visibility for every pair in a positive
sector, then reads the apex's wedge for that pair, then the key. The
library now reads each apex's wedge once and tests visibility only for a
pair whose key can still win its slot; the differential tests in
``test_verify.py`` compare the two, exceptions included.
"""

from __future__ import annotations

from polyspanner.geom import cross, sign, sqrt3_sign
from polyspanner.scene import Scene, check_general_position
from polyspanner.verify import _oracle_key, _oracle_sector, _oracle_visible
from polyspanner.visibility import Graph


def _oracle_wedge_side(scene: Scene, u: int, dx, dy, sector: int) -> int:
    """0 for an unsplit sector, 1/2 for the clockwise/counterclockwise
    side of a sector split by the obstacle corner at u. Raises if the
    direction points strictly into the obstacle wedge."""
    nb = scene.boundary_neighbors(u)
    if nb is None:
        return 0
    ux, uy = scene.ipoints[u]
    prev_i, next_i = nb
    nx, ny = scene.ipoints[next_i]
    px, py = scene.ipoints[prev_i]
    dn = (nx - ux, ny - uy)
    dp = (px - ux, py - uy)
    try:
        sn = _oracle_sector(dn[0], dn[1])
        sp = _oracle_sector(dp[0], dp[1])
    except ValueError:
        return 0
    if sn != sector or sp != sector:
        return 0
    if sign(cross(dn[0], dn[1], dp[0], dp[1])) <= 0:
        return 0
    if sign(cross(dx, dy, dn[0], dn[1])) >= 0:
        return 1
    if sign(cross(dp[0], dp[1], dx, dy)) >= 0:
        return 2
    raise ValueError(f"direction ({dx}, {dy}) inside the wedge at {u}")


def oracle_g_infinity(scene: Scene) -> Graph:
    """Brute-force restatement of the cone-spanner definition: per
    vertex, per positive subcone, the visible vertex with the smallest
    bisector projection. Shares only the exact predicates with the
    builder. Scenes outside general position are refused, so no vertex
    lies inside another pair's segment and only obstacles can block; an
    obstacle whose bounding box misses the segment's is not tested."""
    report = check_general_position(scene)
    if not report.ok:
        raise ValueError("scene is not in general position")
    pts = scene.ipoints
    edges = set()
    for u in range(scene.n):
        ux, uy = pts[u]
        best: dict[tuple, tuple] = {}
        for v in range(scene.n):
            if v == u:
                continue
            vx, vy = pts[v]
            dx, dy = vx - ux, vy - uy
            sector = _oracle_sector(dx, dy)
            if sector not in (1, 3, 5):
                continue
            if not _oracle_visible(scene, u, v):
                continue
            side = _oracle_wedge_side(scene, u, dx, dy, sector)
            key = _oracle_key(sector, dx, dy)
            slot = (sector, side)
            if slot in best:
                ka, kb = best[slot][0]
                cmp = sqrt3_sign(key[0] - ka, key[1] - kb)
                if cmp == 0:
                    raise ValueError(
                        f"projection tie between {best[slot][1]} and {v} at {u}"
                    )
                if cmp > 0:
                    continue
            best[slot] = (key, v)
        for _, v in best.values():
            edges.add((u, v) if u < v else (v, u))
    return Graph(scene.n, edges)
