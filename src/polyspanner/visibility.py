"""Visibility graphs among polygonal obstacles.

Two vertices see each other when the open segment between them avoids
every obstacle interior. Touching obstacle corners or running along a
boundary edge is fine; a third vertex sitting on the open segment
blocks it (that only happens outside general position, but the
predicate stays total).

``visibility_graph`` decides every pair of a scene in one exact array
pass with three tests: the nearest vertex on each ray, the obstacle
wedge at both endpoints, and proper crossings with obstacle edges. Only
pairs with an irregular endpoint (see ``visibility_graph``) are left to
``Scene.crossed_obstacles``: every vertex of a scene that fails
``Scene.validation``, and a vertex inside an obstacle edge. Valid scenes
in general position have none.
The points and wedges are read from ``scene.exact_points`` and
``scene.obstacle_wedges``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

import numpy as np

from .cones import inside_wedge
from .geom import cross
from .scene import BLOCK, Scene, exact_points, obstacle_wedges


class Graph:
    """Undirected graph on vertices 0..n-1 with a frozen edge set.

    ``pairs`` is its one array view, built on first call and cached:
    ``sorted_edges`` and ``degrees`` read it.

    ``index`` is the ``cones.ConeIndex`` that built the graph, set by
    ``spanners.build_g_infinity`` on the ginf it returns and None on
    every other graph; it lives as long as the graph and takes no part
    in equality or hashing."""

    __slots__ = ("n", "edges", "index", "_pairs")

    def __init__(self, n: int, edges: Iterable = ()):
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            norm.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(norm)
        self.index = None
        self._pairs = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def pairs(self) -> tuple:
        """The edges as read-only index arrays u < v, sorted by u, then v."""
        if self._pairs is None:
            flat = np.fromiter(chain.from_iterable(self.edges), dtype=np.intp, count=2 * self.m)
            order = np.lexsort((flat[1::2], flat[0::2]))
            u, v = flat[0::2][order], flat[1::2][order]
            u.flags.writeable = v.flags.writeable = False
            self._pairs = (u, v)
        return self._pairs

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate(self.pairs()), minlength=self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def sorted_edges(self) -> list:
        u, v = self.pairs()
        return list(zip(u.tolist(), v.tolist()))

    def is_subgraph_of(self, other: "Graph") -> bool:
        return self.n == other.n and self.edges <= other.edges

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _signs(values) -> np.ndarray:
    return np.sign(values).astype(np.int8)


def _nearest_on_rays(x, y, apex) -> np.ndarray:
    """Rows for the apexes, columns for all vertices: True where the
    vertex is the nearest (or tied nearest) on its gcd-reduced ray from
    the apex. Each row is sorted by (ray, steps), so the head of each
    ray's run holds its fewest steps."""
    dx, dy = x[None, :] - x[apex, None], y[None, :] - y[apex, None]
    steps = np.gcd(dx, dy)
    steps[steps == 0] = 1  # the apex and its duplicates: ray (0, 0)
    keys = (steps, dy // steps, dx // steps)
    order = np.lexsort(keys, axis=-1)
    run_steps, ray_y, ray_x = (np.take_along_axis(k, order, axis=-1) for k in keys)
    first = np.ones(dx.shape, dtype=bool)
    first[:, 1:] = (ray_x[:, 1:] != ray_x[:, :-1]) | (ray_y[:, 1:] != ray_y[:, :-1])
    head = np.maximum.accumulate(np.where(first, np.arange(x.size), 0), axis=-1)
    fewest = np.take_along_axis(run_steps, head, axis=-1)
    nearest = np.empty(dx.shape, dtype=bool)
    np.put_along_axis(nearest, order, run_steps == fewest, axis=-1)
    return nearest


def visibility_graph(scene: Scene) -> Graph:
    """All mutually visible vertex pairs, exact on any input: the pairs
    with no vertex on their open segment that ``Scene.crossed_obstacles``
    finds clear. Three array tests decide a pair u < v, all from signs
    of exact determinants:

    - ray: v is the nearest vertex on the gcd-reduced integer ray from
      u, by one row-wise ``lexsort`` over (ray, steps); so no
      vertex, and so no obstacle corner, lies on the open segment;
    - wedge: the segment leaves neither endpoint strictly into that
      corner's obstacle wedge (``cones.inside_wedge``);
    - obstacle: no obstacle edge properly crosses the segment: its two
      corners lie strictly on opposite sides of line uv, and u, v
      strictly on opposite sides of the edge's line. This reads a
      pairs x corners side-sign matrix and a vertices x edges one.

    Once the first two hold, the per-ring kernel can find a segment
    blocked without a proper crossing only at an irregular endpoint: one
    on an edge's relative interior, one strictly inside a ring, or one
    whose point is a corner at a ring position other than its own single
    one (a shared or repeated corner, or a duplicate point). ``validate``
    rejects all but the first, so every vertex of a scene that fails
    ``Scene.validation`` counts as irregular, and of a valid scene only
    a vertex inside an edge. Pairs with an irregular endpoint keep the
    kernel, through ``Scene.crossed_obstacles``; valid scenes in general
    position have none. The arrays are of ``scene.exact_dtype``: int64
    below its guard, where every 2x2 determinant fits, and Python ints
    otherwise; only signs of determinants are multiplied or compared.
    Pairs go through in blocks of about ``BLOCK`` elements."""
    n = scene.n
    pts = scene.ipoints
    xy = exact_points(scene)
    x, y = xy[:, 0], xy[:, 1]
    wedges = np.array(obstacle_wedges(scene, xy)[1:])

    # Obstacle edges run from corner slot j to slot succ[j].
    rings = scene.obstacles
    slot_vertex = np.array([v for ring in rings for v in ring], dtype=np.intp)
    starts = np.cumsum([0] + [len(ring) for ring in rings[:-1]], dtype=np.intp)
    succ = np.array(
        [s + (i + 1) % len(r) for s, r in zip(starts.tolist(), rings) for i in range(len(r))],
        dtype=np.intp,
    )
    cx, cy = x[slot_vertex], y[slot_vertex]
    # Side of every vertex to every edge's line; a vertex strictly inside
    # an edge is irregular, and so is every vertex of an invalid scene.
    rel_x, rel_y = x[:, None] - cx, y[:, None] - cy
    side = _signs(cross(cx[succ] - cx, cy[succ] - cy, rel_x, rel_y))
    along = rel_x * (x[:, None] - cx[succ]) + rel_y * (y[:, None] - cy[succ])
    irregular = ((side == 0) & (along < 0)).any(axis=1) | (not scene.validation().ok)

    edges = []
    rows = max(1, BLOCK // max(n, 1))
    chunk = max(1, BLOCK // max(slot_vertex.size, 1))
    for u0 in range(0, n, rows):
        apex = np.arange(u0, min(n, u0 + rows))
        later = np.arange(n)[None, :] > apex[:, None]
        a, b = np.nonzero(_nearest_on_rays(x, y, apex) & later)
        a += u0
        dx, dy = x[b] - x[a], y[b] - y[a]
        keep = ~(inside_wedge(wedges[:, :, a], dx, dy) | inside_wedge(wedges[:, :, b], -dx, -dy))
        a, b = a[keep], b[keep]
        odd = irregular[a] | irregular[b]
        for u, v in zip(a[odd].tolist(), b[odd].tolist()):
            if next(scene.crossed_obstacles(pts[u], pts[v]), None) is None:
                edges.append((u, v))
        a, b = a[~odd], b[~odd]
        for i in range(0, a.size, chunk):
            pa, pb = a[i:i + chunk], b[i:i + chunk]
            dx, dy = x[pb] - x[pa], y[pb] - y[pa]
            corner = _signs(cross(dx[:, None], dy[:, None], cx - x[pa, None], cy - y[pa, None]))
            crossed = (corner * corner[:, succ] < 0) & (side[pa] * side[pb] < 0)
            clear = ~crossed.any(axis=1)
            edges.extend(zip(pa[clear].tolist(), pb[clear].tolist()))
    return Graph(n, edges)
