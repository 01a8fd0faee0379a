"""Visibility graphs among polygonal obstacles.

Two vertices see each other when the open segment between them avoids
every obstacle interior. Touching obstacle corners or running along a
boundary edge is fine; a third vertex sitting on the open segment
blocks it (that only happens outside general position, but the
predicate stays total).

``visibility_graph`` decides every pair of a scene in one exact array
pass with three tests: the nearest vertex on each ray, the obstacle
wedge at both endpoints, and proper crossings with obstacle edges. The
ray test runs only when the scene's ``Scene.general_position`` report
finds a collinear triple: without one, no vertex lies on another pair's
open segment and every pair passes it. No cone is read: vis needs only
orientation signs and general position. Only pairs with an irregular
endpoint (see ``visibility_graph``) are left to
``Scene.crossed_obstacles``: every vertex of a scene that fails
``Scene.validation``, and a vertex inside an obstacle edge. Valid scenes
in general position have none.
The points and wedges are read from ``Scene.exact_points`` and
``Scene.obstacle_wedges``. The visible pairs leave the pass as pair
keys u * n + v, already ascending, and become the vis through
``Graph.from_keys``: no edge is walked in Python, and the ``edges``
frozenset is built only if something reads it.
"""

from __future__ import annotations

import operator
from typing import Iterable

import numpy as np

from .cones import inside_wedge
from .geom import cross
from .scene import BLOCK, Scene


class Graph:
    """Undirected graph on vertices 0..n-1, held as one state: ``pairs``,
    read-only int64 arrays u < v, sorted by u, then v, no pair twice.

    ``Graph.from_keys`` is the one normaliser: it takes keys u * n + v
    in any order, repeats allowed, and keeps the sorted unique keys,
    read-only, as ``pair_keys``. The
    builders call it with keys they made valid. ``Graph(n, edges)`` is
    the validating boundary for any iterable of pairs, as a user or
    ``io.parse_edge_list`` hands it, and then hands its keys to
    ``from_keys``. ``m``, ``sorted_edges``, ``degrees``,
    ``is_subgraph_of``, equality and hashing read the arrays. ``edges``
    is the frozenset of the (u, v) pairs, built on its first read, for
    ``has_edge`` and set algebra.

    ``index`` is the run's ``cones.ConeIndex``, set by
    ``spanners.build_g_infinity`` on the ginf it returns, and None on
    every other graph, vis included; it lives as long as the graph and
    takes no part in equality or hashing."""

    __slots__ = ("n", "index", "_pairs", "_keys", "_edges")

    def __init__(self, n: int, edges: Iterable):
        if not 0 <= operator.index(n) < 2**31:
            raise ValueError(f"n={n} is out of range for a graph (0 to {2**31 - 1} vertices)")
        keys = []
        for u, v in edges:
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer endpoint") from None
            if u == v:
                raise ValueError(f"loop edge at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            keys.append(u * n + v if u < v else v * n + u)
        g = self.from_keys(n, keys)
        self.n, self.index, self._pairs, self._keys, self._edges = n, None, g._pairs, g._keys, None

    @classmethod
    def from_keys(cls, n: int, keys) -> "Graph":
        """The graph whose edges are the pairs (u, v) of keys u * n + v,
        which the caller guarantees have u < v < n; keys may come in any
        order and repeat. Nothing is checked."""
        keys = np.sort(np.asarray(keys, dtype=np.int64))
        fresh = np.ones(keys.size, dtype=bool)
        fresh[1:] = keys[1:] != keys[:-1]
        keys = keys[fresh]
        u, v = np.divmod(keys, n)
        keys.flags.writeable = u.flags.writeable = v.flags.writeable = False
        g = cls.__new__(cls)
        g.n, g.index, g._pairs, g._keys, g._edges = n, None, (u, v), keys, None
        return g

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            u, v = self._pairs
            self._edges = frozenset(zip(u.tolist(), v.tolist()))
        return self._edges

    @property
    def m(self) -> int:
        return self._pairs[0].size

    def pairs(self) -> tuple:
        """The edges as read-only index arrays u < v, sorted by u, then v."""
        return self._pairs

    def pair_keys(self) -> np.ndarray:
        """One key u * n + v per edge, in ``pairs`` order, so ascending;
        read-only, kept from ``from_keys``."""
        return self._keys

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate(self.pairs()), minlength=self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def sorted_edges(self) -> list:
        u, v = self.pairs()
        return list(zip(u.tolist(), v.tolist()))

    def is_subgraph_of(self, other: "Graph") -> bool:
        """Every edge of self is one of other's, decided on both graphs'
        sorted ``pair_keys``."""
        if self.n != other.n:
            return False
        mine, theirs = self.pair_keys(), other.pair_keys()
        at = np.searchsorted(theirs, mine)
        return bool((at < theirs.size).all() and (theirs[at] == mine).all())

    def __eq__(self, other) -> bool:
        same_n = isinstance(other, Graph) and self.n == other.n
        return same_n and np.array_equal(self._keys, other._keys)

    def __hash__(self):
        return hash((self.n, self._keys.tobytes()))

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
      vertex, and so no obstacle corner, lies on the open segment.
      Such a vertex makes a collinear triple, so the test runs only
      when ``Scene.general_position`` counts one;
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
    position have none. The arrays have the dtype of
    ``Scene.exact_points``: int64 below ``INT64_GUARD``, where every 2x2
    determinant fits, and Python ints otherwise; only signs of
    determinants are multiplied or compared.
    Pairs go through in blocks of about ``BLOCK`` elements, each
    decided in row-major order, so the visible ones concatenate into
    ascending keys for ``Graph.from_keys``."""
    n = scene.n
    pts = scene.ipoints
    xy = scene.exact_points()
    x, y = xy[:, 0], xy[:, 1]
    wedges = scene.obstacle_wedges()[1]

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

    rays = scene.general_position().collinear_count > 0
    keys = [np.empty(0, dtype=np.intp)]
    rows = max(1, BLOCK // max(n, 1))
    chunk = max(1, BLOCK // max(slot_vertex.size, 1))
    for u0 in range(0, n, rows):
        apex = np.arange(u0, min(n, u0 + rows))
        pair = np.arange(n)[None, :] > apex[:, None]
        if rays:
            pair &= _nearest_on_rays(x, y, apex)
        a, b = np.nonzero(pair)
        a += u0
        dx, dy = x[b] - x[a], y[b] - y[a]
        keep = ~(inside_wedge(wedges[:, :, a], dx, dy) | inside_wedge(wedges[:, :, b], -dx, -dy))
        a, b = a[keep], b[keep]
        # One verdict per pair, in the block's row-major order, so the
        # visible pairs' keys come out ascending.
        odd = irregular[a] | irregular[b]
        clear = np.empty(a.size, dtype=bool)
        for k in np.flatnonzero(odd).tolist():
            clear[k] = next(scene.crossed_obstacles(pts[a[k]], pts[b[k]]), None) is None
        even = np.flatnonzero(~odd)
        for i in range(0, even.size, chunk):
            k = even[i:i + chunk]
            pa, pb = a[k], b[k]
            dx, dy = x[pb] - x[pa], y[pb] - y[pa]
            corner = _signs(cross(dx[:, None], dy[:, None], cx - x[pa, None], cy - y[pa, None]))
            crossed = (corner * corner[:, succ] < 0) & (side[pa] * side[pb] < 0)
            clear[k] = ~crossed.any(axis=1)
        keys.append(a[clear] * n + b[clear])
    return Graph.from_keys(n, np.concatenate(keys))
