"""Visibility graphs among polygonal obstacles.

Two vertices see each other when the open segment between them avoids
every obstacle interior. Touching obstacle corners or running along a
boundary edge is fine; a third vertex sitting on the open segment
blocks it (that only happens outside general position, but the
predicate stays total).
"""

from __future__ import annotations

import math
from typing import Iterable

from .cones import inside_wedge, obstacle_wedge
from .scene import Scene


class Graph:
    """Undirected graph on vertices 0..n-1 with a frozen edge set."""

    __slots__ = ("n", "edges", "_adj")

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
        self._adj = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict:
        if self._adj is None:
            adj = {u: [] for u in range(self.n)}
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            self._adj = {u: tuple(sorted(vs)) for u, vs in adj.items()}
        return self._adj

    def neighbors(self, u: int) -> tuple:
        return self.adjacency()[u]

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    def max_degree(self) -> int:
        return max((len(v) for v in self.adjacency().values()), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def is_subgraph_of(self, other: "Graph") -> bool:
        return self.n == other.n and self.edges <= other.edges

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def visibility_graph(scene: Scene) -> Graph:
    """All mutually visible vertex pairs, exact on any input. A pair is
    blocked iff a nearer vertex lies on the same gcd-reduced integer ray
    (one table per apex, O(n^2) in all), or its direction leaves either
    endpoint strictly into that corner's obstacle wedge
    (``cones.inside_wedge``); only then is the pair tested against the
    obstacles, by ``Scene.crossed_obstacles``."""
    pts = scene.ipoints
    wedges = [obstacle_wedge(scene, u) for u in range(scene.n)]
    edges = []
    for u, (ux, uy) in enumerate(pts):
        rays = []  # per vertex: (reduced direction from u, steps along it)
        nearest = {}  # reduced direction -> fewest steps of any vertex on it
        for x, y in pts:
            g = math.gcd(x - ux, y - uy) or 1  # u and its duplicates: ray (0, 0)
            ray = ((x - ux) // g, (y - uy) // g)
            rays.append((ray, g))
            nearest[ray] = min(g, nearest.get(ray, g))
        wu = wedges[u]
        for v in range(u + 1, len(pts)):
            ray, g = rays[v]
            # Unblocked iff no vertex on the same ray is nearer and the
            # segment leaves neither endpoint into its own obstacle.
            if nearest[ray] != g:
                continue
            dx, dy = pts[v][0] - ux, pts[v][1] - uy
            wv = wedges[v]
            if wu and inside_wedge(wu, dx, dy) or wv and inside_wedge(wv, -dx, -dy):
                continue
            if next(scene.crossed_obstacles(pts[u], pts[v]), None) is None:
                edges.append((u, v))
    return Graph(scene.n, edges)
