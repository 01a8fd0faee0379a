"""Random instance generator.

Obstacles are convex hulls of point clusters sampled inside disjoint
axis-aligned boxes, so distinct obstacles can never touch. Every
accepted point gets a fresh y coordinate and is rejected if it would
form a collinear triple, which keeps instances in general position by
construction (on an integer grid a slope of exactly +/-sqrt(3) is
impossible, so distinct y values rule out all forbidden directions).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .geom import CCW, orient, point_in_polygon
from .scene import Scene


class GeneratorError(RuntimeError):
    pass


@dataclass(frozen=True)
class GeneratorConfig:
    n_points: int
    n_obstacles: int = 0
    obstacle_size: int = 5
    extent: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("n_points must be at least 1")
        if self.n_obstacles < 0:
            raise ValueError("n_obstacles must be nonnegative")
        if self.obstacle_size < 3:
            raise ValueError("obstacle_size must be at least 3")
        if self.extent < 100:
            raise ValueError("extent too small to separate points")
        if self.n_obstacles * self.obstacle_size > self.n_points:
            raise GeneratorError(
                f"{self.n_obstacles} obstacles of {self.obstacle_size} points "
                f"exceed the {self.n_points}-point budget"
            )


def convex_hull(points):
    """Hull vertices in counterclockwise order (monotone chain)."""
    pts = sorted(points)
    if len(pts) < 3:
        return list(pts)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orient(out[-2], out[-1], p) != CCW:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    return lower[:-1] + upper[:-1]


class _PointPool:
    """Accepts points one at a time, enforcing general position."""

    def __init__(self):
        self.points = []
        self.used_y = set()

    def admissible(self, p):
        """A fresh y, and no accepted pair collinear with p: the
        gcd-reduced, sign-normalised directions from p to the accepted
        points are nonzero and pairwise distinct."""
        if p[1] in self.used_y:
            return False
        px, py = p
        rays = set()
        for qx, qy in self.points:
            dx, dy = qx - px, qy - py
            g = math.gcd(dx, dy)
            if g == 0:
                return False
            if dy < 0 or dy == 0 and dx < 0:
                g = -g
            ray = (dx // g, dy // g)
            if ray in rays:
                return False
            rays.add(ray)
        return True

    def add(self, p):
        self.points.append(p)
        self.used_y.add(p[1])

    def drop_last(self, k):
        for _ in range(k):
            p = self.points.pop()
            self.used_y.discard(p[1])


_MAX_TRIES = 4000


def _sample(rng, pool, box, reject, tries_used):
    x0, y0, x1, y1 = box
    while True:
        tries_used[0] += 1
        if tries_used[0] > _MAX_TRIES:
            raise GeneratorError("too many rejected samples; relax the config")
        p = (rng.randrange(x0, x1 + 1), rng.randrange(y0, y1 + 1))
        if reject is not None and reject(p):
            continue
        if pool.admissible(p):
            return p


def _obstacle_boxes(config):
    """Disjoint square boxes laid out left to right, jittered in y."""
    k = config.n_obstacles
    b = config.extent
    side = b // (2 * k + 1)
    gap = (b - k * side) // (k + 1)
    boxes = []
    x = gap
    for _ in range(k):
        boxes.append((x, side))
        x += side + gap
    return boxes, side


def generate(config: GeneratorConfig) -> Scene:
    rng = random.Random(config.seed)
    pool = _PointPool()
    tries = [0]
    b = config.extent
    rings = []
    hull_polys = []

    if config.n_obstacles:
        boxes, side = _obstacle_boxes(config)
        for x0, s in boxes:
            y0 = rng.randrange(b // 8, b - b // 8 - s)
            cluster_box = (x0, y0, x0 + s, y0 + s)
            start = len(pool.points)
            for _ in range(config.obstacle_size):
                pool.add(_sample(rng, pool, cluster_box, None, tries))
            cluster = pool.points[start:]
            hull = convex_hull(cluster)
            # interior cluster points are not scene vertices; re-add
            # the hull alone so the collinearity filter stays honest
            pool.drop_last(len(cluster))
            for p in hull:
                pool.add(p)
            rings.append((start, len(hull)))
            hull_polys.append(hull)

    def inside_obstacle(p):
        return any(point_in_polygon(p, poly) >= 0 for poly in hull_polys)

    while len(pool.points) < config.n_points:
        pool.add(_sample(rng, pool, (0, 0, b, b), inside_obstacle, tries))

    ring_indices = [list(range(s, s + ln)) for s, ln in rings]
    scene = Scene(pool.points, ring_indices)
    if not scene.validation().ok:
        raise GeneratorError("generated scene failed validation")
    if not scene.general_position().ok:
        raise GeneratorError("generated scene failed general position")
    return scene
