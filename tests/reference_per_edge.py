"""Reference per-edge bound: exact Q(sqrt 3) canonical triangles.

This is the original implementation of ``check_per_edge_bound_ginf``.
It builds the exact canonical triangle of every visible pair, reads the
cone bisector from the triangle's apex and far-side midpoint, and takes
the angle with acos. The library now reads each edge's bisector from
``cones.CODE_BISECTOR``, derived from the cone table, and takes the
angle with atan2;
the differential test in ``test_verify.py`` compares the two.
``ExactScalar``, the exact a + b*sqrt(3) arithmetic these triangles
need, lives here too, since no library code uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from polyspanner.cones import ConeIndex, ConeLabel
from polyspanner.geom import Rational, sqrt3_sign
from polyspanner.verify import (
    REL_TOL,
    WitnessReport,
    distance_matrix,
    edge_table,
    per_edge_bound,
)
from polyspanner.scene import Scene
from polyspanner.visibility import Graph, visibility_graph

from tests.conftest import edge_length
from tests.reference_cones import cone_of


@dataclass(frozen=True)
class ExactScalar:
    """Exact element a + b*sqrt(3) of Q(sqrt 3).

    Closed under addition, subtraction and multiplication; ordered by
    exact sign computation.
    """

    a: Rational
    b: Rational = 0

    @classmethod
    def of(cls, value: Rational) -> "ExactScalar":
        return cls(value, 0)

    def sign(self) -> int:
        return sqrt3_sign(self.a, self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other):
        other = _coerce(other)
        return ExactScalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return ExactScalar(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return ExactScalar(-self.a, -self.b)

    def __mul__(self, other):
        other = _coerce(other)
        # (a + b r)(c + d r) with r*r = 3
        return ExactScalar(
            self.a * other.a + 3 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - _coerce(other)).sign() >= 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 3 ** 0.5

    def __repr__(self) -> str:
        return f"ExactScalar({self.a!r}, {self.b!r})"


SQRT3 = ExactScalar(0, 1)


def _coerce(value) -> ExactScalar:
    if isinstance(value, ExactScalar):
        return value
    return ExactScalar(value, 0)


# cos/sin of the rotation taking cone 0 onto cone i (0, 120, 240 degrees),
# as ExactScalar values.
_ROT = (
    (ExactScalar(1), ExactScalar(0)),
    (ExactScalar(Fraction(-1, 2)), ExactScalar(0, Fraction(1, 2))),
    (ExactScalar(Fraction(-1, 2)), ExactScalar(0, Fraction(-1, 2))),
)


def _rotate(cos_t: ExactScalar, sin_t: ExactScalar, x: ExactScalar, y: ExactScalar):
    return (x * cos_t - y * sin_t, x * sin_t + y * cos_t)


@dataclass(frozen=True)
class CanonicalTriangle:
    """Triangle with apex u bounded by the two rays of the positive cone
    containing v and the perpendicular to the cone bisector through v.

    Corner a is on the counterclockwise cone boundary, b on the
    clockwise one, m is the midpoint of side ab (it lies on the
    bisector). Corner coordinates live in Q(sqrt 3) componentwise.
    """

    apex: tuple
    label: ConeLabel
    a: tuple  # (ExactScalar, ExactScalar)
    b: tuple
    m: tuple
    height: ExactScalar  # distance from apex to line ab along the bisector

    def float_points(self):
        def f(pt):
            return (float(pt[0]), float(pt[1]))

        return f(self.apex), f(self.a), f(self.b), f(self.m)


def canonical_triangle(u, v) -> CanonicalTriangle:
    """Canonical triangle of the pair (u, v); v must lie in a positive
    cone of u."""
    label = cone_of(u, v)
    if not label.positive:
        raise ValueError(f"{v} lies in negative cone {label} of {u}")
    cos_t, sin_t = _ROT[label.index]
    dx = ExactScalar.of(v[0] - u[0])
    dy = ExactScalar.of(v[1] - u[1])
    # Pull the direction back into cone 0's frame (rotate by -theta).
    bx, by = _rotate(cos_t, ExactScalar(0) - sin_t, dx, dy)
    h = by
    half = ExactScalar(by.b, Fraction(by.a, 3))  # h / sqrt(3)
    ux = ExactScalar.of(u[0])
    uy = ExactScalar.of(u[1])
    corners = []
    for local in ((ExactScalar(0) - half, h), (half, h), (ExactScalar(0), h)):
        wx, wy = _rotate(cos_t, sin_t, local[0], local[1])
        corners.append((ux + wx, uy + wy))
    return CanonicalTriangle(
        apex=(u[0], u[1]),
        label=label,
        a=corners[0],
        b=corners[1],
        m=corners[2],
        height=h,
    )


def check_per_edge_bound_ginf(
    scene: Scene,
    ginf: Graph,
    vis: Optional[Graph] = None,
    ginf_dist: Optional[np.ndarray] = None,
) -> WitnessReport:
    """Every visibility edge (u, v), read from the endpoint whose
    positive cone holds the other, has a ginf path no longer than the
    angle-dependent factor times the Euclidean distance."""
    if vis is None:
        vis = visibility_graph(scene)
    if ginf_dist is None:
        ginf_dist = distance_matrix(edge_table(scene, ginf))
    index = ConeIndex(scene)
    bad = []
    for u, v in vis.sorted_edges():
        ref = index.subcone_of(u, v)
        apex, far = (u, v) if ref.label.positive else (v, u)
        tri = canonical_triangle(scene.vertices[apex], scene.vertices[far])
        (ax, ay), _, _, (mx, my) = tri.float_points()
        fx, fy = (float(c) for c in scene.vertices[far])
        bis = (mx - ax, my - ay)
        seg = (fx - ax, fy - ay)
        dot = bis[0] * seg[0] + bis[1] * seg[1]
        norm = math.hypot(*bis) * math.hypot(*seg)
        cos_t = max(-1.0, min(1.0, dot / norm))
        bound = per_edge_bound(math.acos(cos_t)) * edge_length(scene, u, v)
        have = float(ginf_dist[u, v])
        if have > bound * (1.0 + REL_TOL):
            bad.append(((u, v), have, bound))
    return WitnessReport(tuple(bad))
