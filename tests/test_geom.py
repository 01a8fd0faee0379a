import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyspanner.geom import (
    CCW,
    COLLINEAR,
    CW,
    orient,
    point_in_polygon,
    polygon_signed_area2,
    segment_properly_intersects_polygon,
    segments_intersect_closed,
    segments_properly_intersect,
    sign,
    sqrt3_sign,
)
from polyspanner.scene import Scene, validate

from tests import reference_geom
from tests.reference_per_edge import SQRT3, ExactScalar
from tests.reference_visibility import strictly_inside_segment

coords = st.integers(min_value=-1000, max_value=1000)
points = st.tuples(coords, coords)


def test_sign():
    assert sign(5) == 1
    assert sign(-3) == -1
    assert sign(0) == 0
    assert sign(Fraction(-1, 7)) == -1


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_sqrt3_sign_matches_float(a, b):
    value = a + b * math.sqrt(3)
    if a == b == 0:
        assert sqrt3_sign(a, b) == 0
    elif abs(value) < 1e-6:
        # nonzero rational pair can be tiny but never exactly zero
        assert sqrt3_sign(a, b) != 0
    else:
        assert sqrt3_sign(a, b) == (1 if value > 0 else -1)


def _sqrt3_sign_cases():
    grid = [(a, b) for a in range(-12, 13) for b in range(-12, 13)]
    fractions = [(Fraction(a, 7), Fraction(b, 4)) for a, b in grid[::3]]
    scaled = [(a * 2**80 + c, b * 2**80) for a, b in grid[::5] for c in (-1, 0, 1)]
    # Convergents of sqrt(3): a + b*sqrt(3) is within 1e-3 of zero.
    convergents = [(s * a, -s * b) for a, b in ((26, 15), (265, 153), (1351, 780)) for s in (1, -1)]
    near = [(a * k + d, b * k) for a, b in convergents for k in (1, 3, 2**80) for d in (-1, 0, 1)]
    return grid + fractions + scaled + convergents + near


def test_sqrt3_sign_matches_the_three_sign_formula():
    for a, b in _sqrt3_sign_cases():
        for pair in ((a, b), (b, a), (-a, b)):
            got = sqrt3_sign(*pair)
            assert got == reference_geom.sqrt3_sign(*pair), pair
            assert type(got) is int
    # 1351 - 780*sqrt(3) is about 3.7e-4, -265 + 153*sqrt(3) about 3.8e-3.
    assert [sqrt3_sign(1351, -780), sqrt3_sign(-1351, 780)] == [1, -1]
    assert [sqrt3_sign(-265, 153), sqrt3_sign(265, -153)] == [1, -1]
    assert [sqrt3_sign(26, -15), sqrt3_sign(-26, 15)] == [1, -1]


def test_sqrt3_sign_exact_zero():
    assert sqrt3_sign(0, 0) == 0
    assert sqrt3_sign(Fraction(3), Fraction(-1)) == 1  # 3 - sqrt(3) > 0
    assert sqrt3_sign(Fraction(-7, 4), Fraction(1)) == -1  # sqrt(3) < 7/4


@given(points, points, points)
def test_orient_antisymmetry(a, b, c):
    assert orient(a, b, c) == -orient(a, c, b)
    assert orient(a, b, c) == orient(b, c, a)


def test_orient_basic():
    assert orient((0, 0), (1, 0), (0, 1)) == CCW
    assert orient((0, 0), (0, 1), (1, 0)) == CW
    assert orient((0, 0), (1, 1), (2, 2)) == COLLINEAR


def test_strictly_inside_segment():
    assert strictly_inside_segment((1, 1), (0, 0), (2, 2))
    assert not strictly_inside_segment((0, 0), (0, 0), (2, 2))  # endpoint
    assert not strictly_inside_segment((3, 3), (0, 0), (2, 2))  # beyond
    assert not strictly_inside_segment((1, 2), (0, 0), (2, 2))  # off line


def test_segments_properly_intersect():
    assert segments_properly_intersect((0, 0), (2, 2), (0, 2), (2, 0))
    # touching at an endpoint is not proper
    assert not segments_properly_intersect((0, 0), (2, 2), (2, 2), (3, 0))
    # T-junction: endpoint interior to the other segment is not proper
    assert not segments_properly_intersect((0, 0), (4, 0), (2, 0), (2, 3))
    assert not segments_properly_intersect((0, 0), (1, 0), (0, 1), (1, 1))
    # collinear overlap of positive length counts as a crossing
    assert segments_properly_intersect((0, 0), (3, 0), (1, 0), (5, 0))
    # collinear but only touching at one point does not
    assert not segments_properly_intersect((0, 0), (3, 0), (3, 0), (5, 0))


def test_segments_intersect_closed():
    assert segments_intersect_closed((0, 0), (2, 2), (0, 2), (2, 0))
    assert segments_intersect_closed((0, 0), (2, 2), (2, 2), (3, 0))
    assert segments_intersect_closed((0, 0), (4, 0), (2, 0), (2, 3))
    assert segments_intersect_closed((0, 0), (3, 0), (1, 0), (5, 0))
    assert not segments_intersect_closed((0, 0), (1, 0), (0, 1), (1, 1))


SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]


def test_point_in_polygon():
    assert point_in_polygon((2, 2), SQUARE) == 1
    assert point_in_polygon((5, 2), SQUARE) == -1
    assert point_in_polygon((2, 0), SQUARE) == 0  # edge
    assert point_in_polygon((4, 4), SQUARE) == 0  # corner
    assert point_in_polygon((2, -1), SQUARE) == -1


def test_point_in_polygon_nonconvex():
    # arrow with a notch at (2, 1)
    poly = [(0, 0), (4, 0), (4, 3), (2, 1), (0, 3)]
    assert point_in_polygon((1, 1), poly) == 1
    assert point_in_polygon((2, 2), poly) == -1  # inside the notch
    assert point_in_polygon((2, 1), poly) == 0


def test_polygon_signed_area2():
    assert polygon_signed_area2(SQUARE) == 32
    assert polygon_signed_area2(list(reversed(SQUARE))) == -32


def test_segment_polygon_hits_crossing():
    hits = reference_geom.segment_polygon_hits((-1, 2), (5, 2), SQUARE)
    # enters at x=0 and leaves at x=4: parameters 1/6 and 5/6
    assert hits == [Fraction(1, 6), Fraction(5, 6)]


def test_segment_properly_intersects_polygon():
    assert segment_properly_intersects_polygon((-1, 2), (5, 2), SQUARE)
    # chord with both endpoints on the boundary still passes through
    assert segment_properly_intersects_polygon((0, 0), (4, 4), SQUARE)
    # sliding along an edge stays on the boundary, never inside
    assert not segment_properly_intersects_polygon((0, 0), (4, 0), SQUARE)
    assert not segment_properly_intersects_polygon((-1, 5), (5, 5), SQUARE)
    # grazing a corner from outside
    assert not segment_properly_intersects_polygon((-1, 3), (1, 5), SQUARE)


@st.composite
def polygon_and_segment(draw):
    """A simple ccw polygon on a small grid and a segment whose ends are
    often corners, edge midpoints or interior lattice points."""
    r = draw(st.integers(3, 8))
    corners = draw(
        st.lists(
            st.tuples(st.integers(-r, r), st.integers(-r, r)),
            min_size=3,
            max_size=8,
            unique=True,
        )
    )
    # Ordering by angle around an off-lattice centre gives convex rings,
    # nonconvex star-shaped ones and self-crossing ones (filtered out
    # below); collinear runs give straight corners.
    cx = draw(st.integers(-2 * r, 2 * r)) / 4 + 1 / 7
    cy = draw(st.integers(-2 * r, 2 * r)) / 4 + 1 / 11
    corners.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    # Doubling puts every edge midpoint on the lattice.
    scene = Scene([(2 * x, 2 * y) for x, y in corners], [range(len(corners))])
    assume(validate(scene).ok)
    poly = scene.ipolygons[0]
    k = len(poly)
    mids = [
        ((poly[i][0] + poly[i - 1][0]) // 2, (poly[i][1] + poly[i - 1][1]) // 2)
        for i in range(k)
    ]
    grid = st.tuples(st.integers(-2 * r - 2, 2 * r + 2), st.integers(-2 * r - 2, 2 * r + 2))
    end = st.one_of(st.sampled_from(list(poly) + mids), grid)
    return poly, draw(end), draw(end)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(polygon_and_segment())
def test_polygon_predicate_matches_reference(case):
    poly, a, b = case
    assert segment_properly_intersects_polygon(a, b, poly) == (
        reference_geom.segment_properly_intersects_polygon(a, b, poly)
    )


@pytest.mark.parametrize(
    "poly",
    [
        SQUARE,
        [(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)],  # reflex notch at (2, 1)
        [(0, 0), (2, 0), (4, 0), (4, 2), (4, 4), (0, 4)],  # straight corners
        # comb: convex tips on y = 4, reflex roots on y = 2, each tooth's
        # tip and root on one vertical line
        [(0, 0), (5, 0), (5, 4), (4, 4), (4, 2), (3, 2), (3, 4), (2, 4),
         (2, 2), (1, 2), (1, 4), (0, 4)],
        # L: straight corners (2, 0) and (0, 2) on the lines x = 2 and
        # y = 2 through the reflex corner (2, 2)
        [(0, 0), (2, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4), (0, 2)],
    ],
)
def test_polygon_predicate_matches_reference_exhaustively(poly):
    # Every segment between lattice points of a small window: covers
    # corners passed through, edges run along, and every endpoint kind.
    window = [(x, y) for x in range(-1, 6) for y in range(-1, 6)]
    for a in window:
        for b in window:
            assert segment_properly_intersects_polygon(a, b, poly) == (
                reference_geom.segment_properly_intersects_polygon(a, b, poly)
            ), (a, b)


class TestExactScalar:
    def test_construction(self):
        x = ExactScalar.of(2)
        assert x.a == 2 and x.b == 0
        assert float(SQRT3) == pytest.approx(math.sqrt(3))

    def test_arithmetic(self):
        x = ExactScalar(1, 2)
        y = ExactScalar(3, -1)
        assert (x + y) == ExactScalar(4, 1)
        assert (x - y) == ExactScalar(-2, 3)
        # (1 + 2r)(3 - r) = 3 - r + 6r - 2r^2 = -3 + 5r with r^2 = 3
        assert (x * y) == ExactScalar(-3, 5)

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_sign_matches_float(self, a, b):
        x = ExactScalar(Fraction(a), Fraction(b))
        approx = a + b * math.sqrt(3)
        if abs(approx) > 1e-9:
            assert x.sign() == (1 if approx > 0 else -1)
        if a == b == 0:
            assert x.is_zero()

    @given(
        st.integers(-20, 20), st.integers(-20, 20),
        st.integers(-20, 20), st.integers(-20, 20),
    )
    def test_comparisons_match_float(self, a, b, c, d):
        x = ExactScalar(Fraction(a), Fraction(b))
        y = ExactScalar(Fraction(c), Fraction(d))
        fx, fy = float(x), float(y)
        if abs(fx - fy) > 1e-9:
            assert (x < y) == (fx < fy)
            assert (x > y) == (fx > fy)
        if (a, b) == (c, d):
            assert x == y and x <= y and x >= y
