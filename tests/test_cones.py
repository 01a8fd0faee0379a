import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyspanner import cones
from polyspanner.cones import (
    ConeIndex,
    ConeLabel,
    GeneralPositionError,
    SIDE_LEFT,
    SIDE_RIGHT,
    SIDE_WHOLE,
    SubconeRef,
    ccw_sorted,
    inside_wedge,
    key_bounds,
    key_compare,
)
from polyspanner.geom import cross, sqrt3_sign
from polyspanner.scene import Scene
from polyspanner.spanners import canonical_sequences
from polyspanner.verify import _oracle_key, _oracle_sector
from polyspanner.visibility import Graph

from tests import reference_cones
from tests.reference_cones import cone_of
from tests.reference_per_edge import canonical_triangle

O = (0, 0)


def test_direction_sector_walks_counterclockwise():
    # one representative direction per 60-degree sector
    dx, dy = np.array([(4, 1), (1, 4), (-4, 1), (-4, -1), (-1, -4), (4, -1)]).T
    assert cones._sectors(dx, dy).tolist() == [0, 1, 2, 3, 4, 5]


def test_direction_sector_boundaries_raise():
    # dy == 0 is the one cone boundary an integer direction can meet.
    index = ConeIndex(Scene([(0, 0), (1, 0), (1, 0)]))
    for apex, p in [(0, 1), (1, 0)]:
        with pytest.raises(GeneralPositionError):
            index.subcone_of(apex, p)
    with pytest.raises(ValueError, match="zero direction"):
        index.subcone_of(1, 2)


def _sector_probes(rng):
    """Seeded ints, Fractions, axis directions, and integer and rational
    directions next to the +-sqrt(3) boundary lines."""
    for _ in range(3000):
        yield rng.randint(-50, 50), rng.randint(-50, 50)
        yield rng.randint(-10**30, 10**30), rng.randint(-10**30, 10**30)
        yield (
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
        )
    for k in range(-5, 6):
        yield k, 0
        yield 0, k
    for _ in range(2000):
        dx = rng.choice([-1, 1]) * rng.randint(1, 10**12)
        # floor(sqrt(3) * |dx|) and the next integer bracket the line.
        near = math.isqrt(3 * dx * dx)
        for dy in (near, near + 1):
            for sy in (1, -1):
                yield dx, sy * dy
        den = rng.randint(1, 10**6)
        yield Fraction(dx, den), Fraction(rng.choice([-1, 1]) * near, den)


def test_direction_sector_matches_half_plane_reference():
    # The array rule gives the reference's sector wherever the reference
    # has one, and the reference refuses exactly the directions with
    # dy == 0, whose codes the index overrides.
    probes = list(_sector_probes(random.Random(20201)))
    dx, dy = np.array(probes, dtype=object).T
    got = cones._sectors(dx, dy).tolist()
    for (x, y), sector in zip(probes, got):
        try:
            want = reference_cones.direction_sector(x, y)
        except ValueError:
            assert y == 0, (x, y)
        else:
            assert sector == want, (x, y)


def test_cone_labels():
    assert str(cone_of(O, (1, 4))) == "C0+"
    assert str(cone_of(O, (-3, -3))) == "C1+"
    assert str(cone_of(O, (4, -3))) == "C2+"
    assert str(cone_of(O, (1, -4))) == "C0-"
    assert str(cone_of(O, (4, 1))) == "C1-"
    assert str(cone_of(O, (-4, 1))) == "C2-"


points = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


@given(points, points)
def test_cone_duality(p, q):
    if p[1] == q[1]:
        return  # shared y puts q on a cone boundary of p
    there, back = cone_of(p, q), cone_of(q, p)
    assert there.index == back.index
    assert there.positive != back.positive


def test_projection_key_values():
    # upward cone: the key is twice the height difference, so (1, 4)
    # ties with (0, 4) on the bisector
    up = ConeLabel(True, 0)
    assert key_compare(up, (1, 4), (0, 4)) == 0
    # lower-left cone: the doubled key of (-3, -3) is 3 + 3*sqrt(3),
    # between 1 + 4*sqrt(3) at (-4, -1) and 2 + 4*sqrt(3) at (-4, -2)
    lower_left = ConeLabel(True, 1)
    assert key_compare(lower_left, (-3, -3), (-4, -1)) > 0
    assert key_compare(lower_left, (-3, -3), (-4, -2)) < 0
    # (1, -4) is not in the upward cone, so it has no key there
    assert cone_of(O, (1, -4)) != up


def test_key_compare_orders_by_projection():
    lab = ConeLabel(True, 0)
    assert key_compare(lab, (-1, 3), (1, 4)) < 0
    assert key_compare(lab, (1, 4), (-1, 3)) > 0


@given(points, points)
def test_key_compare_antisymmetry(p, q):
    if p[1] <= 0 or q[1] <= 0:
        return
    lab = ConeLabel(True, 0)
    try:
        if cone_of(O, p) != lab or cone_of(O, q) != lab:
            return
    except GeneralPositionError:
        return
    assert key_compare(lab, p, q) == -key_compare(lab, q, p)


def _directions_by_sector(rng, count, size) -> list:
    """count random integer directions of |coordinate| <= size for each
    sector 0..5, sorted into sectors by the oracle's half-plane test."""
    out = [[] for _ in range(6)]
    while min(map(len, out)) < count:
        d = rng.randint(-size, size), rng.randint(-size, size)
        try:
            sector = _oracle_sector(*d)
        except ValueError:
            continue  # on a cone boundary
        if len(out[sector]) < count:
            out[sector].append(d)
    return out


def test_cone_table_matches_the_oracle():
    # The one table of the six cones, against the oracle's own keys.
    table = {
        label: {tuple(row) for row in cones.CODE_KEY[3 * sector : 3 * sector + 3].tolist()}
        for sector, label in enumerate(cones._SECTOR_LABEL)
    }
    for i in range(3):
        (ka, kb), = table[ConeLabel(True, i)]
        assert table[ConeLabel(False, i)] == {(-ka, -kb)}
    for sector in range(6):
        for bx, by in cones.CODE_BISECTOR[3 * sector : 3 * sector + 3].tolist():
            assert math.hypot(bx, by) == pytest.approx(1.0, abs=1e-15)
            assert 60 * sector < math.degrees(math.atan2(by, bx)) % 360 < 60 * (sector + 1)
    rng = random.Random(2501)
    for size, dtype in ((2**29 - 1, np.int64), (10**30, object)):
        for sector, dirs in enumerate(_directions_by_sector(rng, 200, size)):
            (ka, kb), = table[cones._SECTOR_LABEL[sector]]
            keys = []
            for dx, dy in dirs:
                if cones._SECTOR_LABEL[sector].positive:
                    keys.append(_oracle_key(sector, dx, dy))
                    assert (ka * dy, kb * dx) == keys[-1]
                else:  # the key of -d in the positive cone of one index
                    keys.append(_oracle_key(_oracle_sector(-dx, -dy), -dx, -dy))
            dx, dy = np.array(dirs, dtype=dtype).T
            lo, hi = key_bounds(np.full(len(dirs), 3 * sector), dx, dy)
            scale = cones.KEY_SCALE
            for (a, b), low, high in zip(keys, lo.tolist(), hi.tolist()):
                strict = 1 if b > 0 else 0
                assert sqrt3_sign(scale * a - low, scale * b) >= strict
                assert sqrt3_sign(high - scale * a, -scale * b) >= strict


def test_canonical_triangle_unit_up():
    tri = canonical_triangle(O, (0, 1))
    apex, a, b, m = tri.float_points()
    assert apex == (0.0, 0.0)
    s = 1 / math.sqrt(3)
    assert a[0] == pytest.approx(-s) and a[1] == pytest.approx(1.0)
    assert b[0] == pytest.approx(s) and b[1] == pytest.approx(1.0)
    assert m == (0.0, 1.0)
    assert float(tri.height) == pytest.approx(1.0)


def test_canonical_triangle_requires_positive_cone():
    with pytest.raises(ValueError):
        canonical_triangle(O, (4, 1))  # C1- direction


def test_canonical_triangle_far_side_through_point():
    # far side is horizontal through v; m is its midpoint, above the apex
    tri = canonical_triangle((2, 3), (1, 7))
    _, a, b, m = tri.float_points()
    assert a[1] == b[1] == pytest.approx(7.0)
    assert m[0] == pytest.approx(2.0) and m[1] == pytest.approx(7.0)
    assert a[0] < 1 < b[0]  # v strictly between the far corners
    side = abs(b[0] - a[0])
    assert side == pytest.approx(8 / math.sqrt(3))
    assert float(tri.height) == pytest.approx(4.0)


SPIKE_UP = [(0, 0), (20, 100), (-5, 101)]


def split_scene(extra):
    return Scene(SPIKE_UP + extra, [[0, 1, 2]])


def test_split_cone_label_spike():
    sc = split_scene([(-60, 205), (70, 190)])
    index = ConeIndex(sc)
    assert index.split_label(0) == ConeLabel(True, 0)
    # free vertices and non-apex corners are unsplit
    assert index.split_label(3) is None
    assert index.split_label(1) is None


def test_subcone_sides_of_split_cone():
    sc = split_scene([(-60, 205), (70, 190)])
    index = ConeIndex(sc)
    left = index.subcone_of(0, 3)
    right = index.subcone_of(0, 4)
    assert left == SubconeRef(0, ConeLabel(True, 0), SIDE_LEFT)
    assert right == SubconeRef(0, ConeLabel(True, 0), SIDE_RIGHT)


def test_subcone_inside_wedge_raises():
    # direction between the two spike edges: hidden behind the obstacle
    sc = split_scene([(3, 150)])
    with pytest.raises(ValueError):
        ConeIndex(sc).subcone_of(0, 3)


def test_reverse_into_wedge_still_raises():
    # 3 sees 0 in a whole cone, but from the spike's corner 0 the
    # direction to 3 lies inside the wedge: the sector kept from (3, 0)
    # must not classify (0, 3).
    index = ConeIndex(split_scene([(3, 150)]))
    assert str(index.subcone_of(3, 0)) == "C0-@3"
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            index.subcone_of(0, 3)
        assert str(exc.value) == (
            "vertex 3 lies strictly inside the obstacle wedge at vertex 0"
        )


def test_subcone_unsplit_is_whole():
    sc = split_scene([(-60, 205)])
    ref = ConeIndex(sc).subcone_of(3, 0)
    assert ref.side == SIDE_WHOLE
    assert ref.apex == 3


def _sequences_at(scene, apex, members):
    """(subcone, members) of apex's canonical sequences in a star graph."""
    star = Graph(scene.n, [(apex, v) for v in members])
    table = canonical_sequences(scene, star, ConeIndex(scene))
    return [(str(ref), seq.vertices) for ref, seq in table.items() if ref.apex == apex]


def test_subcones_enumeration():
    # The spike turned upside down splits C0- of vertex 0; vertices 3
    # and 4 lie on its two sides, 5 in C1- and 6 in C2-.
    extra = [(-60, 205), (70, 190), (-40, -5), (40, -7), (-100, -10)]
    sc = Scene([(-x, -y) for x, y in SPIKE_UP + extra], [[0, 1, 2]])
    index = ConeIndex(sc)
    assert index.split_label(0) == ConeLabel(False, 0)
    assert _sequences_at(sc, 0, [6, 5, 4, 3]) == [
        ("C0-@0/right", (4,)),
        ("C0-@0/left", (3,)),
        ("C1-@0", (5,)),
        ("C2-@0", (6,)),
    ]
    # free vertex 5 has members in all three negative cones, each whole
    assert [ref for ref, _ in _sequences_at(sc, 5, [0, 1, 2, 3, 4, 6, 7])] == [
        "C0-@5",
        "C1-@5",
        "C2-@5",
    ]
    # one gather classifies the same pairs, the right side's code first
    codes = index.codes(np.zeros(4, dtype=np.intp), np.array([4, 3, 5, 6]))
    assert [str(index.subcone_of(0, v)) for v in (4, 3, 5, 6)] == [
        "C0-@0/right", "C0-@0/left", "C1-@0", "C2-@0"
    ]
    assert codes[0] + 1 == codes[1]
    assert not cones.CODE_POSITIVE[codes].any()
    assert cones.CODE_RUN_ORDER[codes].tolist() == [1, 2, 3, 6]


def test_ccw_sorted_within_cone():
    sc = Scene([(0, 0), (3, 14), (-3, 14), (1, 9)])
    out = ccw_sorted(sc, 0, [1, 2, 3])
    angles = [math.atan2(*reversed(sc.ipoints[i])) for i in out]
    assert angles == sorted(angles)
    assert out == [1, 3, 2]


def test_subcone_ref_str():
    ref = SubconeRef(5, ConeLabel(True, 0), SIDE_RIGHT)
    assert str(ref) == "C0+@5/right"
    assert str(SubconeRef(2, ConeLabel(False, 1))) == "C1-@2"


def test_subcone_ref_repr():
    assert repr(SubconeRef(5, ConeLabel(True, 0), SIDE_RIGHT)) == (
        "SubconeRef(apex=5, label=ConeLabel(positive=True, index=0), side='right')"
    )
    assert repr(SubconeRef(2, ConeLabel(False, 1))) == (
        "SubconeRef(apex=2, label=ConeLabel(positive=False, index=1), side='whole')"
    )


def test_subcone_refs_sort_by_apex_label_side():
    # The order g7_transform walks its charge table in: apex, then
    # negative before positive, cone index, then side by name.
    want = [
        SubconeRef(1, ConeLabel(False, 2)),
        SubconeRef(1, ConeLabel(True, 0), SIDE_LEFT),
        SubconeRef(1, ConeLabel(True, 0), SIDE_RIGHT),
        SubconeRef(1, ConeLabel(True, 1)),
        SubconeRef(4, ConeLabel(False, 0), SIDE_LEFT),
        SubconeRef(4, ConeLabel(False, 0), SIDE_RIGHT),
        SubconeRef(4, ConeLabel(False, 1)),
        SubconeRef(10, ConeLabel(True, 2)),
    ]
    shuffled = want[:]
    random.Random(7).shuffle(shuffled)
    assert sorted(shuffled) == want
    assert sorted({ref: None for ref in shuffled}) == want


def test_subcone_refs_are_values():
    a = SubconeRef(3, ConeLabel(True, 1), SIDE_LEFT)
    b = SubconeRef(3, ConeLabel(True, 1), SIDE_LEFT)
    assert a == b and hash(a) == hash(b) and len({a: 1, b: 2}) == 1
    assert a != SubconeRef(3, ConeLabel(True, 1), SIDE_RIGHT)
    for obj, field in ((a, "apex"), (a, "side"), (a.label, "index")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)


def _wedge_probes(rng):
    """Seeded wedges (d_next, d_prev) and directions: small ints, where
    straight corners and directions along d_next, d_prev and their
    opposites are common, and large ints."""
    for bound in (3, 10**30):
        for _ in range(4000):
            dn, dp, d = (
                (rng.randint(-bound, bound), rng.randint(-bound, bound))
                for _ in range(3)
            )
            if dn != (0, 0) and dp != (0, 0):
                yield dn, dp, d
    for _ in range(2000):
        dn = (rng.randint(-9, 9), rng.randint(1, 9))
        dp = (rng.randint(-9, 9), rng.randint(1, 9))
        k = rng.randint(1, 4)
        for base in (dn, dp):
            for s in (k, -k):
                yield dn, dp, (s * base[0], s * base[1])


def test_inside_wedge_matches_half_plane_reference():
    rng = random.Random(20202)
    kinds = {"convex": 0, "straight": 0, "reflex": 0}
    along = 0
    for dn, dp, d in _wedge_probes(rng):
        c = cross(*dn, *dp)
        if c:
            kinds["convex" if c > 0 else "reflex"] += 1
        elif dn[0] * dp[0] + dn[1] * dp[1] < 0:
            kinds["straight"] += 1
        along += d != (0, 0) and (cross(*dn, *d) == 0 or cross(*dp, *d) == 0)
        got = inside_wedge((dn, dp), *d)
        assert got == reference_cones.inside_wedge((dn, dp), *d), (dn, dp, d)
    assert min(kinds.values()) > 100 and along > 1000
