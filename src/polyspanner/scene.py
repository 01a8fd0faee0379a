"""Point sets with vertex-disjoint polygonal obstacles.

A scene is a list of exact rational vertices plus obstacles given as
index rings. Obstacle corners are ordinary vertices; rings are
normalized to counterclockwise at construction. Every vertex also gets
integer coordinates on a common denominator so the hot predicates run
on plain ints: ``ipoints[i]`` is vertex i, ``ipolygons[oi]`` the corner
points of obstacle oi and ``ibboxes[oi]`` its box (x0, y0, x1, y1).
These tuples are the one spelling of the scene's integer geometry.

A scene also owns each pure function of itself, made on first call,
kept in a slot and shared read-only: ``validation()``,
``general_position()`` and the exact arrays that every array pass
reads, ``exact_points()`` (int64, or Python ints at ``INT64_GUARD``)
and ``obstacle_wedges()``. Nothing of a run, such as its
``cones.ConeIndex``, is kept on a scene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .geom import (
    COLLINEAR,
    orient,
    point_in_polygon,
    polygon_signed_area2,
    segment_properly_intersects_polygon,
    segments_intersect_closed,
)


# Elements per array in one block of pairs, so memory stays bounded; for
# ``visibility_graph`` at n = 480 with 48 obstacles 2^16 ran faster than
# 2^20 and held less.
BLOCK = 1 << 16

# Below this bound on |coordinate| coordinate differences stay under
# 2^30, so 3 dx^2, every 2x2 determinant of differences, the
# ``cones.key_bounds`` (under 2^52) and the packed directions of
# ``check_general_position`` (under 2^62) fit in int64; at or above it
# the arrays hold Python ints.
INT64_GUARD = 1 << 29


def _exact(c) -> Fraction:
    """c as a Fraction, keeping one that already is (a parsed string)."""
    return c if type(c) is Fraction else Fraction(c)


class SceneError(ValueError):
    pass


class Scene:
    """Immutable vertex set plus obstacle rings (counterclockwise)."""

    __slots__ = (
        "vertices",
        "obstacles",
        "scale",
        "ipoints",
        "ipolygons",
        "ibboxes",
        "_boundary_prev_next",
        "_validation",
        "_general_position",
        "_exact_points",
        "_obstacle_wedges",
    )

    def __init__(self, vertices: Sequence, obstacles: Sequence = ()):
        self.vertices = tuple((_exact(v[0]), _exact(v[1])) for v in vertices)
        n = len(self.vertices)
        # Each coordinate's numerator times scale // its denominator is
        # the coordinate times scale, exactly and with no Fraction product.
        self.scale = scale = math.lcm(*{c.denominator for p in self.vertices for c in p})
        self.ipoints = tuple(
            (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
            for x, y in self.vertices
        )

        rings = []
        for ring in obstacles:
            idx = tuple(int(i) for i in ring)
            if not idx:
                raise SceneError(f"obstacle {len(rings)} is empty")
            for i in idx:
                if not 0 <= i < n:
                    raise SceneError(f"obstacle index {i} out of range (n={n})")
            # The integer ring's area is the rational one times scale^2.
            if len(idx) >= 3 and polygon_signed_area2([self.ipoints[i] for i in idx]) < 0:
                idx = idx[::-1]
            rings.append(idx)
        self.obstacles = tuple(rings)

        prev_next: dict[int, tuple] = {}
        for ring in self.obstacles:
            k = len(ring)
            for pos, vi in enumerate(ring):
                prev_next.setdefault(vi, (ring[pos - 1], ring[(pos + 1) % k]))
        self._boundary_prev_next = prev_next
        self.ipolygons = tuple(
            tuple(self.ipoints[i] for i in ring) for ring in self.obstacles
        )
        self.ibboxes = tuple(
            (
                min(p[0] for p in poly),
                min(p[1] for p in poly),
                max(p[0] for p in poly),
                max(p[1] for p in poly),
            )
            for poly in self.ipolygons
        )
        self._validation = self._general_position = None
        self._exact_points = self._obstacle_wedges = None

    # -- basic accessors -----------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def boundary_neighbors(self, vi: int) -> Optional[tuple]:
        """(prev, next) along the obstacle boundary through vi, if any."""
        return self._boundary_prev_next.get(vi)

    def crossed_obstacles(self, a, b) -> Iterator[int]:
        """Indices, ascending, of the obstacles whose interior the open
        segment ab meets, yielded lazily. A ring whose box misses the
        segment's closed box is skipped unread; it cannot meet ab.
        ``check_planarity`` uses it for every edge of the graph it
        sweeps, which in ``run_verification`` is the union of the four
        spanners, so each edge is tested once per run;
        ``visibility_graph`` only for pairs with an irregular endpoint,
        which its array tests cannot decide."""
        sx0, sx1 = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
        sy0, sy1 = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
        for oi, (bx0, by0, bx1, by1) in enumerate(self.ibboxes):
            if sx1 < bx0 or bx1 < sx0 or sy1 < by0 or by1 < sy0:
                continue
            if segment_properly_intersects_polygon(a, b, self.ipolygons[oi]):
                yield oi

    def validation(self) -> "ValidationResult":
        """``validate`` of this scene, on first call only. The scene is
        immutable, so parsing, generating and verifying it share one
        report."""
        if self._validation is None:
            self._validation = validate(self)
        return self._validation

    def general_position(self) -> "GeneralPositionReport":
        """``check_general_position`` of this scene, on first call only,
        so generating, building and verifying it share one report."""
        if self._general_position is None:
            self._general_position = check_general_position(self)
        return self._general_position

    def exact_points(self) -> np.ndarray:
        """The read-only n x 2 array of ``ipoints``, made on first call:
        int64 when every |coordinate| is below ``INT64_GUARD``, else
        Python ints (dtype object)."""
        if self._exact_points is None:
            coords = [c for p in self.ipoints for c in p]
            small = -INT64_GUARD < min(coords, default=0) and max(coords, default=0) < INT64_GUARD
            xy = np.array(self.ipoints, dtype=np.int64 if small else object).reshape(self.n, 2)
            xy.flags.writeable = False
            self._exact_points = xy
        return self._exact_points

    def obstacle_wedges(self) -> tuple:
        """(corner, wedges), read-only, made on first call: whether each
        vertex is an obstacle corner, and the 2 x 2 x n array (d_next,
        d_prev) of the boundary edges leaving it toward its next and
        previous ring neighbour, on ``exact_points``. The obstacle
        interior near a corner spans d_next counterclockwise to d_prev;
        a free vertex gets two zero edges, inside which nothing lies."""
        if self._obstacle_wedges is None:
            n, xy = self.n, self.exact_points()
            corner = np.zeros(n, dtype=bool)
            corner[list(self._boundary_prev_next)] = True
            ends = [self._boundary_prev_next.get(v, (v, v))[::-1] for v in range(n)]
            to = np.array(ends, dtype=np.intp).reshape(n, 2).T
            wedges = np.ascontiguousarray((xy[to] - xy).transpose(0, 2, 1))
            corner.flags.writeable = wedges.flags.writeable = False
            self._obstacle_wedges = (corner, wedges)
        return self._obstacle_wedges

    def obstacle_edges(self):
        for oi, ring in enumerate(self.obstacles):
            k = len(ring)
            for pos in range(k):
                yield ring[pos], ring[(pos + 1) % k]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scene)
            and self.vertices == other.vertices
            and self.obstacles == other.obstacles
        )

    def __hash__(self):
        return hash((self.vertices, self.obstacles))

    def __repr__(self) -> str:
        return f"Scene(n={self.n}, obstacles={len(self.obstacles)})"


# --- validation ------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str
    indices: tuple = ()


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(scene: Scene) -> ValidationResult:
    """Check every scene invariant; returns all violations found."""
    out = []

    seen: dict[tuple, int] = {}
    for i, p in enumerate(scene.ipoints):
        if p in seen:
            out.append(
                Violation(
                    "duplicate-vertex",
                    f"vertices {seen[p]} and {i} coincide",
                    (seen[p], i),
                )
            )
        else:
            seen[p] = i

    for oi, ring in enumerate(scene.obstacles):
        if len(ring) < 3:
            out.append(
                Violation("degenerate-obstacle", f"obstacle {oi} has fewer than 3 vertices", (oi,))
            )
            continue
        if len(set(ring)) != len(ring):
            out.append(
                Violation("repeated-index", f"obstacle {oi} repeats a vertex index", (oi,))
            )
            continue
        out.extend(_simplicity_violations(scene, oi))

    owners: dict[int, set] = {}
    for oi, ring in enumerate(scene.obstacles):
        for vi in ring:
            owners.setdefault(vi, set()).add(oi)
    shared = {vi: sorted(obs) for vi, obs in owners.items() if len(obs) > 1}
    for vi, obs in sorted(shared.items()):
        out.append(
            Violation(
                "shared-vertex",
                f"vertex {vi} belongs to obstacles {obs}",
                (vi, *obs),
            )
        )

    out.extend(_disjointness_violations(scene))
    out.extend(_containment_violations(scene))
    return ValidationResult(tuple(out))


def _simplicity_violations(scene: Scene, oi: int):
    ring = scene.obstacles[oi]
    k = len(ring)
    pts = scene.ipolygons[oi]
    out = []
    for i in range(k):
        a, b = pts[i], pts[(i + 1) % k]
        # Adjacent edge turning back on itself.
        c = pts[(i + 2) % k]
        if (
            orient(a, b, c) == COLLINEAR
            and (a[0] - b[0]) * (c[0] - b[0]) + (a[1] - b[1]) * (c[1] - b[1]) > 0
        ):
            out.append(
                Violation(
                    "non-simple-obstacle",
                    f"obstacle {oi} folds back at vertex {ring[(i + 1) % k]}",
                    (oi,),
                )
            )
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue  # adjacent around the wrap
            c, d = pts[j], pts[(j + 1) % k]
            if segments_intersect_closed(a, b, c, d):
                out.append(
                    Violation(
                        "non-simple-obstacle",
                        f"obstacle {oi} edges {i} and {j} intersect",
                        (oi,),
                    )
                )
    return out


def _disjointness_violations(scene: Scene):
    out = []
    m = len(scene.obstacles)
    for oa in range(m):
        for ob in range(oa + 1, m):
            if _bboxes_disjoint(scene.ibboxes[oa], scene.ibboxes[ob]):
                continue
            ra, rb = scene.obstacles[oa], scene.obstacles[ob]
            if set(ra) & set(rb):
                continue  # already reported as shared-vertex
            hit = False
            pa, pb = scene.ipolygons[oa], scene.ipolygons[ob]
            for i in range(len(ra)):
                a, b = pa[i], pa[(i + 1) % len(ra)]
                for j in range(len(rb)):
                    c, d = pb[j], pb[(j + 1) % len(rb)]
                    if segments_intersect_closed(a, b, c, d):
                        hit = True
                        break
                if hit:
                    break
            if not hit:
                # Boundaries are disjoint; check nesting.
                if point_in_polygon(pa[0], pb) > 0 or point_in_polygon(pb[0], pa) > 0:
                    hit = True
            if hit:
                out.append(
                    Violation(
                        "obstacles-intersect",
                        f"obstacles {oa} and {ob} are not disjoint",
                        (oa, ob),
                    )
                )
    return out


def _containment_violations(scene: Scene):
    out = []
    for oi in range(len(scene.obstacles)):
        ring = set(scene.obstacles[oi])
        poly = scene.ipolygons[oi]
        bx0, by0, bx1, by1 = scene.ibboxes[oi]
        for vi in range(scene.n):
            if vi in ring:
                continue
            x, y = scene.ipoints[vi]
            if not (bx0 <= x <= bx1 and by0 <= y <= by1):
                continue
            if point_in_polygon((x, y), poly) > 0:
                out.append(
                    Violation(
                        "vertex-inside-obstacle",
                        f"vertex {vi} lies in the interior of obstacle {oi}",
                        (vi, oi),
                    )
                )
    return out


def _bboxes_disjoint(a, b) -> bool:
    return a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]


# --- general position -------------------------------------------------------


@dataclass(frozen=True)
class GeneralPositionReport:
    parallel_count: int  # pairs i < j on a cone-boundary slope
    first_parallel: Optional[tuple]  # the first such (i, j), or None
    collinear_count: int  # collinear triples i < j < k
    first_collinear: Optional[tuple]  # the first such (i, j, k), or None

    @property
    def ok(self) -> bool:
        return not self.parallel_count and not self.collinear_count


def check_general_position(scene: Scene) -> GeneralPositionReport:
    """Count vertex pairs on lines of slope {0, +sqrt3, -sqrt3} and
    collinear vertex triples, keeping the first of each. All tests are
    exact, and one array pass over the pairs decides both. An integer
    offset (dx, dy) never has slope +-sqrt3, so only dy == 0 can flag a
    pair. Triples are counted per apex i and direction: each direction
    reduced by its gcd, signed so that dx > 0 or dx == 0 < dy, and
    packed into one integer key, so one sort of each row over j > i
    lines up the later points on each line through i, and a run of m
    keys holds m(m-1)/2 triples. The first triple is at the least apex,
    in the line whose first member is least. Rows go through in blocks
    of about ``BLOCK`` elements of the scene's ``exact_points``, so even
    collinear input takes O(n^2) time and bounded memory. On int64
    coordinates a float screen comes first: only a block in which
    ``_slope_tie`` finds two later points of one float slope makes the
    exact keys, so floats choose which exact work runs and decide
    nothing. Python-int coordinates, at or above ``INT64_GUARD``, always
    make the keys."""
    n = scene.n
    xy = scene.exact_points()
    x, y = xy[:, 0], xy[:, 1]
    # |dy| < stride / 2 keeps dx * stride + dy one-to-one; the pairs left out
    # get keys from base up, above every direction's and distinct per column.
    stride = 2 * int(y.max() - y.min()) + 1 if n else 1
    base = stride * (int(x.max() - x.min()) + 1) if n else 0
    fill = base + np.arange(n, dtype=xy.dtype)
    screen = xy.dtype == np.int64
    if screen:
        xf, yf = x.astype(float), y.astype(float)
    parallel, first_pair = 0, None
    count, first = 0, None
    rows = max(1, BLOCK // max(n, 1))
    for i0 in range(0, n, rows):
        apex = np.arange(i0, min(n, i0 + rows))
        later = np.arange(i0 + 1, n)
        flat = (y[later] == y[apex, None]) & (later > apex[:, None])
        if flat.any():
            parallel += int(np.count_nonzero(flat))
            if first_pair is None:
                r, j = divmod(int(flat.argmax()), later.size)
                first_pair = (i0 + r, i0 + 1 + j)
        if screen and not _slope_tie(xf, yf, i0, i0 + apex.size):
            continue
        key = _direction_keys(x, y, apex, later, stride, fill)
        key.sort(axis=1)
        same = key[:, 1:] == key[:, :-1]
        del key  # else it lives on while the next block's keys are made
        if not same.any():
            continue
        # Each run of L equal neighbours is a line of L + 1 points; its
        # ends alternate with its starts along the padded rows.
        ends = np.flatnonzero(np.diff(same, prepend=False, append=False, axis=1))
        runs = ends[1::2] - ends[::2]
        count += int((runs * (runs + 1) // 2).sum())
        if first is None:
            i = int(apex[same.any(axis=1).argmax()])
            line = _first_line(_direction_keys(x, y, np.array([i]), later, stride, fill)[0])
            first = (i, *(i0 + 1 + k for k in line))
    return GeneralPositionReport(parallel, first_pair, count, first)


def _slope_tie(xf, yf, i0, i1) -> bool:
    """True iff a row of apexes i0..i1-1 has two vertices after i0 of
    one float slope dy / dx from its apex: +inf where dx == 0, NaN at
    the apex and at a duplicate of it. Below ``INT64_GUARD`` every dx
    and dy is a float exactly and division rounds correctly, so two
    points on one line through the apex get the same slope. Columns
    before the apex are kept: three collinear vertices from i0 on put
    a tie in the row of the least of them, so a block with no tie has
    no collinear triple among its rows, and an extra tie only costs
    the exact keys."""
    dx, dy = xf[i0 + 1 :] - xf[i0:i1, None], yf[i0 + 1 :] - yf[i0:i1, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        dy /= dx
    np.abs(dy, out=dy, where=dx == 0)  # vertical both ways: +inf
    del dx
    dy.sort(axis=1)
    return bool((dy[:, 1:] == dy[:, :-1]).any())


def _direction_keys(x, y, apex, later, stride, fill) -> np.ndarray:
    """Rows for the apexes, columns for the vertices later: the packed
    reduced direction to each vertex after the apex, or fill's entry
    for the column at the apex itself, an earlier vertex or a duplicate
    point. The exact counterpart of ``_slope_tie``'s float slopes: two
    columns of a row share a key exactly when they share a slope. On
    int64 coordinates only a block where the screen found a tie makes
    these keys."""
    dx, dy = x[later] - x[apex, None], y[later] - y[apex, None]
    g = np.gcd(dx, dy)
    g[g == 0] = 1
    dx //= g
    dy //= g
    del g  # three blocks live at once at most
    skip = (dx == 0) & (dy == 0) | (later <= apex[:, None])
    flip = (dx < 0) | (dx == 0) & (dy < 0)
    dx *= stride
    dx += dy
    np.negative(dx, out=dx, where=flip)
    np.putmask(dx, skip, fill[later])
    return dx


def _first_line(key) -> tuple:
    """Positions in key of the two least members of one line: of the
    lines with two or more members, the one whose least member is
    least."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.flatnonzero(key[1:] == key[:-1])
    k = head[order[head].argmin()]
    return int(order[k]), int(order[k + 1])


# --- perturbation ------------------------------------------------------------


def perturb_by_rotation(scene: Scene, k: int) -> Scene:
    """Rotate the whole scene about the origin by the rational-trig
    angle with cos = (k^2-1)/(k^2+1), sin = 2k/(k^2+1).

    Rotation preserves every orientation predicate and all distances;
    it can repair cone-boundary-parallel pairs (the angle shrinks as k
    grows) but never collinear triples.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    den = k * k + 1
    c = Fraction(k * k - 1, den)
    s = Fraction(2 * k, den)
    rotated = [(x * c - y * s, x * s + y * c) for x, y in scene.vertices]
    return Scene(rotated, scene.obstacles)
