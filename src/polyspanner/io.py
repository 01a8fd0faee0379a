"""Instance files and graph serialization.

Instance format: JSON object {"vertices": [[x, y], ...], "obstacles":
[[i, j, k, ...], ...]} where a coordinate is an integer, a decimal
number, or a string holding a decimal or "p/q" rational. All forms
parse to exact rationals.

Graph format: a header line "n m" followed by m lines "u v" with
u < v, sorted.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .scene import Scene, SceneError
from .visibility import Graph


class ParseError(ValueError):
    pass


# Python's own default limit on int <-> str conversion. Fraction expands
# a decimal exponent into an integer with that many digits, so a larger
# exponent, or a longer mantissa, would stall parsing.
_MAX_DIGITS = 4300


def _fraction(text: str) -> Fraction:
    """Fraction of a decimal or "p/q" string with at most _MAX_DIGITS
    mantissa digits and an exponent of at most _MAX_DIGITS in size."""
    mantissa, _, exponent = text.lower().partition("e")
    try:
        too_big = abs(int(exponent or 0)) > _MAX_DIGITS
    except ValueError:
        too_big = False  # malformed; Fraction rejects it
    if too_big or sum(ch.isdigit() for ch in mantissa) > _MAX_DIGITS:
        raise ParseError(f"number {text[:40]!r} has more than {_MAX_DIGITS} digits")
    return Fraction(text)


def _coordinate(value, where: str):
    """An int or Fraction as it came, for ``Scene`` to convert, or the
    Fraction of a coordinate string."""
    if isinstance(value, bool):
        raise ParseError(f"{where}: boolean is not a coordinate")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        try:
            return _fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad coordinate {value!r} ({exc})")
    if isinstance(value, float):
        # Reachable only for inf/nan; finite literals arrive as Fraction
        # through the parse hook below.
        raise ParseError(f"{where}: non-finite coordinate {value!r}")
    raise ParseError(f"{where}: bad coordinate type {type(value).__name__}")


def parse_instance(text: str) -> Scene:
    """The scene of an instance document; a scene that fails
    ``validate`` raises ParseError naming its first violations."""
    try:
        doc = json.loads(text, parse_float=_fraction)
    except ParseError:
        raise
    except ValueError as exc:
        # JSONDecodeError and hook failures (e.g. Fraction("Infinity"))
        raise ParseError(f"not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    unknown = set(doc) - {"vertices", "obstacles"}
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list):
        raise ParseError('"vertices" must be a list')
    vertices = []
    for i, pair in enumerate(raw_vertices):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"vertices[{i}]: expected [x, y]")
        vertices.append(
            (
                _coordinate(pair[0], f"vertices[{i}][0]"),
                _coordinate(pair[1], f"vertices[{i}][1]"),
            )
        )
    raw_obstacles = doc.get("obstacles", [])
    if not isinstance(raw_obstacles, list):
        raise ParseError('"obstacles" must be a list')
    obstacles = []
    for oi, ring in enumerate(raw_obstacles):
        if not isinstance(ring, list):
            raise ParseError(f"obstacles[{oi}]: expected a list of indices")
        for j, item in enumerate(ring):
            if isinstance(item, bool) or not isinstance(item, int):
                raise ParseError(f"obstacles[{oi}][{j}]: expected an integer index")
        obstacles.append(list(ring))
    try:
        scene = Scene(vertices, obstacles)
    except SceneError as exc:
        raise ParseError(str(exc))
    res = scene.validation()
    if not res.ok:
        head = "; ".join(v.detail for v in res.violations[:3])
        raise ParseError(f"scene failed validation: {head}")
    return scene


def _coordinate_text(value: Fraction):
    if value.denominator == 1:
        return int(value)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    shift = max(twos, fives)
    scaled = value.numerator * 10**shift // value.denominator
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def write_instance(scene: Scene) -> str:
    def rows(items):
        if not items:
            return " []"
        body = ",\n".join("    " + json.dumps(row) for row in items)
        return " [\n" + body + "\n  ]"

    vertices = [
        [_coordinate_text(x), _coordinate_text(y)] for x, y in scene.vertices
    ]
    obstacles = [list(ring) for ring in scene.obstacles]
    return (
        "{\n"
        f'  "vertices":{rows(vertices)},\n'
        f'  "obstacles":{rows(obstacles)}\n'
        "}\n"
    )


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f'bad header {lines[0]!r}, expected "n m"')
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"bad header {lines[0]!r}")
    if len(lines) - 1 != m:
        raise ParseError(f"header claims {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad edge line {ln!r}")
        if u == v:
            raise ParseError(f"loop edge at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u}, {v}) out of range for n={n}")
        edges.append((u, v))
    return Graph(n, edges)
