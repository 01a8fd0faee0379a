"""Reference canonical sequences: one subcone at a time.

This is the original implementation of the canonical sequences. It
rebuilds the sequence of each negative subcone on its own, classifying
every neighbor of the apex once per subcone, and finds the closest
member with a separate scan. The library now builds every sequence and
its closest member in one pass (``spanners.canonical_sequences``); the
differential test in ``test_spanners.py`` compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from polyspanner.cones import ConeLabel, SubconeRef, ccw_sorted, key_compare
from polyspanner.scene import Scene
from polyspanner.visibility import Graph

from tests.conftest import neighbors
from tests.reference_cones import subcone_of, subcones


def _closest(scene: Scene, apex: int, label: ConeLabel, members) -> int:
    ax, ay = scene.ipoints[apex]
    best = None
    best_d = None
    for v in members:
        vx, vy = scene.ipoints[v]
        d = (vx - ax, vy - ay)
        if best is None or key_compare(label, d, best_d) < 0:
            best = v
            best_d = d
    return best


@dataclass(frozen=True)
class CanonicalSequence:
    """Neighbors of the apex inside one negative subcone, in
    counterclockwise order around the apex."""

    apex: int
    subcone: SubconeRef
    vertices: tuple

    def consecutive_pairs(self):
        return list(zip(self.vertices, self.vertices[1:]))


def canonical_sequence(
    scene: Scene, ginf: Graph, apex: int, subcone: SubconeRef
) -> CanonicalSequence:
    if subcone.apex != apex or subcone.label.positive:
        raise ValueError(f"{subcone} is not a negative subcone of vertex {apex}")
    members = [
        v for v in neighbors(ginf, apex) if subcone_of(scene, apex, v) == subcone
    ]
    return CanonicalSequence(apex, subcone, tuple(ccw_sorted(scene, apex, members)))


def _negative_sequences(scene: Scene, ginf: Graph, apex: int):
    """Nonempty canonical sequences at a vertex, deterministic order."""
    out = []
    for ref in subcones(scene, apex, positive=False):
        seq = canonical_sequence(scene, ginf, apex, ref)
        if seq.vertices:
            out.append(seq)
    return out
