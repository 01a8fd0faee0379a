"""The degree-reduction steps match their reference copies
(``tests/reference_g7.py``): the charge table item for item, in order,
the path charges of each canonical sequence, the first error of a charge
build, and the g7 graph and transcript, on a corpus that reaches every
g7 branch."""

import functools
from typing import NamedTuple

import numpy as np
import pytest

from tests import reference_g7
from tests.output_digest import scenes

from polyspanner.cones import IN_WEDGE, ConeIndex
from polyspanner.generator import GeneratorConfig, generate
from polyspanner.spanners import (
    _edge,
    build_g10,
    build_g_infinity,
    canonical_sequences,
    compute_charges,
    g7_transform,
    path_charges,
)
from polyspanner.visibility import Graph, visibility_graph


class Run(NamedTuple):
    scene: object
    index: ConeIndex
    ginf: Graph
    g10: Graph
    got: tuple  # library (charge items, g7 result)
    want: tuple  # reference (charge items, g7 result)


@functools.cache
def _runs():
    """One run per scene of the full digest corpus: the fixtures, also
    rescaled by 2^60 and 3^-40, the acceptance configurations and 40
    build-dense-sized scenes. The library's charge table is built before
    its g7_transform, on the same index."""
    out = []
    for _, scene in scenes("full"):
        ginf = build_g_infinity(scene, visibility_graph(scene))
        index = ginf.index
        g10 = build_g10(scene, ginf)
        got = (list(compute_charges(scene, ginf, index).items()), g7_transform(scene, ginf, g10, index))
        want = (list(reference_g7.compute_charges(scene, ginf, index).items()),
                reference_g7.g7_transform(scene, ginf, g10, index))
        out.append(Run(scene, index, ginf, g10, got, want))
    return out


def test_corpus_reaches_every_g7_branch():
    transcript = [t for run in _runs() for t in run.want[1].transformations]
    assert sum(t.absorbed for t in transcript) > 0
    assert sum(not t.absorbed for t in transcript) > 0
    assert sum(t.removed_xw is not None for t in transcript) > 0
    assert sum(t.uncharged_xw is not None for t in transcript) > 0


def test_charges_and_g7_match_reference():
    for run in _runs():
        assert run.got == run.want


def _by_owner(pairs) -> dict:
    """owner subcone -> paying subcone -> its charges, in order."""
    out: dict = {}
    for ref, c in pairs:
        out.setdefault(c.owner_subcone, {}).setdefault(ref, []).append(c)
    return out


def test_path_charges_match_the_reference_c_and_d_charges():
    # Per owner, the path table holds exactly the reference table's C
    # and D charges of that owner, in each paying subcone's order, and
    # comes edge by edge along the owner's path, each edge's two ends
    # in a row.
    for run in _runs():
        paths = path_charges(run.scene, run.ginf, run.index)
        table = canonical_sequences(run.scene, run.ginf, run.index)
        want = _by_owner((ref, c) for ref, cs in run.want[0] for c in cs if c.scenario in "CD")
        assert _by_owner(pair for pairs in paths.values() for pair in pairs) == want
        for owner, pairs in paths.items():
            path = [_edge(p, q) for p, q in table[owner].consecutive_pairs]
            assert path and [c.edge for _, c in pairs] == [e for e in path for _ in (0, 1)]
            assert {c.owner_subcone for _, c in pairs} == {owner}


def test_g7_does_not_depend_on_an_earlier_charge_table():
    # On a fresh index g7_transform builds no charge table and returns
    # what it returns after one; a charge table built after it is the
    # one built before.
    for run in _runs():
        index = ConeIndex(run.scene)
        assert g7_transform(run.scene, run.ginf, run.g10, index) == run.got[1]
        assert index.charges == {}
        assert list(compute_charges(run.scene, run.ginf, index).items()) == run.got[0]


def _error(build, scene, ginf):
    with pytest.raises(ValueError) as exc:
        build(scene, ginf, ConeIndex(scene))
    return type(exc.value), str(exc.value)


def test_charge_builds_raise_the_reference_first_error():
    # Each digest-corpus scene with a pair inside an obstacle wedge,
    # its ginf given the least such pair, and one ginf given a vis edge
    # whose path lookup meets a wedge: the library raises what the
    # reference raises. A and C lookups read ginf pairs, which the
    # sequence table has classified both ways, so only a path lookup
    # or a split label can raise, in the reference's order. A wedge pair
    # in ginf itself raises in the sequence table, which both share; the
    # vis edge raises in a path lookup.
    cases = []
    for run in _runs():
        wedged = np.argwhere(run.index.classification.codes == IN_WEDGE)
        if len(wedged):
            pair = min(tuple(sorted(map(int, uv))) for uv in wedged)
            cases.append((run.scene, Graph(run.scene.n, sorted(run.ginf.edges) + [pair])))
    scene = generate(GeneratorConfig(n_points=20, n_obstacles=2, seed=0))
    ginf = build_g_infinity(scene, visibility_graph(scene))
    cases.append((scene, Graph(scene.n, ginf.sorted_edges() + [(0, 6)])))
    assert len(cases) > 1
    for scene, bad in cases:
        assert _error(compute_charges, scene, bad) == _error(reference_g7.compute_charges, scene, bad)
