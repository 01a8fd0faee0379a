"""The degree-reduction steps match their reference copies
(``tests/reference_g7.py``): the charge table item for item, in order,
and the g7 graph and transcript, on a corpus that reaches every g7
branch."""

import functools

from tests import reference_g7
from tests.output_digest import scenes

from polyspanner.cones import ConeIndex
from polyspanner.spanners import build_g10, build_g_infinity, compute_charges, g7_transform
from polyspanner.visibility import visibility_graph


@functools.cache
def _runs():
    """(library, reference) charge items and g7 result per scene of the
    full digest corpus: the fixtures, also rescaled by 2^60 and 3^-40,
    the acceptance configurations and 40 build-dense-sized scenes."""
    out = []
    for _, scene in scenes("full"):
        index = ConeIndex(scene)
        ginf = build_g_infinity(scene, visibility_graph(scene, index))
        g10 = build_g10(scene, ginf)
        out.append((
            (list(compute_charges(scene, ginf, index).items()), g7_transform(scene, ginf, g10, index)),
            (list(reference_g7.compute_charges(scene, ginf, index).items()),
             reference_g7.g7_transform(scene, ginf, g10, index)),
        ))
    return out


def test_corpus_reaches_every_g7_branch():
    transcript = [t for _, (_, res) in _runs() for t in res.transformations]
    assert sum(t.absorbed for t in transcript) > 0
    assert sum(not t.absorbed for t in transcript) > 0
    assert sum(t.removed_xw is not None for t in transcript) > 0
    assert sum(t.uncharged_xw is not None for t in transcript) > 0


def test_charges_and_g7_match_reference():
    for got, want in _runs():
        assert got == want
