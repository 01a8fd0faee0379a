"""Reference stretch factor: the ratio of two distance matrices over
every connected pair.

This is the original implementation of ``stretch_factor``. It needs the
base graph's distance matrix as well, which for ``vis`` is the dense
one. The library reads the same maximum on the base graph's edges; the
differential test in ``test_verify.py`` compares the two.
"""

from __future__ import annotations

import numpy as np

from polyspanner.scene import Scene
from polyspanner.verify import StretchReport
from polyspanner.visibility import Graph


def stretch_factor(
    scene: Scene,
    sub: Graph,
    base: Graph,
    sub_dist: np.ndarray,
    base_dist: np.ndarray,
) -> StretchReport:
    """Largest d_sub(x,y) / d_base(x,y) over pairs connected in base,
    read from the two graphs' ``distance_matrix``.

    A pair disconnected in sub but connected in base yields an infinite
    ratio.
    """
    if sub.n != scene.n or base.n != scene.n:
        raise ValueError("graphs must share the scene's vertex set")
    n = scene.n
    if n < 2:
        return StretchReport(1.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        comparable = np.isfinite(base_dist) & (base_dist > 0)
        ratios = np.where(comparable, sub_dist / base_dist, 0.0)
    iu, ju = np.triu_indices(n, k=1)
    vals = ratios[iu, ju]
    if vals.size == 0 or not comparable[iu, ju].any():
        return StretchReport(1.0, None)
    k = int(np.argmax(vals))
    return StretchReport(float(vals[k]), (int(iu[k]), int(ju[k])))
