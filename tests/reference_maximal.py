"""Reference Christ-Goldberg maximal operator: one point at a time, with an
inline cumulative sum in 1-D and a float-distance ball test in 2-D, as
`operators.christ_goldberg_maximal` computed it before the blocked path.
Slow and plain, kept as the oracle the blocked path must reproduce on 1-D
grids and on 2-D grids whose cell width is a binary fraction."""

import numpy as np

from mwlp.errors import NotInvertible, ShapeMismatch
from mwlp.operators import BallScheme, _window_sum, dyadic_radii
from mwlp.spaces import SampledVectorField
from mwlp.weight_fields import MatrixWeightField, MeasureDensity, ScalarWeightField


def christ_goldberg_maximal(f: SampledVectorField, w: MatrixWeightField, p: float,
                            radii: list[float] | None = None) -> ScalarWeightField:
    """Maximal function M_w f(x): the supremum over balls of the family that
    contain x of the Lebesgue-average of |W^{1/p}(x) W^{-1/p}(y) f(y)|.

    The family consists of balls centered at grid points with dyadic radii;
    the result is a lower estimate of the all-balls supremum.
    """
    if not w.invertible:
        raise NotInvertible("maximal operator requires an invertible weight")
    if f.grid != w.grid or f.d != w.d:
        raise ShapeMismatch("field and weight do not match")
    grid = f.grid
    if radii is None:
        radii = dyadic_radii(grid)
    wp = w.power(1.0 / p)
    wm = w.power(-1.0 / p)
    g = np.einsum("mij,mj->mi", wm, f.values)
    m_points = grid.num_points
    out = np.zeros(m_points)
    lebesgue = MeasureDensity.lebesgue(grid)
    schemes = [BallScheme(grid, r, lebesgue) for r in radii]
    counts = [_window_sum(grid, np.ones(m_points), s) for s in schemes]
    if grid.n == 1:
        idx = np.arange(grid.N)
        for xi in range(m_points):
            phi = np.linalg.norm(np.einsum("ij,mj->mi", wp[xi], g), axis=1)
            c = np.concatenate([[0.0], np.cumsum(phi)])
            best = 0.0
            for s, cnt in zip(schemes, counts):
                k = s.reach
                lo = np.maximum(idx - k, 0)
                hi = np.minimum(idx + k + 1, grid.N)
                means = (c[hi] - c[lo]) / cnt
                z0, z1 = max(0, xi - k), min(grid.N, xi + k + 1)
                local = float(np.max(means[z0:z1]))
                if local > best:
                    best = local
            out[xi] = best
    else:
        pts = grid.points
        for xi in range(m_points):
            phi = np.linalg.norm(np.einsum("ij,mj->mi", wp[xi], g), axis=1)
            best = 0.0
            for s, cnt in zip(schemes, counts):
                near = np.linalg.norm(pts - pts[xi], axis=1) < s.r
                means = _window_sum(grid, phi, s)[near] / cnt[near]
                local = float(np.max(means))
                if local > best:
                    best = local
            out[xi] = best
    return ScalarWeightField(grid, out)
