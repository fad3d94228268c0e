"""Reference |W^{1/p}(x) v| evaluator, kept as the oracle for `NormFamily.from_matrix_weight`.

This is `from_matrix_weight` as it was before the multiply-add kernel, for
every d: one einsum forms W^{1/p}(x) v(x) and `np.linalg.norm` takes the
Euclidean norm of each row.  The kernel must reproduce it exactly.  Slow
and plain."""

import numpy as np

from mwlp.spaces import Space
from mwlp.weight_fields import MatrixWeightField, MeasureDensity


class EinsumNorms:
    """rho_x(v) = |W^{1/p}(x) v|, by einsum: the `NormFamily` interface a
    `Space` uses (grid, d and evaluate)."""

    def __init__(self, w: MatrixWeightField, p: float):
        self.grid = w.grid
        self.d = w.d
        self._wp = w.power(1.0 / p)
        self._wp.setflags(write=False)

    def evaluate(self, values):
        return np.linalg.norm(np.einsum("mij,...mj->...mi", self._wp, values), axis=-1)


def space(w: MatrixWeightField, p: float, mu: MeasureDensity | None = None) -> Space:
    """L^p(W, mu) measured with the reference evaluator."""
    return Space(w.grid, w.d, EinsumNorms(w, p), p=p, mu=mu, weight=w,
                 label=f"L^{p}(W{', mu' if mu else ''})")
