"""Reference |W^{1/p}(x) v| evaluator, kept as the oracle for `NormFamily.from_matrix_weight`.

This is `from_matrix_weight` as it was before the multiply-add kernel, for
every d: one einsum forms W^{1/p}(x) v(x) and `np.linalg.norm` takes the
Euclidean norm of each row.  The kernel must reproduce it exactly.  Slow
and plain."""

import numpy as np

from mwlp.spaces import NormFamily, Space
from mwlp.weight_fields import MatrixWeightField, MeasureDensity


def norm_family(w: MatrixWeightField, p: float) -> NormFamily:
    """rho_x(v) = |W^{1/p}(x) v|, by einsum."""
    wp = w.power(1.0 / p)
    wp.setflags(write=False)

    def evaluator(values):
        return np.linalg.norm(np.einsum("mij,...mj->...mi", wp, values), axis=-1)

    return NormFamily(w.grid, w.d, evaluator, description=f"|W^(1/{p}) v| from matrix weight")


def space(w: MatrixWeightField, p: float, mu: MeasureDensity | None = None) -> Space:
    """L^p(W, mu) measured with the reference evaluator."""
    return Space(w.grid, w.d, norm_family(w, p), p=p, mu=mu, weight=w,
                 label=f"L^{p}(W{', mu' if mu else ''})")
