"""One definiteness rule: `matrix_core.definite`.

A matrix weight measures its own invertibility with it, and every operation
that needs W^{-1} raises `NotInvertible` on a weight that fails it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mwlp import matrix_core as mc
from mwlp.compactness import FunctionFamily, build_net_average
from mwlp.errors import NotInvertible
from mwlp.grids import Grid
from mwlp.operators import christ_goldberg_maximal
from mwlp.spaces import SampledVectorField, Space
from mwlp.weight_fields import CubeFamily, MatrixWeightField, ap_constant

GRID = Grid(1, 1.0, 16)
#: a PSD weight with a zero eigenvalue, and one below the relative threshold
SINGULAR = {"zero": np.diag([1.0, 0.0]), "below-threshold": np.diag([1.0, 1e-15])}


def _bump():
    x = GRID.points[:, 0]
    return SampledVectorField(GRID, np.exp(-8.0 * x ** 2)[:, None] * np.array([1.0, 0.5]))


# each operation that needs W^{-1}, on a weight and a matrix of it
GATES = {
    "ap_constant": lambda w, m: ap_constant(w, 2.0, CubeFamily.default(GRID)),
    "christ_goldberg_maximal": lambda w, m: christ_goldberg_maximal(_bump(), w, 2.0),
    "build_net_average-p1": lambda w, m: build_net_average(
        FunctionFamily([_bump()]), 0.5, Space.matrix_weight(w, 1.0)),
    "power": lambda w, m: w.power(-0.5),
    "mat_power": lambda w, m: mc.mat_power(m, -0.5),
}


@pytest.mark.parametrize("gate", GATES.values(), ids=GATES.keys())
@pytest.mark.parametrize("mat", SINGULAR.values(), ids=SINGULAR.keys())
def test_every_gate_refuses_a_singular_weight(gate, mat):
    w = MatrixWeightField.constant(GRID, mat)
    assert not w.invertible
    with pytest.raises(NotInvertible):
        gate(w, mat)


@pytest.mark.parametrize("gate", GATES.values(), ids=GATES.keys())
def test_every_gate_admits_a_definite_weight(gate):
    mat = np.diag([1.0, 1e-12])
    w = MatrixWeightField.constant(GRID, mat)
    assert w.invertible
    gate(w, mat)


def test_definite_is_relative_to_the_largest_eigenvalue():
    lam = np.array([[0.0, 1.0], [1e-15, 1.0], [1e-13, 1.0], [1e-300, 1e-290], [0.0, 0.0]])
    assert mc.definite(lam).tolist() == [False, False, True, True, False]
    assert mc.definite(lam[None]).shape == (1, 5)


# eigenvalues relative to the largest, each far from the threshold 1e-14 on
# its side, so round-off in the eigensolver cannot move a sample across it
RATIOS = st.sampled_from([0.0, 1e-17, 1e-16, 1e-11, 1e-6, 0.3, 1.0])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4),
       log_scale=st.integers(-100, 100), data=st.data())
def test_invertible_is_the_definite_rule_on_every_sample(seed, d, log_scale, data):
    rng = np.random.default_rng(seed)
    m = GRID.num_points
    ratios = np.array(data.draw(st.lists(st.lists(RATIOS, min_size=d, max_size=d),
                                         min_size=m, max_size=m)))
    ratios[:, -1] = 1.0
    lam = ratios * 10.0 ** log_scale
    q, _ = np.linalg.qr(rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d)))
    vals = np.einsum("mik,mk,mjk->mij", q, lam, q.conj())
    vals = 0.5 * (vals + np.conj(np.swapaxes(vals, 1, 2)))
    w = MatrixWeightField(GRID, vals)
    assert w.invertible == bool(np.all(mc.definite(w.eig()[0])))
    assert w.invertible == bool(np.all(ratios.min(axis=1) > 1e-14))
