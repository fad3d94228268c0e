import numpy as np
import pytest

from mwlp.spaces import SampledVectorField


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_psd(rng, d, definite=False):
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = b @ b.conj().T
    if definite:
        a = a + 0.05 * np.trace(a).real / d * np.eye(d)
    return a


def zero_field(grid, d):
    """The zero field with d components on grid."""
    return SampledVectorField(grid, np.zeros((grid.num_points, d), dtype=np.complex128))
