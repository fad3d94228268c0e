"""The one U diag(lam) U^H kernel behind matrix powers and rotated power weights.

`matrix_core.batched_sandwich` forms the sandwich with explicit real
multiply-adds; it must equal, bit for bit and signed zeros included, the two
three-operand einsums kept in `reference_sandwich.py`: the power of a stack
from its eigensystem and the rotation sandwich R D R^H of `make_power_weight`.
A float64 stack runs in real arithmetic and gives its complex128 copy's
bits.  A power weight hands its field the eigensystem it is built from.
Bits are compared as int64 views of contiguous copies, so -0.0 differs from
0.0 and every NaN payload counts.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from mwlp import matrix_core as mc
from mwlp.grids import Grid
from mwlp.weight_fields import make_power_weight

import reference_sandwich

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mwlp"
EXPONENTS = (0.5, 1.0, 2.0, 1.0 / 3.0, -0.5)


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(bits(got), bits(want))


def hermitian_stack(rng, m, d):
    """Random complex Hermitian matrices, with zero and identity matrices and
    a negated identity among them."""
    a = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    h = a + np.conj(np.swapaxes(a, 1, 2))
    h[:3] = 0.0
    h[3:6] = np.eye(d)
    h[6] = -np.eye(d)
    return h


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sandwich_equals_einsum_on_random_stacks(d):
    rng = np.random.default_rng(d)
    lam, u = mc.batched_eigh(hermitian_stack(rng, 40, d))
    for s in EXPONENTS:
        weights = np.abs(lam) ** s if s > 0 else (np.abs(lam) + 1.0) ** s
        for vectors in (u, -u, u.conj(), np.zeros_like(u),
                        np.broadcast_to(np.eye(d, dtype=complex), u.shape)):
            assert_same_bits(mc.batched_sandwich(vectors, weights),
                             reference_sandwich.sandwich(vectors, weights))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_powers_equal_einsum_on_random_stacks(d):
    """A^s of PSD stacks, zero matrices included for s > 0; positive-definite
    stacks (identities included) for s < 0."""
    rng = np.random.default_rng(10 + d)
    h = hermitian_stack(rng, 40, d)
    psd = np.einsum("mik,mjk->mij", h, h.conj())
    definite = psd[3:] + np.eye(d)
    for s in EXPONENTS:
        stack = psd if s > 0 else definite
        lam, u = mc.batched_eigh(stack)
        assert_same_bits(mc.batched_power_from_eig(lam, u, s),
                         reference_sandwich.power_from_eig(lam, u, s))


def test_sandwich_equals_einsum_on_edge_values():
    """Signed zeros, subnormals, huge and overflowing values, negative weights."""
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0, 3.0,
                       1e300, -1e300, 1.7e308, 1e-200, -1e-200])
    rng = np.random.default_rng(7)
    with np.errstate(all="ignore"):
        for d in (1, 2, 3, 4):
            u = rng.choice(values, (60, d, d)) + 1j * rng.choice(values, (60, d, d))
            lam = rng.choice(values, (60, d))
            assert_same_bits(mc.batched_sandwich(u, lam), reference_sandwich.sandwich(u, lam))


def linear(rate):
    return lambda pts: rate * pts[:, 0]


# the CLI's power weights: default net/moduli grids, the 2-D benchmark grid,
# the ap-constant grid, d = 2 and 3, with and without rotation, negative alpha
@pytest.mark.parametrize("grid, alphas, rotation", [
    ((1, 8.0, 4096), [0.5, 1.0 / 3.0], linear(1.0)),
    ((1, 8.0, 2048), [0.5, 1.0 / 3.0], linear(1.0)),
    ((2, 8.0, 128), [0.5, 1.0 / 3.0], linear(1.0)),
    ((1, 8.0, 1024), [0.5, 1.0 / 3.0], None),
    ((1, 1.0, 512), [0.5, 0.3333333333333333, 0.25], linear(1.0)),
    ((1, 1.0, 512), [0.5, 0.3333333333333333, 0.25], None),
    ((2, 8.0, 64), [-0.5, 0.25], linear(-2.0)),
    ((1, 8.0, 256), [-0.3, 0.2, 0.7], linear(0.3)),
    ((1, 1.0, 4096), [0.5], None),
], ids=["net-4096", "net-2048", "2d-128", "no-rotation", "d3", "d3-no-rotation",
        "2d-negative", "d3-negative", "ap-constant-d1"])
def test_power_weights_equal_einsum(grid, alphas, rotation):
    """A power weight's samples and powers are the einsums' bits; its
    eigensystem is the one it is built from, and lies within rounding of the
    eigensystem eigh finds in its samples."""
    g = Grid(*grid)
    got = make_power_weight(g, alphas, rotation=rotation)
    want = reference_sandwich.power_weight(g, alphas, rotation=rotation)
    assert got.invertible == want.invertible
    assert_same_bits(got.values, want.values)
    lam, u = got.eig()
    for a, b in zip((lam, u), reference_sandwich.power_weight_eig(g, alphas, rotation)):
        assert_same_bits(a, b)
    for s in (0.5, -0.5, 1.0 / 1.5, -1.0 / 1.5):
        assert_same_bits(got.power(s), reference_sandwich.power_from_eig(lam, u.astype(complex), s))
    # the eigh route, kept as the reference: 8 ulp of the largest eigenvalue
    # for the eigenvalues, 1e-14 relative in operator norm for the powers
    lam_eigh = want.eig()[0]
    assert np.all(np.abs(lam - lam_eigh) <= 8 * np.spacing(lam_eigh[:, -1:]))
    for s in (0.5, -0.5):
        ref = want.power(s)
        gap = np.linalg.norm(got.power(s) - ref, ord=2, axis=(1, 2))
        assert np.all(gap <= 1e-14 * np.linalg.norm(ref, ord=2, axis=(1, 2)))


def _phase_stacks():
    """Eigenvector stacks: a 2-D rotation and its column permutation, eigh's
    complex d = 3 and real d = 4 eigenvectors, and stacks with zero columns,
    entries at the 1e-8 threshold and leads of both signs."""
    rng = np.random.default_rng(31)
    theta = np.arctan2(*Grid(2, 8.0, 128).points.T)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
    yield rot
    yield rot[:, :, ::-1]
    yield np.linalg.eigh(hermitian_stack(rng, 200, 3))[1]
    yield np.linalg.eigh(hermitian_stack(rng, 200, 4).real)[1]
    edge = rng.choice([0.0, -0.0, 1e-8, -1e-8, 1.0, -1.0, 2.5, 1e-300], (300, 3, 3))
    edge[:40, :, 1] = 0.0
    yield edge
    yield edge + 1j * rng.choice([0.0, -0.0, 1e-8, 1.0, -1.0], (300, 3, 3))


@pytest.mark.parametrize("vectors", list(_phase_stacks()),
                         ids=["rotation", "permuted", "complex-d3", "real-d4", "edge", "edge-complex"])
def test_phase_fix_equals_the_reduction_over_rows(vectors):
    assert_same_bits(mc._fix_phases(vectors), reference_sandwich.fix_phases(vectors))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_real_stacks_give_the_bits_of_their_complex_copies(d):
    """A float64 u runs the real kernel; random, signed-zero, subnormal and
    huge entries give the complex128 copy's bits wherever the output is
    finite, and where a product overflows both outputs are non-finite."""
    rng = np.random.default_rng(20 + d)
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0, 3.0,
                       1e300, -1e300, 1e-300, 1.7e308, 1e-200, -1e-200])
    stacks = [(rng.standard_normal((60, d, d)), rng.standard_normal((60, d))),
              (rng.choice(values, (400, d, d)), rng.choice(values, (400, d)))]
    with np.errstate(all="ignore"):
        for u, lam in stacks:
            got = mc.batched_sandwich(u, lam)
            want = mc.batched_sandwich(u.astype(complex), lam)
            finite = np.isfinite(got)
            np.testing.assert_array_equal(finite, np.isfinite(want))
            assert_same_bits(got[finite], want[finite])
            assert_same_bits(want, reference_sandwich.sandwich(u.astype(complex), lam))


def _einsum_operand_counts():
    """(module, top-level function or Class.method, operand count) per `*.einsum` call."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owners = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                owners += [(f"{node.name}.{item.name}", item) for item in node.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            else:
                owners.append(("<module>", node))
        for owner, root in owners:
            for sub in ast.walk(root):
                if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "einsum"):
                    yield path.stem, owner, len(sub.args) - 1


def test_no_three_operand_einsum_in_the_package():
    """A per-point U diag(lam) U^H has one kernel: the only einsum over three
    operands is the John fit's containment rescale."""
    found = {(module, owner) for module, owner, count in _einsum_operand_counts() if count >= 3}
    assert found == {("spaces", "_mvee_centered")}
