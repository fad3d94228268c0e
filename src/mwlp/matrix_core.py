"""Dense linear algebra for small self-adjoint matrices.

Spectral decompositions, fractional powers and operator norms of d x d
complex Hermitian matrices (d <= 8).  Positive-semidefiniteness is handled
with a relative clamp band so that matrices produced by grid sampling,
which are PSD only up to round-off, are accepted deterministically.

The batched functions operate on stacks of shape (M, d, d) and are the one
spectral path: weight fields sampled on grids run them, and the
single-matrix functions (`spectral_decompose`, `mat_power`, `op_norm`,
`spectral_norm`) are the batched ones applied to a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotHermitian, NotPSD, SingularMatrix

#: relative conjugate-symmetry tolerance
TOL_HERM = 1e-12
#: eigenvalues in [-TOL_PSD_REL * max|lambda|, 0] are clamped to zero
TOL_PSD_REL = 1e-10
#: relative positive-definiteness threshold for negative powers
TOL_PD_REL = 1e-14
#: largest supported matrix dimension
MAX_DIM = 8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and a unitary eigenvector matrix.

    Eigenvector phases follow a deterministic orientation: the first
    component of each column whose modulus is non-negligible is made real
    and positive.  Within degenerate eigenspaces only this phase rule is
    pinned; the basis itself is whatever the backend returns.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each eigenvector column so its first nonzero entry is real positive.

    Works on (..., d, d) stacks; column j of each matrix is one eigenvector.
    """
    mags = np.abs(vectors)
    # threshold relative to the largest entry of each column
    thresh = 1e-8 * np.max(mags, axis=-2, keepdims=True)
    significant = mags > thresh
    # index of first significant component per column
    first = np.argmax(significant, axis=-2)
    lead = np.take_along_axis(vectors, first[..., None, :], axis=-2)[..., 0, :]
    lead_mag = np.abs(lead)
    phase = np.where(lead_mag > 0, lead / np.where(lead_mag > 0, lead_mag, 1.0), 1.0)
    return vectors * phase.conj()[..., None, :]


# ---------------------------------------------------------------------------
# batched helpers for (M, d, d) stacks


def batched_check_hermitian(mats: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    m = np.asarray(mats, dtype=np.complex128)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected shape (M, d, d), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix stack has non-finite entries")
    scale = np.maximum(np.max(np.abs(m), axis=(1, 2)), 1.0)
    dev = np.max(np.abs(m - np.conj(np.swapaxes(m, 1, 2))), axis=(1, 2))
    if np.any(dev > tol * scale):
        raise NotHermitian("matrix stack is not conjugate-symmetric within tolerance")
    return m


def batched_eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystems for a stack of Hermitian matrices, phases fixed.

    Returns (lam, u) with lam of shape (M, d) ascending and u of shape
    (M, d, d) unitary.
    """
    m = batched_check_hermitian(mats)
    lam, u = np.linalg.eigh(m)
    return lam, _fix_phases(u)


def _clamp_psd(lam: np.ndarray) -> np.ndarray:
    """Clamp the round-off band [-tol, 0] to zero; reject anything below it."""
    scale = np.max(np.abs(lam), axis=-1, keepdims=True)
    tol = TOL_PSD_REL * scale
    below = lam < -tol
    if np.any(below):
        worst = float(np.min(lam[below]))
        raise NotPSD(f"eigenvalue {worst:.3e} below the PSD clamp band")
    return np.maximum(lam, 0.0)


def batched_power_from_eig(lam: np.ndarray, u: np.ndarray, s: float) -> np.ndarray:
    """A^s for every matrix of a stack given precomputed eigensystems."""
    lam_c = _clamp_psd(lam)
    if s < 0:
        tol_pd = TOL_PD_REL * np.max(lam_c, axis=1)
        if np.any(np.min(lam_c, axis=1) <= tol_pd):
            raise SingularMatrix("negative power of a singular matrix in the stack")
    lam_s = np.power(lam_c, s)
    out = np.einsum("mik,mk,mjk->mij", u, lam_s, u.conj())
    return 0.5 * (out + np.conj(np.swapaxes(out, 1, 2)))


def batched_spectral_norm(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix in a (..., d, d) stack."""
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def pairwise_op_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a_x b_y||_op for every pair of an (Ma, d, d) and an (Mb, d, d) stack.

    Returns shape (Ma, Mb): the square root of the largest eigenvalue of
    C = P^H P, P = a_x b_y.  The products come from one unoptimized einsum
    over (d, d, M) layouts with both cell axes innermost, so no BLAS call
    (and no BLAS thread) touches the pair block.  C is formed from the
    computed products, not as b_y^H (a_x^H a_x) b_y, so the values keep the
    accuracy of the products when a_x b_y nearly cancels.  For d = 2,
        lambda_max = (c11 + c22) / 2 + hypot((c11 - c22) / 2, |c12|),
    free of the cancellation in the sqrt(trace^2 - 4 det) form; otherwise
    eigvalsh on the stack of C.
    """
    at = np.ascontiguousarray(np.moveaxis(a, 0, -1))
    bt = np.ascontiguousarray(np.moveaxis(b, 0, -1))
    prod = np.einsum("ikx,kjy->ijxy", at, bt, optimize=False)
    if prod.shape[0] == 2:
        sq = prod.real ** 2 + prod.imag ** 2
        c11 = sq[0, 0] + sq[1, 0]
        c22 = sq[0, 1] + sq[1, 1]
        c12 = prod[0, 0].conj() * prod[0, 1] + prod[1, 0].conj() * prod[1, 1]
        lam = 0.5 * (c11 + c22) + np.hypot(0.5 * (c11 - c22), np.abs(c12))
    else:
        gram = np.einsum("kixy,kjxy->xyij", prod.conj(), prod, optimize=False)
        lam = np.linalg.eigvalsh(gram)[..., -1]
    return np.sqrt(lam)


# ---------------------------------------------------------------------------
# single matrices: the batched functions on a stack of one


def _stack_of_one(a) -> np.ndarray:
    """A square matrix of dimension 1..MAX_DIM as a (1, d, d) complex stack."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[0]} outside supported range 1..{MAX_DIM}")
    return m[None]


def spectral_decompose(a) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with deterministic phases."""
    lam, u = batched_eigh(_stack_of_one(a))
    return SpectralDecomposition(eigenvalues=lam[0], vectors=u[0])


def mat_power(a, s: float) -> np.ndarray:
    """Fractional power A^s of a PSD Hermitian matrix via its eigensystem.

    For s < 0 the matrix must be positive-definite; otherwise
    SingularMatrix is raised.  The result is Hermitian PSD.
    """
    return batched_power_from_eig(*batched_eigh(_stack_of_one(a)), s)[0]


def op_norm(a) -> float:
    """Operator norm of a PSD Hermitian matrix: its largest eigenvalue."""
    lam, _ = batched_eigh(_stack_of_one(a))
    return float(_clamp_psd(lam)[0, -1])


def spectral_norm(a) -> float:
    """Spectral (2-)norm of a general matrix, i.e. its largest singular value."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return float(batched_spectral_norm(m[None])[0])
