"""Dense linear algebra for small self-adjoint matrices.

Spectral decompositions, fractional powers and operator norms of d x d
complex Hermitian matrices (d <= 8).  Positive-semidefiniteness is handled
with a relative clamp band so that matrices produced by grid sampling,
which are PSD only up to round-off, are accepted deterministically.

The batched functions operate on stacks of shape (M, d, d) and are the one
spectral path: weight fields sampled on grids run them, and the
single-matrix functions `mat_power` and `op_norm` are the batched ones
applied to a stack of one.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, NotHermitian, NotInvertible, NotPSD, OutOfRange, ShapeMismatch

#: relative conjugate-symmetry tolerance
TOL_HERM = 1e-12
#: eigenvalues in [-TOL_PSD_REL * max|lambda|, 0] are clamped to zero
TOL_PSD_REL = 1e-10
#: relative positive-definiteness threshold, the one rule of `definite`
TOL_PD_REL = 1e-14
#: largest supported matrix dimension
MAX_DIM = 8


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each eigenvector column so its first nonzero entry is real positive.

    Works on (..., d, d) stacks; column j of each matrix is one eigenvector.
    """
    mags = np.abs(vectors)
    rows = range(vectors.shape[-2])
    # the first entry of each column above 1e-8 times its largest (row 0 if
    # none is), taken row by row: numpy reduces a short strided axis slowly
    thresh = 1e-8 * np.max([mags[..., i, :] for i in rows], axis=0)
    lead = vectors[..., 0, :]
    for i in reversed(rows):
        lead = np.where(mags[..., i, :] > thresh, vectors[..., i, :], lead)
    lead_mag = np.abs(lead)
    phase = np.where(lead_mag > 0, lead / np.where(lead_mag > 0, lead_mag, 1.0), 1.0)
    return vectors * phase.conj()[..., None, :]


# ---------------------------------------------------------------------------
# batched helpers for (M, d, d) stacks


def batched_check_hermitian(mats: np.ndarray) -> np.ndarray:
    m = np.asarray(mats, dtype=np.complex128)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ShapeMismatch(f"expected shape (M, d, d), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix stack has non-finite entries")
    scale = np.maximum(np.max(np.abs(m), axis=(1, 2)), 1.0)
    dev = np.max(np.abs(m - np.conj(np.swapaxes(m, 1, 2))), axis=(1, 2))
    if np.any(dev > TOL_HERM * scale):
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


def definite(lam: np.ndarray) -> np.ndarray:
    """Whether each matrix is positive-definite, given its clamped eigenvalues
    in ascending order along the last axis: the smallest must exceed
    TOL_PD_REL times the largest.  This is the one definiteness rule."""
    return lam[..., 0] > TOL_PD_REL * lam[..., -1]


def batched_power_from_eig(lam: np.ndarray, u: np.ndarray, s: float) -> np.ndarray:
    """A^s for every matrix of a stack given precomputed eigensystems."""
    lam_c = _clamp_psd(lam)
    if s < 0 and not np.all(definite(lam_c)):
        raise NotInvertible("negative power of a matrix that is not positive-definite")
    return batched_sandwich(u, np.power(lam_c, s))


def batched_sandwich(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """U diag(lam) U^H for every matrix of an (M, d, d) stack u and real
    (M, d) lam, made exactly Hermitian as 0.5 (A + A^H), as a complex128 stack.

    Explicit real multiply-adds in the arithmetic of
    np.einsum("mik,mk,mjk->mij", u, lam, u.conj()), so that for finite u the
    two agree bit for bit, signed zeros included: term k of entry (i, j) is
    the complex product (u_ik lam_k) conj(u_jk), each product formed as
    re = a_re b_re - a_im b_im, im = a_re b_im + a_im b_re with no fused
    multiply-add, and the terms are summed in k order starting from +0.0.
    The einsum multiplies by lam_k + 0i; the products with that zero
    imaginary part are signed zeros for finite u, and a signed zero changes
    no bit of a sum that starts from +0.0, so they are left out.  The kernel
    computes in the dtype it is given: a float64 u has only zero imaginary
    parts, so only re = a_re b_re and the real part of 0.5 (A + A^H) are
    formed, and wherever the result is finite it is the result of u's
    complex128 copy.
    """
    u = np.asarray(u, dtype=np.complex128 if np.iscomplexobj(u) else np.float64)
    m, d, _ = u.shape
    # (i, k, M) layouts, so that every operation runs along the M points
    ur = np.ascontiguousarray(np.moveaxis(u.real, 0, -1))
    ui = np.ascontiguousarray(np.moveaxis(u.imag, 0, -1)) if np.iscomplexobj(u) else None
    lt = np.ascontiguousarray(np.transpose(lam))
    re = np.zeros((d, d, m))
    im = np.zeros((d, d, m))
    for k in range(d):
        xr, lk = ur[:, k], lt[k]
        # a = u_ik lam_k along i, then b = conj(u_jk) along j
        ar, br = (xr * lk)[:, None], xr[None]
        if ui is None:
            re += ar * br
            continue
        xi = ui[:, k]
        ai, bi = (xi * lk)[:, None], -xi[None]
        re += ar * br - ai * bi
        im += ar * bi + ai * br
    out = np.zeros(u.shape, dtype=np.complex128)
    if ui is None:
        # every imaginary part is +0.0, so 0.5 (A + A^H) is 0.5 (A + A^T)
        out.real = np.moveaxis(0.5 * (re + re.swapaxes(0, 1)), -1, 0)
        return out
    out.real = np.moveaxis(re, -1, 0)
    out.imag = np.moveaxis(im, -1, 0)
    return 0.5 * (out + np.conj(np.swapaxes(out, 1, 2)))


def batched_spectral_norm(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix in a (..., d, d) stack."""
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def pairwise_op_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a_x b_y||_op for every pair of an (Ma, d, d) and an (Mb, d, d) stack.

    Returns shape (Ma, Mb): the square root of the largest eigenvalue of
    C = P^H P, P = a_x b_y.  The kernel computes in the dtype it is given:
    float64 stacks stay real throughout, complex128 stacks form C from the
    real and imaginary parts of the products.  The products come from one
    unoptimized einsum over (d, d, M) layouts with both cell axes innermost,
    so no BLAS call (and no BLAS thread) touches the pair block.  C is formed
    from the computed products, not as b_y^H (a_x^H a_x) b_y, so the values
    keep the accuracy of the products when a_x b_y nearly cancels.  For d = 2,
        lambda_max = (c11 + c22) / 2 + hypot((c11 - c22) / 2, |c12|),
    free of the cancellation in the sqrt(trace^2 - 4 det) form; a real stack
    gives the same values as its complex128 copy, since every dropped
    imaginary term is an exact zero.  For d = 3 the trigonometric closed form
    of `_largest_eig3`, with eigvalsh on the pairs it flags; for d >= 4
    eigvalsh on the stack of C.
    """
    at = np.ascontiguousarray(np.moveaxis(a, 0, -1))
    bt = np.ascontiguousarray(np.moveaxis(b, 0, -1))
    prod = np.einsum("ikx,kjy->ijxy", at, bt, optimize=False)
    d = prod.shape[0]
    if d == 2:
        if np.iscomplexobj(prod):
            sq = prod.real ** 2 + prod.imag ** 2
            c12 = prod[0, 0].conj() * prod[0, 1] + prod[1, 0].conj() * prod[1, 1]
        else:
            sq = prod ** 2
            c12 = prod[0, 0] * prod[0, 1] + prod[1, 0] * prod[1, 1]
        c11 = sq[0, 0] + sq[1, 0]
        c22 = sq[0, 1] + sq[1, 1]
        lam = 0.5 * (c11 + c22) + np.hypot(0.5 * (c11 - c22), np.abs(c12))
    else:
        # d = 3 in closed form except where it loses accuracy; d >= 4 by eigvalsh
        if d == 3:
            lam, refine = _largest_eig3(prod)
        else:
            lam = np.empty(prod.shape[2:])
            refine = np.ones(lam.shape, dtype=bool)
        if np.any(refine):
            sel = prod[:, :, refine]
            gram = np.einsum("kin,kjn->nij", sel.conj(), sel, optimize=False)
            # eigvalsh does not converge on a Gram holding inf or nan (an
            # overflowing weight): such a pair gets a NaN lambda instead
            finite = np.all(np.isfinite(gram), axis=(1, 2))
            top = np.full(len(gram), np.nan)
            top[finite] = np.linalg.eigvalsh(gram[finite])[:, -1]
            lam[refine] = top
    return np.sqrt(lam)


def _largest_eig3(prod: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue of C = P^H P for a (3, 3, ...) stack of products P.

    A complex P = R + iI is read as its two real parts, Re C = R^T R + I^T I
    and Im C = R^T I - I^T R, so no conjugate copy of P is made.  Then the
    trigonometric closed form (O. K. Smith, CACM 4 (1961) 168): with
    q = tr C / 3, B = C / q - I, p = sqrt(tr B^2 / 6) and r = det B / (2 p^3),
        lambda_max = q (1 + 2 p cos(arccos(r) / 3)).
    Dividing by q keeps det B free of overflow for any finite C.  Where the
    two largest eigenvalues nearly coincide (r near -1), an error of a few
    ulps in r moves lambda_max by up to its square root, so the pairs with
    1 + r < 1e-4 are flagged for eigvalsh, as in the hybrid of J. Kopp,
    Int. J. Mod. Phys. C 19 (2008) 523; elsewhere the closed form is
    accurate to about 1e-14 relative.  C = 0 is flagged too.
    Returns (lambda_max, flags).
    """
    def gram(first, second):
        # entry (i, j) sums first[k, i] * second[k, j] over k
        return np.einsum("kixy,kjxy->ijxy", first, second, optimize=False)

    if np.iscomplexobj(prod):
        re, im = prod.real, prod.imag
        x = gram(re, re) + gram(im, im)
        cross = gram(re, im)
        y = cross - cross.swapaxes(0, 1)
    else:
        x, y = gram(prod, prod), None
    q = (x[0, 0] + x[1, 1] + x[2, 2]) / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / q
        b0, b1, b2 = ((x[i, i] - q) * inv for i in range(3))
        x01, x02, x12 = (x[i, j] * inv for i, j in ((0, 1), (0, 2), (1, 2)))
        s01, s02, s12 = x01 * x01, x02 * x02, x12 * x12
        triple = x01 * x12 * x02
        if y is not None:
            y01, y02, y12 = (y[i, j] * inv for i, j in ((0, 1), (0, 2), (1, 2)))
            s01 += y01 * y01
            s02 += y02 * y02
            s12 += y12 * y12
            # Re(c01 c12 conj(c02))
            triple -= y01 * y12 * x02
            triple += (x01 * y12 + y01 * x12) * y02
        p2 = (b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * (s01 + s02 + s12)) / 6.0
        det = b0 * b1 * b2 + 2.0 * triple - b0 * s12 - b1 * s02 - b2 * s01
        p = np.sqrt(p2)
        r = det / (2.0 * p2 * p)
    flags = (r < -1.0 + 1e-4) | (q == 0.0)
    # fmax maps the r = 0/0 of a scalar C (p = 0) to -1, so lambda_max = q
    r = np.fmin(np.fmax(r, -1.0), 1.0)
    lam = q * (1.0 + 2.0 * p * np.cos(np.arccos(r) / 3.0))
    return lam, flags


# ---------------------------------------------------------------------------
# single matrices: the batched functions on a stack of one


def _stack_of_one(a) -> np.ndarray:
    """A square matrix of dimension 1..MAX_DIM as a (1, d, d) complex stack."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[0] > MAX_DIM:
        raise OutOfRange(f"dimension {m.shape[0]} outside supported range 1..{MAX_DIM}")
    return m[None]


def mat_power(a, s: float) -> np.ndarray:
    """Fractional power A^s of a PSD Hermitian matrix via its eigensystem.

    For s < 0 the matrix must be positive-definite; otherwise
    NotInvertible is raised.  The result is Hermitian PSD.
    """
    return batched_power_from_eig(*batched_eigh(_stack_of_one(a)), s)[0]


def op_norm(a) -> float:
    """Operator norm of a PSD Hermitian matrix: its largest eigenvalue."""
    lam, _ = batched_eigh(_stack_of_one(a))
    return float(_clamp_psd(lam)[0, -1])
