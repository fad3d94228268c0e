"""Reference U diag(lam) U^H sandwiches, kept as the oracles for
`matrix_core.batched_sandwich`.

These are the two three-operand einsums the package used before the
multiply-add kernel: the power of a stack from its eigensystem
(`batched_power_from_eig`) and the rotated power weight R D R^H
(`make_power_weight`).  The kernel must reproduce both bit for bit.  Also
the eigensystem a power weight is built from, point by point, which
`make_power_weight` must hand its field, and the phase fix of eigenvector
columns as it reduced over the row axis before it folded over the rows.
Slow and plain."""

import numpy as np

from mwlp import matrix_core as mc
from mwlp.errors import NotInvertible
from mwlp.grids import Grid
from mwlp.weight_fields import MatrixWeightField


def sandwich(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """U diag(lam) U^H by einsum, made exactly Hermitian."""
    out = np.einsum("mik,mk,mjk->mij", u, lam, u.conj())
    return 0.5 * (out + np.conj(np.swapaxes(out, 1, 2)))


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """`matrix_core._fix_phases` by reductions over the row axis."""
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


def power_from_eig(lam: np.ndarray, u: np.ndarray, s: float) -> np.ndarray:
    """A^s from an eigensystem, with the clamp and singularity checks of the package."""
    lam_c = mc._clamp_psd(lam)
    if s < 0:
        tol_pd = mc.TOL_PD_REL * np.max(lam_c, axis=1)
        if np.any(np.min(lam_c, axis=1) <= tol_pd):
            raise NotInvertible("negative power of a matrix that is not positive-definite")
    return sandwich(u, np.power(lam_c, s))


def power_weight(grid: Grid, alphas, rotation=None) -> MatrixWeightField:
    """`make_power_weight` with R D R^H as one einsum over the full diagonal stack D."""
    alphas = np.asarray(alphas, dtype=np.float64)
    d = alphas.shape[0]
    diag = np.power(grid.radii[:, None], alphas[None, :])
    m = grid.num_points
    vals = np.zeros((m, d, d), dtype=np.complex128)
    idx = np.arange(d)
    vals[:, idx, idx] = diag
    if rotation is not None:
        theta = np.asarray(rotation(grid.points), dtype=np.float64)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.zeros((m, d, d), dtype=np.complex128)
        rot[:, idx, idx] = 1.0
        rot[:, 0, 0] = c
        rot[:, 0, 1] = -s
        rot[:, 1, 0] = s
        rot[:, 1, 1] = c
        vals = np.einsum("mij,mjk,mlk->mil", rot, vals, rot.conj())
        vals = 0.5 * (vals + np.conj(np.swapaxes(vals, 1, 2)))
    return MatrixWeightField(grid, vals)


def power_weight_eig(grid: Grid, alphas, rotation=None) -> tuple[np.ndarray, np.ndarray]:
    """The eigensystem of R D R^T, one point at a time: the |x|^a_k in
    ascending order (equal ones in k order), and the columns of the real
    rotation R (the identity without rotation) in the same order, each
    negated when its first entry above 1e-8 times its largest is negative."""
    alphas = np.asarray(alphas, dtype=np.float64)
    d = alphas.shape[0]
    diag = np.power(grid.radii[:, None], alphas[None, :])
    theta = None if rotation is None else np.asarray(rotation(grid.points), dtype=np.float64)
    lam = np.empty_like(diag)
    u = np.empty((grid.num_points, d, d))
    for m in range(grid.num_points):
        rot = np.eye(d)
        if theta is not None:
            c, s = np.cos(theta[m]), np.sin(theta[m])
            rot[:2, :2] = [[c, -s], [s, c]]
        order = sorted(range(d), key=lambda k: diag[m, k])
        lam[m] = diag[m, order]
        for j, k in enumerate(order):
            col = rot[:, k]
            big = np.max(np.abs(col))
            lead = next(x for x in col if abs(x) > 1e-8 * big)
            u[m, :, j] = -col if lead < 0 else col
    return lam, u
