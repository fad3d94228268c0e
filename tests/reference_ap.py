"""Reference matrix A_p passes, kept as oracles for `weight_fields.ap_constant`.

`ap_constant` forms the per-pair product stack and takes a batched SVD of
every product, as the pass did before the factored pairwise kernel; the
kernel must reproduce it to round-off.  `ap_constant_per_cube` runs the
factored kernel cube by cube, evaluating the pairs of every listed cube
afresh, as the pass did before it evaluated each cell pair once per call;
the one-pass version must reproduce it exactly.  `pairwise_op_norm` is the
factored kernel as it was before it computed in the dtype it is given: it
runs complex arithmetic on every stack and eigvalsh for every d >= 3; on a
real d = 2 stack the kernel must reproduce it exactly.  Slow and plain."""

import numpy as np

from mwlp import matrix_core as mc
from mwlp.errors import EmptyCubeFamily, NotInvertible
from mwlp.weight_fields import PAIR_BLOCK, CubeFamily, MatrixWeightField, _scalar_ap


def ap_constant(w: MatrixWeightField, p: float, cubes: CubeFamily,
                chunk: int = 256) -> float:
    """Matrix A_p constant estimate over a finite cube family.

    For p > 1 this discretizes
        sup_Q avg_x ( avg_y ||W^{1/p}(x) W^{-1/p}(y)||_op^{p'} )^{p/p'}
    and for p <= 1
        sup_Q max_{x in Q} avg_y ||W^{1/p}(y) W^{-1/p}(x)||_op^p,
    with averages as midpoint-rule means over the cells of each cube.  The
    pairwise pass is O(cells^2) per cube; d = 1 uses exact scalar formulas.
    """
    if not w.invertible:
        raise NotInvertible("A_p constant requires an invertible weight")
    if len(cubes) == 0:
        raise EmptyCubeFamily("no cubes supplied")
    if not p > 0:
        raise ValueError("p must be positive")
    grid = w.grid
    if w.d == 1:
        return _scalar_ap(grid, w.values[:, 0, 0].real, p, cubes)

    wp = w.power(1.0 / p)
    wm = w.power(-1.0 / p)
    best = -np.inf
    for box in cubes.boxes(grid):
        cells = grid.box_cells(box)
        m = cells.shape[0]
        if m == 0:
            continue
        a = wp[cells]
        b = wm[cells]
        if p > 1:
            pp = p / (p - 1.0)
            inner = np.empty(m)
            for start in range(0, m, chunk):
                stop = min(start + chunk, m)
                prod = np.einsum("xij,yjk->xyik", a[start:stop], b)
                s = mc.batched_spectral_norm(prod)
                inner[start:stop] = np.mean(np.power(s, pp), axis=1)
            val = float(np.mean(np.power(inner, p / pp)))
        else:
            outer = np.empty(m)
            for start in range(0, m, chunk):
                stop = min(start + chunk, m)
                prod = np.einsum("yij,xjk->xyik", a, b[start:stop])
                s = mc.batched_spectral_norm(prod)
                outer[start:stop] = np.mean(np.power(s, p), axis=1)
            val = float(np.max(outer))
        if val > best:
            best = val
    if not np.isfinite(best):
        raise EmptyCubeFamily("cube family contains no cells of the grid")
    return float(best)


def ap_constant_per_cube(w: MatrixWeightField, p: float, cubes: CubeFamily) -> float:
    """The factored pairwise kernel over each cube's own cells, one cube at a
    time, in blocks of about PAIR_BLOCK pairs."""
    if not w.invertible:
        raise NotInvertible("A_p constant requires an invertible weight")
    if len(cubes) == 0:
        raise EmptyCubeFamily("no cubes supplied")
    if not p > 0:
        raise ValueError("p must be positive")
    grid = w.grid
    if w.d == 1:
        return _scalar_ap(grid, w.values[:, 0, 0].real, p, cubes)

    wp = w.power(1.0 / p)
    wm = w.power(-1.0 / p)
    if p > 1:
        pp = p / (p - 1.0)
        rows, cols, exponent = wp, wm, pp
    else:
        rows, cols, exponent = wm, wp, p
    best = -np.inf
    for box in cubes.boxes(grid):
        cells = grid.box_cells(box)
        m = cells.shape[0]
        if m == 0:
            continue
        a = rows[cells]
        b = cols[cells]
        step = max(1, PAIR_BLOCK // m)
        row_means = np.empty(m)
        for start in range(0, m, step):
            s = mc.pairwise_op_norm(a[start:start + step], b)
            row_means[start:start + step] = np.mean(np.power(s, exponent), axis=1)
        if p > 1:
            val = float(np.mean(np.power(row_means, p / pp)))
        else:
            val = float(np.max(row_means))
        if val > best:
            best = val
    if not np.isfinite(best):
        raise EmptyCubeFamily("cube family contains no cells of the grid")
    return float(best)


def pairwise_op_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a_x b_y||_op for every pair of two complex stacks, in complex arithmetic."""
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
