"""Matrix weight fields, scalar weights, measure densities and A_p constants.

A matrix weight field samples a map x -> W(x) into self-adjoint PSD
matrices at the cell centers of a grid.  The A_p constant estimators take
the maximum of the discretized defining expression over a finite, explicit
cube family; every reported value is a lower estimate of the supremum over
all cubes, and the family used travels with the value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrix_core as mc
from .errors import EmptyCubeFamily, NotInvertible, NotPSD
from .grids import Grid


@dataclass
class ScalarWeightField:
    """Non-negative scalar weight sampled at cell centers."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.num_points,):
            raise ValueError(f"expected shape ({self.grid.num_points},), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("scalar weight has non-finite values")
        if np.any(v < 0):
            raise ValueError("scalar weight has negative values")
        v.setflags(write=False)
        self.values = v


@dataclass
class MeasureDensity:
    """Density u >= 0 against Lebesgue measure; mu(E) = integral of u over E."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.num_points,):
            raise ValueError(f"expected shape ({self.grid.num_points},), got {v.shape}")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("density must be finite and non-negative")
        v.setflags(write=False)
        self.values = v
        if not self.total() > 0:
            raise ValueError("measure of the box must be positive")

    @classmethod
    def lebesgue(cls, grid: Grid) -> "MeasureDensity":
        return cls(grid, np.ones(grid.num_points))

    def total(self) -> float:
        return self.grid.quadrature(self.values)

    def measure(self, mask: np.ndarray) -> float:
        """mu of the union of cells selected by a boolean mask."""
        return float(np.sum(self.values[mask])) * self.grid.h ** self.grid.n


@dataclass
class MatrixWeightField:
    """PSD matrix weight sampled at cell centers, values of shape (M, d, d).

    With invertible=True every sampled matrix must be positive-definite;
    negative fractional powers are then available.
    """

    grid: Grid
    values: np.ndarray
    invertible: bool = False
    _eig: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 3 or v.shape[0] != self.grid.num_points or v.shape[1] != v.shape[2]:
            raise ValueError(f"expected shape (M, d, d) with M={self.grid.num_points}, got {v.shape}")
        if v.shape[1] > mc.MAX_DIM:
            raise ValueError(f"matrix dimension {v.shape[1]} exceeds {mc.MAX_DIM}")
        if not np.all(np.isfinite(v)):
            raise ValueError("matrix weight has non-finite entries")
        v.setflags(write=False)
        self.values = v
        lam, u = mc.batched_eigh(v)
        scale = np.max(np.abs(lam), axis=1)
        if np.any(lam[:, 0] < -mc.TOL_PSD_REL * scale):
            raise NotPSD("matrix weight has an eigenvalue below the PSD clamp band")
        lam = np.maximum(lam, 0.0)
        if self.invertible:
            tol_pd = mc.TOL_PD_REL * scale
            if np.any(lam[:, 0] <= tol_pd):
                raise NotInvertible("invertible flag set but some sampled matrix is singular")
        lam.setflags(write=False)
        u.setflags(write=False)
        self._eig = (lam, u)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached per-point eigensystems: (lam (M, d) ascending, U (M, d, d))."""
        return self._eig

    def power(self, s: float) -> np.ndarray:
        """W(x)^s at every point, shape (M, d, d)."""
        lam, u = self.eig()
        return mc.batched_power_from_eig(lam, u, s)

    def op_norm_field(self) -> ScalarWeightField:
        """Pointwise operator norm ||W(x)||_op (largest eigenvalue)."""
        lam, _ = self.eig()
        return ScalarWeightField(self.grid, lam[:, -1].copy())

    def min_eig_field(self) -> ScalarWeightField:
        """Pointwise smallest eigenvalue, equal to ||W^{-1}(x)||_op^{-1}."""
        lam, _ = self.eig()
        return ScalarWeightField(self.grid, lam[:, 0].copy())

    @classmethod
    def constant(cls, grid: Grid, mat, invertible: bool = False) -> "MatrixWeightField":
        m = np.asarray(mat, dtype=np.complex128)
        vals = np.broadcast_to(m, (grid.num_points,) + m.shape).copy()
        return cls(grid, vals, invertible=invertible)

    @classmethod
    def from_scalar(cls, w: ScalarWeightField, invertible: bool = False) -> "MatrixWeightField":
        vals = w.values.astype(np.complex128).reshape(-1, 1, 1)
        return cls(w.grid, vals, invertible=invertible)


def eigen_fields(w: MatrixWeightField) -> list[ScalarWeightField]:
    """Pointwise eigenvalue functions lambda_1(x) <= ... <= lambda_d(x)."""
    lam, _ = w.eig()
    return [ScalarWeightField(w.grid, np.maximum(lam[:, i], 0.0)) for i in range(w.d)]


def make_power_weight(grid: Grid, alphas, rotation=None, invertible: bool | None = None) -> MatrixWeightField:
    """Rotated power weight W(x) = R(x) diag(|x|^a_1, ..., |x|^a_d) R(x)^H.

    rotation, if given, is a callable mapping the (M, n) point array to an
    (M,) array of angles; the rotation acts as a Givens rotation in the
    first two coordinates (d >= 2).  Cell centers of an even grid never hit
    the origin, so the samples are finite for any real exponents.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    d = alphas.shape[0]
    r = grid.radii
    diag = np.power(r[:, None], alphas[None, :])
    m = grid.num_points
    vals = np.zeros((m, d, d), dtype=np.complex128)
    idx = np.arange(d)
    vals[:, idx, idx] = diag
    if rotation is not None:
        if d < 2:
            raise ValueError("rotation requires d >= 2")
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
    if invertible is None:
        invertible = bool(np.all(alphas == 0) or np.all(np.min(diag, axis=1) > 0))
    return MatrixWeightField(grid, vals, invertible=invertible)


# ---------------------------------------------------------------------------
# cube families


@dataclass(frozen=True)
class CubeFamily:
    """Finite family of half-open axis-aligned cubes [corner, corner + side)^n.

    A_p estimates are maxima over this family only; the description string
    is carried into reports so every value names the family it came from.
    """

    corners: np.ndarray
    sides: np.ndarray
    description: str

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.corners, dtype=np.float64))
        s = np.asarray(self.sides, dtype=np.float64)
        if c.shape[0] != s.shape[0]:
            raise ValueError("corners and sides must have matching lengths")
        object.__setattr__(self, "corners", c)
        object.__setattr__(self, "sides", s)

    def __len__(self) -> int:
        return int(self.sides.shape[0])

    @classmethod
    def default(cls, grid: Grid) -> "CubeFamily":
        """Dyadic partitions of the box, generations 0..log2(N), plus
        origin-anchored cubes of the same scales."""
        gmax = int(np.log2(grid.N))
        corners: list[list[float]] = []
        sides: list[float] = []
        L, n = grid.L, grid.n
        for g in range(gmax + 1):
            per_axis = 2 ** g
            side = 2.0 * L / per_axis
            edges = -L + side * np.arange(per_axis)
            if n == 1:
                for e in edges:
                    corners.append([e])
                    sides.append(side)
            else:
                for e1 in edges:
                    for e2 in edges:
                        corners.append([e1, e2])
                        sides.append(side)
            # origin-anchored cubes of this scale (all orthants), when they fit
            if side <= L:
                if n == 1:
                    for sgn in ((0.0,), (-side,)):
                        corners.append([sgn[0]])
                        sides.append(side)
                else:
                    for s1 in (0.0, -side):
                        for s2 in (0.0, -side):
                            corners.append([s1, s2])
                            sides.append(side)
        return cls(np.array(corners), np.array(sides),
                   f"dyadic generations 0..{gmax} of [-L,L)^{n} plus origin-anchored cubes, L={L}, N={grid.N}")

    @classmethod
    def dense_dyadic(cls, grid: Grid) -> "CubeFamily":
        """Cubes anchored at every cell boundary with sides h * 2^k, k >= 1,
        restricted to cubes contained in the box.  One-dimensional grids only."""
        if grid.n != 1:
            raise ValueError("dense_dyadic scan is defined for n=1 grids")
        h, L, N = grid.h, grid.L, grid.N
        corners: list[list[float]] = []
        sides: list[float] = []
        k = 1
        while h * 2 ** k <= 2 * L + 1e-12:
            side = h * 2 ** k
            max_i = N - 2 ** k
            for i in range(max_i + 1):
                corners.append([-L + i * h])
                sides.append(side)
            k += 1
        return cls(np.array(corners), np.array(sides),
                   f"dense scan: corners at all cell boundaries, dyadic sides 2h..2L, N={grid.N}")

    def cube_cells(self, grid: Grid, k: int) -> np.ndarray:
        """Flat indices of cells whose centers lie in cube k."""
        lo = self.corners[k]
        hi = lo + self.sides[k]
        pts = grid.points
        mask = np.all((pts >= lo - 1e-12) & (pts < hi - 1e-12 * grid.h), axis=1)
        return np.nonzero(mask)[0]

    def axis_ranges(self, grid: Grid, k: int) -> tuple[tuple[int, int], ...]:
        """Per-axis index range [i0, i1) of the cells inside cube k."""
        lo = self.corners[k]
        side = self.sides[k]
        out = []
        for ax in range(grid.n):
            i0 = int(np.ceil((lo[ax] + grid.L) / grid.h - 0.5 - 1e-9))
            i1 = int(np.ceil((lo[ax] + side + grid.L) / grid.h - 0.5 - 1e-9))
            i0 = max(i0, 0)
            i1 = min(i1, grid.N)
            out.append((i0, i1))
        return tuple(out)


# ---------------------------------------------------------------------------
# A_p constants

#: cell pairs per block of the matrix A_p pairwise pass
PAIR_BLOCK = 1 << 14


def _scalar_cube_stats(grid: Grid, w: np.ndarray, g: np.ndarray, cubes: CubeFamily):
    """Per-cube means of w and g via prefix sums.  Yields (k, mean_w, mean_g, cells)."""
    if grid.n == 1:
        cw = np.concatenate([[0.0], np.cumsum(w)])
        cg = np.concatenate([[0.0], np.cumsum(g)])
        for k in range(len(cubes)):
            (i0, i1), = cubes.axis_ranges(grid, k)
            m = i1 - i0
            if m <= 0:
                continue
            yield k, (cw[i1] - cw[i0]) / m, (cg[i1] - cg[i0]) / m, (i0, i1)
    else:
        N = grid.N
        w2 = w.reshape(N, N)
        g2 = g.reshape(N, N)
        cw = np.zeros((N + 1, N + 1))
        cg = np.zeros((N + 1, N + 1))
        cw[1:, 1:] = np.cumsum(np.cumsum(w2, axis=0), axis=1)
        cg[1:, 1:] = np.cumsum(np.cumsum(g2, axis=0), axis=1)

        def rect(c, a0, a1, b0, b1):
            return c[a1, b1] - c[a0, b1] - c[a1, b0] + c[a0, b0]

        for k in range(len(cubes)):
            (a0, a1), (b0, b1) = cubes.axis_ranges(grid, k)
            m = (a1 - a0) * (b1 - b0)
            if m <= 0:
                continue
            yield k, rect(cw, a0, a1, b0, b1) / m, rect(cg, a0, a1, b0, b1) / m, ((a0, a1), (b0, b1))


def _scalar_ap(grid: Grid, w: np.ndarray, p: float, cubes: CubeFamily) -> float:
    """Muckenhoupt expression maximum for a positive scalar weight."""
    if len(cubes) == 0:
        raise EmptyCubeFamily("no cubes supplied")
    best = -np.inf
    if p > 1:
        pp = p / (p - 1.0)
        g = np.power(w, -pp / p)
        for _, mean_w, mean_g, _ in _scalar_cube_stats(grid, w, g, cubes):
            val = mean_w * mean_g ** (p / pp)
            if val > best:
                best = val
    else:
        # sup over x in Q of (mean of w over Q) / w(x), esssup as a max over cells
        for _, mean_w, _unused, cells in _scalar_cube_stats(grid, w, w, cubes):
            if grid.n == 1:
                i0, i1 = cells
                wmin = float(np.min(w[i0:i1]))
            else:
                (a0, a1), (b0, b1) = cells
                wmin = float(np.min(w.reshape(grid.N, grid.N)[a0:a1, b0:b1]))
            val = mean_w / wmin
            if val > best:
                best = val
    if not np.isfinite(best):
        raise EmptyCubeFamily("cube family contains no cells of the grid")
    return float(best)


def scalar_ap_constant(w: ScalarWeightField, p: float, cubes: CubeFamily) -> float:
    """A_p constant estimate of a scalar weight over a finite cube family (p > 1)."""
    if not p > 1:
        raise ValueError("scalar A_p constant is defined here for p > 1")
    if np.any(w.values <= 0):
        raise NotInvertible("scalar weight must be strictly positive")
    return _scalar_ap(w.grid, w.values, p, cubes)


def ap_constant(w: MatrixWeightField, p: float, cubes: CubeFamily) -> float:
    """Matrix A_p constant estimate over a finite cube family.

    For p > 1 this discretizes
        sup_Q avg_x ( avg_y ||W^{1/p}(x) W^{-1/p}(y)||_op^{p'} )^{p/p'}
    and for p <= 1
        sup_Q max_{x in Q} avg_y ||W^{1/p}(y) W^{-1/p}(x)||_op^p,
    with averages as midpoint-rule means over the cells of each cube.  The
    pairwise pass is O(cells^2) per cube, in blocks of about PAIR_BLOCK
    pairs; d = 1 uses exact scalar formulas.
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

    # row x averages ||W^{1/p}(x) W^{-1/p}(y)||^{p'} over y for p > 1, and
    # ||W^{1/p}(y) W^{-1/p}(x)||^p = ||W^{-1/p}(x) W^{1/p}(y)||^p for p <= 1
    wp = w.power(1.0 / p)
    wm = w.power(-1.0 / p)
    if p > 1:
        pp = p / (p - 1.0)
        rows, cols, exponent = wp, wm, pp
    else:
        rows, cols, exponent = wm, wp, p
    best = -np.inf
    for k in range(len(cubes)):
        cells = cubes.cube_cells(grid, k)
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


def scalar_weight_probe(w: MatrixWeightField, p: float, cubes: CubeFamily) -> dict:
    """Instance check that ||W||_op and ||W^{-1}||_op^{-1} behave as scalar
    A_p weights when the matrix A_p constant is finite.

    Returns the three estimates over the same cube family.
    """
    return {
        "matrix_ap": ap_constant(w, p, cubes),
        "op_norm_ap": scalar_ap_constant(w.op_norm_field(), p, cubes),
        "min_eig_ap": scalar_ap_constant(w.min_eig_field(), p, cubes),
        "family": cubes.description,
        "p": p,
    }
