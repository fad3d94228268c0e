"""Matrix weight fields, scalar weights, measure densities and A_p constants.

A matrix weight field samples a map x -> W(x) into self-adjoint PSD
matrices at the cell centers of a grid.  The A_p constant estimators take
the maximum of the discretized defining expression over a finite, explicit
cube family; every reported value is a lower estimate of the supremum over
all cubes, and the family used travels with the value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import matrix_core as mc
from .errors import EmptyCubeFamily, NotInvertible, NotPSD, OutOfRange
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
        corners: list[tuple[float, ...]] = []
        sides: list[float] = []
        L, n = grid.L, grid.n
        for g in range(gmax + 1):
            side = 2.0 * L / 2 ** g
            cubes = list(product(-L + side * np.arange(2 ** g), repeat=n))
            # origin-anchored cubes of this scale (all orthants), when they fit
            if side <= L:
                cubes += product((0.0, -side), repeat=n)
            corners += cubes
            sides += [side] * len(cubes)
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

    def boxes(self, grid: Grid) -> np.ndarray:
        """Index boxes of all cubes, shape (K, n, 2): cube k holds the cells
        whose axis-i index lies in [boxes[k, i, 0], boxes[k, i, 1]), the cells
        whose centers lie in the cube, clipped to the grid."""
        edges = np.stack([self.corners, self.corners + self.sides[:, None]], axis=-1)
        return np.clip(np.ceil((edges + grid.L) / grid.h - 0.5 - 1e-9).astype(int), 0, grid.N)

    def cube_cells(self, grid: Grid, k: int) -> np.ndarray:
        """Flat indices of cells whose centers lie in cube k."""
        return grid.box_cells(self.boxes(grid)[k])

    def axis_ranges(self, grid: Grid, k: int) -> tuple[tuple[int, int], ...]:
        """Per-axis index range [i0, i1) of the cells inside cube k."""
        return tuple(map(tuple, self.boxes(grid)[k].tolist()))


# ---------------------------------------------------------------------------
# A_p constants

#: cell pairs per block of the matrix A_p pairwise pass
PAIR_BLOCK = 1 << 14


def _box_means(grid: Grid, values: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Means of a per-cell array over nonempty index boxes (K, n, 2), from one
    padded n-D prefix sum and inclusion-exclusion over the 2^n box corners.
    Corners go with the last axis outermost, which in 2-D is
    c[a1, b1] - c[a0, b1] - c[a1, b0] + c[a0, b0]."""
    n = grid.n
    c = np.pad(values.reshape(grid.shape), (1, 0))
    for ax in range(n):
        c = np.cumsum(c, axis=ax)
    total = np.zeros(len(boxes))
    for corner in product((1, 0), repeat=n):
        term = c[tuple(boxes[:, ax, s] for ax, s in enumerate(reversed(corner)))]
        total = total - term if (n - sum(corner)) % 2 else total + term
    return total / np.prod(boxes[:, :, 1] - boxes[:, :, 0], axis=1)


def _scalar_ap(grid: Grid, w: np.ndarray, p: float, cubes: CubeFamily) -> float:
    """Muckenhoupt expression maximum for a positive scalar weight."""
    if len(cubes) == 0:
        raise EmptyCubeFamily("no cubes supplied")
    boxes = cubes.boxes(grid)
    boxes = boxes[np.all(boxes[:, :, 1] > boxes[:, :, 0], axis=1)]
    mean_w = _box_means(grid, w, boxes)
    # per-cube powers stay scalar: array np.power may differ in the last bit
    if p > 1:
        pp = p / (p - 1.0)
        mean_g = _box_means(grid, np.power(w, -pp / p), boxes)
        vals = [mw * mg ** (p / pp) for mw, mg in zip(mean_w, mean_g)]
    else:
        # sup over x in Q of (mean of w over Q) / w(x), esssup as a max over cells
        wv = w.reshape(grid.shape)
        vals = [mw / float(np.min(wv[tuple(slice(*r) for r in box)]))
                for mw, box in zip(mean_w, boxes.tolist())]
    best = max(vals, default=-np.inf)
    if not np.isfinite(best):
        raise EmptyCubeFamily("cube family contains no cells of the grid")
    return float(best)


def scalar_ap_constant(w: ScalarWeightField, p: float, cubes: CubeFamily) -> float:
    """A_p constant estimate of a scalar weight over a finite cube family (p > 1)."""
    if not p > 1:
        raise OutOfRange("scalar A_p constant is defined here for p > 1")
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
        raise OutOfRange("p must be positive")
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
