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
from numpy.lib.stride_tricks import sliding_window_view

from . import matrix_core as mc
from .errors import EmptyCubeFamily, NonFinite, NotInvertible, OutOfRange, ShapeMismatch
from .grids import Grid


@dataclass
class ScalarWeightField:
    """Non-negative scalar weight sampled at cell centers."""

    grid: Grid
    values: np.ndarray
    SAMPLE = (np.float64, 1)  # the samples' dtype and axes, for checks and field files

    def __post_init__(self):
        self.values = self.grid.samples(self.values, *self.SAMPLE, "scalar weight")
        if np.any(self.values < 0):
            raise OutOfRange("scalar weight has negative values")


@dataclass
class MeasureDensity:
    """Density u >= 0 against Lebesgue measure; mu(E) = integral of u over E."""

    grid: Grid
    values: np.ndarray
    SAMPLE = (np.float64, 1)

    def __post_init__(self):
        self.values = self.grid.samples(self.values, *self.SAMPLE, "density")
        if np.any(self.values < 0):
            raise OutOfRange("density must be finite and non-negative")
        if not self.total() > 0:
            raise OutOfRange("measure of the box must be positive")

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

    The eigensystems are computed once, on construction, unless `_eig`
    supplies them, as `constant`, `diagonal` and `make_power_weight` do (a
    power weight's eigenvectors are real).  `invertible` is measured from
    them: it holds when every sampled matrix is positive-definite by
    `matrix_core.definite`, and negative fractional powers are then available.
    """

    grid: Grid
    values: np.ndarray
    _eig: tuple | None = field(default=None, repr=False, compare=False)
    SAMPLE = (np.complex128, 3)

    def __post_init__(self):
        v = self.values = self.grid.samples(self.values, *self.SAMPLE, "matrix weight")
        if v.shape[1] != v.shape[2]:
            raise ShapeMismatch(f"matrix weight samples must be square, got shape {v.shape}")
        if not 1 <= v.shape[1] <= mc.MAX_DIM:
            raise OutOfRange(f"matrix dimension {v.shape[1]} outside 1..{mc.MAX_DIM}")
        lam, u = mc.batched_eigh(v) if self._eig is None else self._eig
        lam = mc._clamp_psd(lam)
        self.invertible = bool(np.all(mc.definite(lam)))
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
    def constant(cls, grid: Grid, mat) -> "MatrixWeightField":
        """W(x) = mat at every point; the one matrix is decomposed once and its
        eigensystem broadcast, and the clamp and the definiteness measurement
        still run."""
        m = np.asarray(mat, dtype=np.complex128)
        lam, u = mc.batched_eigh(m[None])
        vals = np.broadcast_to(m, (grid.num_points,) + m.shape).copy()
        eig = (np.broadcast_to(lam, (grid.num_points,) + lam.shape[1:]),
               np.broadcast_to(u, vals.shape))
        return cls(grid, vals, _eig=eig)

    @classmethod
    def diagonal(cls, grid: Grid, lam) -> "MatrixWeightField":
        """D(x) = diag(lam(x)) for ascending rows lam of shape (M, d), with the
        eigensystem (lam, I) taken as given; the clamp and the definiteness
        measurement still run."""
        lam = np.asarray(lam, dtype=np.float64)
        m, d = lam.shape
        idx = np.arange(d)
        vals = np.zeros((m, d, d), dtype=np.complex128)
        vals[:, idx, idx] = lam
        eye = np.broadcast_to(np.eye(d, dtype=np.complex128), (m, d, d))
        return cls(grid, vals, _eig=(lam, eye))


def make_power_weight(grid: Grid, alphas, rotation=None) -> MatrixWeightField:
    """Rotated power weight W(x) = R(x) diag(|x|^a_1, ..., |x|^a_d) R(x)^H.

    rotation, if given, is a callable mapping the (M, n) point array to an
    (M,) array of angles; the rotation acts as a Givens rotation in the
    first two coordinates (d >= 2), and `matrix_core.batched_sandwich` forms
    R D R^H in real arithmetic.  The weight keeps the eigensystem it is built
    from: the |x|^a_k sorted ascending at each point (stable order) and the
    columns of R (the identity without rotation) permuted with them, phases
    fixed by `matrix_core._fix_phases`.  Cell centers of an even grid never
    hit the origin, but a large exponent can overflow: the samples are then
    formed without numpy warnings, and the constructor rejects the
    non-finite ones.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    d = alphas.shape[0]
    m = grid.num_points
    idx = np.arange(d)
    if rotation is not None and d < 2:
        raise OutOfRange("rotation requires d >= 2")
    rot = np.zeros((m, d, d))
    rot[:, idx, idx] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        diag = np.power(grid.radii[:, None], alphas[None, :])
        if rotation is None:
            vals = np.zeros((m, d, d), dtype=np.complex128)
            vals[:, idx, idx] = diag
        else:
            theta = np.asarray(rotation(grid.points), dtype=np.float64)
            c, s = np.cos(theta), np.sin(theta)
            rot[:, 0, 0] = c
            rot[:, 0, 1] = -s
            rot[:, 1, 0] = s
            rot[:, 1, 1] = c
            vals = mc.batched_sandwich(rot, diag)
    eig = None
    if np.all(np.isfinite(diag)):  # otherwise the constructor rejects the samples
        order = np.argsort(diag, axis=1, kind="stable")
        eig = (np.take_along_axis(diag, order, axis=1),
               mc._fix_phases(np.take_along_axis(rot, order[:, None, :], axis=2)))
    return MatrixWeightField(grid, vals, _eig=eig)


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
            raise ShapeMismatch("corners and sides must have matching lengths")
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
            raise OutOfRange("dense_dyadic scan is defined for n=1 grids")
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


# ---------------------------------------------------------------------------
# A_p constants

#: cell pairs per block of the matrix A_p pairwise pass
PAIR_BLOCK = 1 << 14
#: kernel blocks per row panel of that pass, whose row means are taken at once
PANEL_BLOCKS = 8


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


def _distinct_boxes(grid: Grid, cubes: CubeFamily) -> np.ndarray:
    """The distinct nonempty index boxes of a family, shape (K, n, 2).  Both
    A_p passes read them, so a cube listed twice (every origin-anchored cube
    of `CubeFamily.default` is also a dyadic cube) is evaluated once."""
    if len(cubes) == 0:
        raise EmptyCubeFamily("no cubes supplied")
    # sorted rows and a neighbour test: np.unique(axis=0) gives the same rows
    # but sorts them as records, 8x slower on the default families
    rows = cubes.boxes(grid).reshape(len(cubes), -1)
    rows = rows[np.lexsort(rows.T[::-1])]
    boxes = rows[np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)]].reshape(-1, grid.n, 2)
    boxes = boxes[np.all(boxes[:, :, 1] > boxes[:, :, 0], axis=1)]
    if len(boxes) == 0:
        raise EmptyCubeFamily("cube family contains no cells of the grid")
    return boxes


def _scalar_ap(grid: Grid, w: np.ndarray, p: float, cubes: CubeFamily) -> float:
    """Muckenhoupt expression maximum for a positive scalar weight."""
    boxes = _distinct_boxes(grid, cubes)
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
    best = float(np.max(vals))  # a NaN value propagates to the check below
    if not np.isfinite(best):
        raise NonFinite("the A_p expression overflows on this weight and cube family")
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
    with averages as midpoint-rule means over the cells of each cube; d = 1
    uses exact scalar formulas.  One pass evaluates every pair of the cells
    the family covers once (M^2 pairs for the default family, whose largest
    cube is the box): the rows go in blocks of about PAIR_BLOCK pairs
    against all covered cells, PANEL_BLOCKS blocks to a row panel.  Each
    distinct box takes the row means of its rows in a panel from its own
    cells in ascending order, the order a per-cube pass sums them in,
    gathered as whole runs along the last axis, once per panel and group of
    equally shaped boxes (in slices of at most PAIR_BLOCK values).
    """
    if not w.invertible:
        raise NotInvertible("A_p constant requires an invertible weight")
    if not p > 0:
        raise OutOfRange("p must be positive")
    grid = w.grid
    if w.d == 1:
        return _scalar_ap(grid, w.values[:, 0, 0].real, p, cubes)
    boxes = _distinct_boxes(grid, cubes)

    # row x averages ||W^{1/p}(x) W^{-1/p}(y)||^{p'} over y for p > 1, and
    # ||W^{1/p}(y) W^{-1/p}(x)||^p = ||W^{-1/p}(x) W^{1/p}(y)||^p for p <= 1
    wp = w.power(1.0 / p)
    wm = w.power(-1.0 / p)
    # a real weight has real powers: the kernel then runs in float64
    if not (np.any(wp.imag) or np.any(wm.imag)):
        wp, wm = wp.real, wm.real
    if p > 1:
        pp = p / (p - 1.0)
        rows, cols, exponent = wp, wm, pp
    else:
        rows, cols, exponent = wm, wp, p
    shapes, group_of = np.unique(boxes[:, :, 1] - boxes[:, :, 0], axis=0, return_inverse=True)
    cells = [grid.box_cells(boxes[group_of.ravel() == g]) for g in range(len(shapes))]
    covered = np.unique(np.concatenate([c.ravel() for c in cells]))
    rows, cols = rows[covered], cols[covered]
    m_all = len(covered)
    step = max(1, PAIR_BLOCK // m_all)
    # the powered kernel blocks of one row panel, allocated once per call
    panel = np.empty((min(PANEL_BLOCKS * step, m_all), m_all))
    # per group: (box, cell) memberships sorted by row, the row means (NaN
    # until taken), and the first cell of each run of a box along the last
    # axis, whose cells are consecutive in `covered`, with a window view of
    # the panel that reads such a run whole
    groups = []
    for c, shape in zip(cells, shapes):
        c = np.searchsorted(covered, c)
        order = np.argsort(c, axis=None, kind="stable")
        groups.append((c, order, c.ravel()[order], np.full(c.size, np.nan),
                       c[:, ::shape[-1]], sliding_window_view(panel, shape[-1], axis=1)))
    for p0 in range(0, m_all, len(panel)):
        p1 = min(p0 + len(panel), m_all)
        for start in range(p0, p1, step):
            # e lives until the next block's kernel returns: with a temporary
            # there, the allocator gave the kernel's freed work arrays back to
            # the system after every block, about 600 page faults per block at
            # N = 1024
            e = mc.pairwise_op_norm(rows[start:start + step], cols)
            np.power(e, exponent, out=panel[start - p0:start - p0 + len(e)])
        for c, order, by_row, means, starts, runs in groups:
            m = c.shape[1]
            # gathers of at most PAIR_BLOCK values: as large as the panel, they
            # raised the page faults of a call at N = 1024 from 484 to 798
            chunk = max(1, PAIR_BLOCK // m)
            lo, hi = np.searchsorted(by_row, (p0, p1))
            for c0 in range(lo, hi, chunk):
                sel = order[c0:min(c0 + chunk, hi)]
                got = runs[by_row[c0:c0 + len(sel), None] - p0, starts[sel // m]]
                means[sel] = np.mean(got.reshape(len(sel), m), axis=1)
    vals = []
    for c, _, _, means, _, _ in groups:
        row_means = means.reshape(c.shape)
        if p > 1:
            vals.append(np.mean(np.power(row_means, p / pp), axis=1))
        else:
            vals.append(np.max(row_means, axis=1))
    best = float(np.max(np.concatenate(vals)))  # a NaN value propagates to the check below
    if not np.isfinite(best):
        raise NonFinite("the A_p expression overflows on this weight and cube family")
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
