"""Translation, dyadic averaging, ball averaging and the maximal operator.

These are the four operators driving the compactness machinery, together
with the symmetric-difference probe for metrical continuity of a measure.
Balls are sets of cell centers within Euclidean distance r (strict), clipped
to the box; dyadic schemes partition an inner box R_m = [-2^m, 2^m)^n into
congruent cubes of side 2^t aligned with the cell lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

import numpy as np

from .errors import EmptyBall, NotInvertible, OutOfRange, SchemeMismatch, ShapeMismatch
from .grids import Grid
from .spaces import NormFamily, SampledVectorField, Space, _column_norms, _entry_columns
from .weight_fields import MatrixWeightField, MeasureDensity, ScalarWeightField


def shift_values(values: np.ndarray, grid: Grid, shift: tuple[int, ...]) -> np.ndarray:
    """Index-shifted copy of a (M, d) value array with zero fill."""
    vals = values.reshape(grid.shape + values.shape[1:])
    out = np.zeros_like(vals)
    dst, src = grid.shift_slices(shift)
    out[dst] = vals[src]
    return out.reshape(values.shape)


def translate(f: SampledVectorField, y) -> SampledVectorField:
    """Translation (tau_y f)(x) = f(x - y) with zero extension outside the box.

    y must be a lattice vector (integer multiples of the cell width).
    """
    shift = f.grid.shift_of(y)
    return SampledVectorField(f.grid, shift_values(f.values, f.grid, shift))


# ---------------------------------------------------------------------------
# dyadic averaging


def _aligned_cells(grid: Grid, length: float) -> int:
    """Number of cells covering a length that must be an exact multiple of h."""
    ratio = length / grid.h
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > 1e-9:
        raise SchemeMismatch(f"length {length} is not a positive multiple of h={grid.h}")
    return k


@dataclass(frozen=True)
class DyadicScheme:
    """Partition of R_m = [-2^m, 2^m)^n into dyadic cubes of side 2^t.

    The number of cubes is 2^((m + 1 - t) n).  Both the outer box and the
    cube side must align with the cell lattice, and each cube must contain a
    power-of-two number of cells per axis so that cube means are exact for
    piecewise-constant data.
    """

    grid: Grid
    m: int
    t: int

    def __post_init__(self):
        if self.t > self.m:
            raise SchemeMismatch(f"inner generation t={self.t} exceeds m={self.m}")
        if self.outer_half > self.grid.L + 1e-12:
            raise SchemeMismatch(f"outer box [-2^{self.m}, 2^{self.m})^n exceeds the grid box")
        cells = _aligned_cells(self.grid, self.side)
        if cells & (cells - 1) != 0:
            raise SchemeMismatch("cells per cube per axis must be a power of two")
        if self.outer_half < self.grid.L:
            # the outer box boundary must itself sit on the cell lattice
            _aligned_cells(self.grid, self.grid.L - self.outer_half)

    @property
    def outer_half(self) -> float:
        return float(2.0 ** self.m)

    @property
    def side(self) -> float:
        return float(2.0 ** self.t)

    @property
    def cubes_per_axis(self) -> int:
        return 2 ** (self.m + 1 - self.t)

    @property
    def num_cubes(self) -> int:
        return self.cubes_per_axis ** self.grid.n

    @property
    def cells_per_cube_axis(self) -> int:
        return _aligned_cells(self.grid, self.side)

    @cached_property
    def box(self) -> tuple[slice, ...]:
        """Index of R_m in a (N,)*n array: the cells inside [-2^m, 2^m) on every axis."""
        grid = self.grid
        a = int(round((grid.L - self.outer_half) / grid.h))
        b = int(round((grid.L + self.outer_half) / grid.h))
        return (slice(a, b),) * grid.n


def _tree_mean(arr: np.ndarray, axis: int) -> np.ndarray:
    """Mean along a power-of-two axis by pairwise halving.

    The fixed balanced tree makes the reduction bit-reproducible and keeps
    means of identical values exact (every partial sum is a power-of-two
    multiple), which is what makes dyadic averaging exactly idempotent.
    """
    k = arr.shape[axis]
    m = np.moveaxis(arr, axis, 0)
    while m.shape[0] > 1:
        m = m[0::2] + m[1::2]
    return np.moveaxis(m, 0, axis).sum(axis=axis) / k


def dyadic_coefficients(f: SampledVectorField, scheme: DyadicScheme) -> np.ndarray:
    """Cube means of f over the scheme, shape (num_cubes, d)."""
    if f.grid != scheme.grid:
        raise SchemeMismatch("field and scheme grids differ")
    n = f.grid.n
    vals = f.values.reshape(f.grid.shape + (f.d,))[scheme.box]
    block = vals.reshape((scheme.cubes_per_axis, scheme.cells_per_cube_axis) * n + (f.d,))
    # reduce the cube axes 2n-1, ..., 3, 1 in this order: it fixes the rounding
    for ax in range(2 * n - 1, 0, -2):
        block = _tree_mean(block, ax)
    return block.reshape(-1, f.d)


def field_from_coefficients(scheme: DyadicScheme, coeffs: np.ndarray, d: int) -> SampledVectorField:
    """Piecewise-constant field with the given cube values, zero outside R_m."""
    grid = scheme.grid
    block = coeffs.reshape((scheme.cubes_per_axis,) * grid.n + (d,))
    for ax in range(grid.n):
        block = np.repeat(block, scheme.cells_per_cube_axis, axis=ax)
    out = np.zeros(grid.shape + (d,), dtype=np.complex128)
    out[scheme.box] = block
    return SampledVectorField(grid, out.reshape(grid.num_points, d))


def dyadic_average(f: SampledVectorField, scheme: DyadicScheme) -> SampledVectorField:
    """Piecewise-constant projection: the mean of f over the cube containing x,
    zero outside the outer box.  Idempotent and reproducing constants on R_m."""
    coeffs = dyadic_coefficients(f, scheme)
    return field_from_coefficients(scheme, coeffs, f.d)


# ---------------------------------------------------------------------------
# ball averaging


@dataclass
class BallScheme:
    """Discrete balls of one radius r >= 2h against a measure density.

    The ball at x is the set of cell centers with |y - x| < r, clipped to
    the box; its measure is the quadrature of the density over those cells.
    """

    grid: Grid
    r: float
    mu: MeasureDensity

    def __post_init__(self):
        if self.mu.grid != self.grid:
            raise ShapeMismatch("density lives on a different grid")
        if self.r < 2.0 * self.grid.h * (1 - 1e-12):
            raise OutOfRange(f"radius {self.r} below the 2h resolution floor")

    @property
    def reach(self) -> int:
        """Largest integer k with k * h < r."""
        return int(np.ceil(self.r / self.grid.h - 1e-12)) - 1

    @cached_property
    def offsets(self) -> np.ndarray:
        """The ball rule: the ball at z holds the cells z + k for the integer
        offsets k (K, n) with |k|_inf <= reach and |k|^2 < (r/h)^2 (1 - 1e-12),
        listed with the first axis outermost."""
        k = self.reach
        window = np.array(list(product(range(-k, k + 1), repeat=self.grid.n)))
        return window[np.sum(window * window, axis=1) < (self.r / self.grid.h) ** 2 * (1 - 1e-12)]

    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The offsets as runs along the last axis: for every leading offset
        (k_1, ..., k_{n-1}) with |k_i| <= reach, first axis outermost, the
        half-width w of its run k_n in [-w, w] (-1 where the run is empty).
        An offset's row is its leading offsets read as digits in base
        2 reach + 1; in 1-D there is one row, with no leading offset."""
        k, n = self.reach, self.grid.n
        lead = np.array(list(product(range(-k, k + 1), repeat=n - 1)), dtype=int)
        rows = (self.offsets[:, :-1] + k) @ (2 * k + 1) ** np.arange(n - 2, -1, -1)
        half = np.full(len(lead), -1)
        np.maximum.at(half, rows, self.offsets[:, -1])
        return lead, half

    @cached_property
    def measures(self) -> np.ndarray:
        """mu[B(x, r)] at every grid point."""
        return _window_sum(self.grid, self.mu.values, [self])[0] * self.grid.h ** self.grid.n


def _window_sum(grid: Grid, values: np.ndarray, schemes: list[BallScheme]) -> list[np.ndarray]:
    """Sums of values over the discrete balls at every center (boundary-clipped),
    one array per scheme.

    The ball is a run along the last axis per leading offset (BallScheme.runs;
    in 1-D a single run).  One power-of-two table along that axis, padded
    with `reach` zeros on both sides, holds T_j[i] = T_{j-1}[i] +
    T_{j-1}[i + 2^(j-1)]; a run of 2w + 1 cells is the sum of the entries of
    the binary digits of 2w + 1, formed once per distinct w, and the runs add
    up shifted along the leading axes.  Only additions, so each sum is a tree
    sum of its K terms and errs by at most (K - 1) eps times the sum of
    |values| over the ball.
    """
    vals = values.reshape(grid.shape + values.shape[1:])
    reach = max(s.reach for s in schemes)
    lead_axes = (slice(None),) * (grid.n - 1)
    pad = [(0, 0)] * vals.ndim
    pad[grid.n - 1] = (reach, reach)
    table = [np.pad(vals, pad)]
    while 2 ** len(table) <= 2 * reach + 1:
        step = 2 ** (len(table) - 1)
        t = table[-1]
        table.append(t[lead_axes + (slice(None, -step),)] + t[lead_axes + (slice(step, None),)])
    out = []
    for scheme in schemes:
        lead, half = scheme.runs
        total = np.zeros_like(vals)
        for w in np.unique(half[half >= 0]).tolist():
            # the run of 2w + 1 cells: one table entry per binary digit of 2w + 1
            row, start = None, reach - w
            for j, t in enumerate(table):
                if (2 * w + 1) >> j & 1:
                    part = t[lead_axes + (slice(start, start + grid.N),)]
                    row = part if row is None else row + part
                    start += 2 ** j
            for k in lead[half == w].tolist():
                dst, src = grid.shift_slices(k + [0])
                total[dst] += row[src]
        out.append(total.reshape(values.shape))
    return out


def ball_average(f: SampledVectorField, scheme: BallScheme) -> SampledVectorField:
    """Average operator S_r f(x): the mean of f over the ball at x against the
    scheme's density."""
    if f.grid != scheme.grid:
        raise ShapeMismatch("field and ball scheme grids differ")
    return SampledVectorField(f.grid, ball_average_values(f.values, scheme))


def ball_average_values(values: np.ndarray, scheme: BallScheme) -> np.ndarray:
    """S_r of a value array (M, d) on the scheme's grid."""
    meas = scheme.measures
    if np.any(meas <= 0.0):
        raise EmptyBall(f"a ball of radius {scheme.r} has zero measure")
    grid = scheme.grid
    weighted = values * scheme.mu.values[:, None]
    sums = _window_sum(grid, weighted, [scheme])[0] * grid.h ** grid.n
    # divide real and imaginary parts separately, so S_r of a constant c is c
    # up to the window sums' error: each sum adds the K terms of its ball, so
    # numerator and denominator each err by at most (K - 1) eps relative, and
    # S_r c is within about 2 K eps |c| of c
    return sums.real / meas[:, None] + 1j * (sums.imag / meas[:, None])


def symdiff_measure(x, y, r: float, mu: MeasureDensity) -> float:
    """mu[B(x, r) symmetric-difference B(y, r)] by cell counting.

    x and y are grid points (cell-center coordinates); the ball at a cell is
    that cell plus BallScheme.offsets, clipped to the box.
    """
    grid = mu.grid
    offsets = BallScheme(grid, r, mu).offsets
    balls = []
    for p in (x, y):
        z = np.array(np.unravel_index(grid.index_of_point(p), grid.shape)) + offsets
        ball = np.zeros(grid.shape, dtype=bool)
        ball[tuple(z[np.all((z >= 0) & (z < grid.N), axis=1)].T)] = True
        balls.append(ball.ravel())
    return mu.measure(balls[0] ^ balls[1])


# ---------------------------------------------------------------------------
# Christ-Goldberg maximal operator


#: (cell, point) pairs per block of christ_goldberg_maximal
MAXIMAL_BLOCK = 2 ** 18


def dyadic_radii(grid: Grid) -> list[float]:
    """Default ball family radii: 2h, 4h, ... capped at L."""
    out = []
    r = 2.0 * grid.h
    while r <= grid.L * (1 + 1e-12):
        out.append(r)
        r *= 2.0
    return out


@cache
def _lebesgue_balls(grid: Grid) -> tuple[tuple[BallScheme, ...], tuple[np.ndarray, ...]]:
    """The Lebesgue ball schemes of dyadic_radii(grid) and the cell count of every
    ball, (M, 1) per radius, read-only: built once per grid and shared."""
    lebesgue = MeasureDensity.lebesgue(grid)
    schemes = tuple(BallScheme(grid, r, lebesgue) for r in dyadic_radii(grid))
    counts = tuple(c[:, None] for c in _window_sum(grid, np.ones(grid.num_points), schemes))
    for c in counts:
        c.setflags(write=False)
    return schemes, counts


def christ_goldberg_maximal(f: SampledVectorField, w: MatrixWeightField,
                            p: float) -> ScalarWeightField:
    """Maximal function M_w f(x): the supremum over balls of the family that
    contain x of the Lebesgue-average of |W^{1/p}(x) W^{-1/p}(y) f(y)|.

    The family consists of balls centered at grid points with dyadic radii;
    the result is a lower estimate of the all-balls supremum.  Points x go in
    blocks of about MAXIMAL_BLOCK (cell, point) pairs: the column kernel of
    the norm families gives phi[y, x] = |W^{1/p}(x) W^{-1/p}(y) f(y)|, one
    window-sum call for all radii every ball mean, and the balls holding x
    are those BallScheme.offsets admits.
    """
    if not w.invertible:
        raise NotInvertible("maximal operator requires an invertible weight")
    if f.grid != w.grid or f.d != w.d:
        raise ShapeMismatch("field and weight do not match")
    grid = f.grid
    entries = _entry_columns(w.power(1.0 / p))
    g = np.einsum("mij,mj->mi", w.power(-1.0 / p), f.values)
    m_points = grid.num_points
    schemes, counts = _lebesgue_balls(grid)
    cells = np.indices(grid.shape).reshape(grid.n, -1).T
    out = np.zeros(m_points)
    step = max(1, MAXIMAL_BLOCK // m_points)
    for x0 in range(0, m_points, step):
        xs = slice(x0, x0 + step)
        phi = _column_norms(entries[..., xs], g[:, None, :])
        cols = np.arange(phi.shape[1])[:, None]
        for s, cnt, sums in zip(schemes, counts, _window_sum(grid, phi, schemes)):
            means = sums / cnt
            # the centers z = x - k of the balls that hold x, inside the box
            z = cells[xs, None, :] - s.offsets
            inside = np.all((z >= 0) & (z < grid.N), axis=-1)
            rows = np.ravel_multi_index(tuple(np.moveaxis(z, -1, 0)), grid.shape, mode="clip")
            local = np.max(np.where(inside, means[rows, cols], 0.0), axis=1)
            np.maximum(out[xs], local, out=out[xs])
    return ScalarWeightField(grid, out)


def cg_domination_constant(f: SampledVectorField, w: MatrixWeightField, p: float) -> float:
    """Measured constant C in |W^{1/p}(x) S_r f(x)| <= C * M_w(W^{1/p} f)(x).

    The maximum ratio over all grid points and family radii; the ball at x
    itself belongs to the family, so the mathematical value is at most 1.
    """
    grid = f.grid
    wp = w.power(1.0 / p)
    wpf = SampledVectorField(grid, np.einsum("mij,mj->mi", wp, f.values))
    maximal = christ_goldberg_maximal(wpf, w, p).values
    mask = maximal > 1e-14 * np.max(maximal + 1e-300)
    if not np.any(mask):
        return 0.0
    rho = NormFamily.from_matrix_weight(w, p)
    worst = 0.0
    for scheme in _lebesgue_balls(grid)[0]:
        sr = ball_average(f, scheme)
        worst = max(worst, float(np.max(rho.evaluate(sr.values)[mask] / maximal[mask])))
    return worst


# ---------------------------------------------------------------------------
# instance probes


def differentiation_errors(f: SampledVectorField, mu: MeasureDensity,
                           radii: list[float]) -> list[tuple[float, float]]:
    """Pointwise convergence probe: sup over interior points of |S_r f - f|.

    Interior means the ball at the point is not clipped by the box.  Returns
    (r, sup_error) pairs in the order given.
    """
    grid = f.grid
    out = []
    for r in radii:
        scheme = BallScheme(grid, r, mu)
        sr = ball_average(f, scheme)
        interior = grid.inside_ball(grid.L - r)
        if not np.any(interior):
            raise OutOfRange(f"no interior points for radius {r}")
        err = np.linalg.norm(sr.values - f.values, axis=1)
        out.append((r, float(np.max(err[interior]))))
    return out


def averaging_bound(fields: list[SampledVectorField], w: MatrixWeightField, p: float,
                    radii: list[float]) -> float:
    """Measured sup over fields and radii of ||S_r f|| / ||f|| in L^p(W), with
    S_r the Lebesgue ball average."""
    grid = w.grid
    lebesgue = MeasureDensity.lebesgue(grid)
    space = Space.matrix_weight(w, p)
    worst = 0.0
    for r in radii:
        scheme = BallScheme(grid, r, lebesgue)
        for f in fields:
            denom = space.norm(f)
            if denom <= 0:
                continue
            num = space.norm(ball_average(f, scheme))
            worst = max(worst, num / denom)
    return worst
