"""Reference grid kernels: the per-dimension branches and the float cube rule
as the library computed them before every grid kernel took one n-dimensional
path with cells located by integer index boxes.  Kept as oracles the n-D
paths must reproduce bit for bit; methods became functions taking the
object they belonged to as their first argument.  The window sums are the
1-D running sum and the loop over ball offsets (written for any n), as
`_window_sum` took them before it added runs along the last axis in every
dimension: the runs must stay within the error of direct summation of the
offset loop, which the running sum, subtracting two prefix sums, does not.
Also the engine of S_r as it was before it wrote into reused buffers and took
a list of schemes: `window_sum`, `ball_average_values` and the per-scale
`averaging_modulus`, which the S_r ladder must reproduce bit for bit."""

import numpy as np

from mwlp.compactness import _ball_density, _restricted
from mwlp.errors import EmptyBall, EmptyCubeFamily, RadiusExceedsBox
from mwlp.grids import Grid
from mwlp.operators import BallScheme, _tree_mean
from mwlp.spaces import SampledVectorField
from mwlp.weight_fields import CubeFamily

# ---------------------------------------------------------------------------
# Grid geometry


def points(grid: Grid) -> np.ndarray:
    c = grid.axis_centers
    if grid.n == 1:
        pts = c[:, None].copy()
    else:
        a, b = np.meshgrid(c, c, indexing="ij")
        pts = np.stack([a.ravel(), b.ravel()], axis=1)
    return pts


def radii(grid: Grid) -> np.ndarray:
    if grid.n == 1:
        r = np.abs(points(grid)[:, 0])
    else:
        r = np.linalg.norm(points(grid), axis=1)
    return r


def shift_window(grid: Grid, kmax: int) -> np.ndarray:
    k = np.arange(-kmax, kmax + 1)
    if grid.n == 1:
        return k[:, None]
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    return np.stack([k1.ravel(), k2.ravel()], axis=1)


def index_of_point(grid: Grid, coords) -> int:
    c = np.atleast_1d(np.asarray(coords, dtype=np.float64))
    if c.shape != (grid.n,):
        raise ValueError(f"point must have {grid.n} components")
    idx = (c + grid.L) / grid.h - 0.5
    k = np.rint(idx)
    if np.any(np.abs(idx - k) > 1e-6) or np.any(k < 0) or np.any(k >= grid.N):
        raise ValueError(f"{c.tolist()} is not a cell center of this grid")
    k = k.astype(int)
    if grid.n == 1:
        return int(k[0])
    return int(k[0] * grid.N + k[1])


# ---------------------------------------------------------------------------
# shifts and the window sums


def shift_values(values: np.ndarray, grid: Grid, shift: tuple[int, ...]) -> np.ndarray:
    d = values.shape[-1]
    vals = values.reshape(grid.shape + (d,))
    out = np.zeros_like(vals)
    src = []
    dst = []
    for k in shift:
        n = grid.N
        if abs(k) >= n:
            return np.zeros_like(values)
        if k >= 0:
            dst.append(slice(k, n))
            src.append(slice(0, n - k))
        else:
            dst.append(slice(0, n + k))
            src.append(slice(-k, n))
    out[tuple(dst)] = vals[tuple(src)]
    return out.reshape(values.shape)


def window_sum_1d(grid: Grid, values: np.ndarray, scheme) -> np.ndarray:
    k = int(scheme.offsets[-1, 0])
    flat = values.reshape(grid.N, -1)
    c = np.concatenate([np.zeros((1,) + flat.shape[1:]), np.cumsum(flat, axis=0)], axis=0)
    i = np.arange(grid.N)
    lo = np.maximum(i - k, 0)
    hi = np.minimum(i + k + 1, grid.N)
    out = c[hi] - c[lo]
    return out.reshape(values.shape)


def window_sum_direct(grid: Grid, values: np.ndarray, scheme) -> np.ndarray:
    vals = values.reshape(grid.shape + values.shape[1:])
    out = np.zeros_like(vals)
    for k in scheme.offsets.tolist():
        dst = tuple(slice(max(0, ki), grid.N - max(0, -ki)) for ki in k)
        src = tuple(slice(max(0, -ki), grid.N - max(0, ki)) for ki in k)
        out[dst] += vals[src]
    return out.reshape(values.shape)


def window_sum(grid: Grid, values: np.ndarray, schemes: list) -> list:
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


def measures(scheme) -> np.ndarray:
    return window_sum(scheme.grid, scheme.mu.values, [scheme])[0] * scheme.grid.h ** scheme.grid.n


def ball_average_values(values: np.ndarray, scheme) -> np.ndarray:
    meas = measures(scheme)
    if np.any(meas <= 0.0):
        raise EmptyBall(f"a ball of radius {scheme.r} has zero measure")
    grid = scheme.grid
    weighted = values * scheme.mu.values[:, None]
    sums = window_sum(grid, weighted, [scheme])[0] * grid.h ** grid.n
    return sums.real / meas[:, None] + 1j * (sums.imag / meas[:, None])


def averaging_modulus(family, space, r: float) -> float:
    grid = family.grid
    if r >= grid.L:
        raise RadiusExceedsBox(f"scale r={r} leaves no unclipped ball in the box")
    space.check(family)
    scheme = BallScheme(grid, r, _ball_density(space))
    mask = grid.inside_ball(grid.L - r)
    return max(space.size_values(_restricted(ball_average_values(f.values, scheme) - f.values, mask))
               for f in family)


# ---------------------------------------------------------------------------
# dyadic averaging


def axis_range(scheme) -> tuple[int, int]:
    grid = scheme.grid
    a = int(round((grid.L - scheme.outer_half) / grid.h))
    b = int(round((grid.L + scheme.outer_half) / grid.h))
    return a, b


def dyadic_coefficients(f: SampledVectorField, scheme) -> np.ndarray:
    a, b = axis_range(scheme)
    nc = scheme.cubes_per_axis
    cpc = scheme.cells_per_cube_axis
    if f.grid.n == 1:
        block = f.values[a:b].reshape(nc, cpc, f.d)
        return _tree_mean(block, 1).reshape(-1, f.d)
    vals = f.values.reshape(f.grid.N, f.grid.N, f.d)
    block = vals[a:b, a:b].reshape(nc, cpc, nc, cpc, f.d)
    return _tree_mean(_tree_mean(block, 3), 1).reshape(-1, f.d)


def field_from_coefficients(scheme, coeffs: np.ndarray, d: int) -> SampledVectorField:
    grid = scheme.grid
    a, b = axis_range(scheme)
    nc = scheme.cubes_per_axis
    cpc = scheme.cells_per_cube_axis
    out = np.zeros((grid.num_points, d), dtype=np.complex128)
    if grid.n == 1:
        block = np.repeat(coeffs.reshape(nc, d), cpc, axis=0)
        out[a:b] = block
    else:
        c = coeffs.reshape(nc, nc, d)
        block = np.repeat(np.repeat(c, cpc, axis=0), cpc, axis=1)
        o = out.reshape(grid.N, grid.N, d)
        o[a:b, a:b] = block
        out = o.reshape(grid.num_points, d)
    return SampledVectorField(grid, out)


# ---------------------------------------------------------------------------
# cube families and the scalar A_p pass


def default_family(grid: Grid) -> CubeFamily:
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
    return CubeFamily(np.array(corners), np.array(sides),
                      f"dyadic generations 0..{gmax} of [-L,L)^{n} plus origin-anchored cubes, L={L}, N={grid.N}")


def cube_cells(cubes: CubeFamily, grid: Grid, k: int) -> np.ndarray:
    lo = cubes.corners[k]
    hi = lo + cubes.sides[k]
    pts = grid.points
    mask = np.all((pts >= lo - 1e-12) & (pts < hi - 1e-12 * grid.h), axis=1)
    return np.nonzero(mask)[0]


def axis_ranges(cubes: CubeFamily, grid: Grid, k: int) -> tuple[tuple[int, int], ...]:
    lo = cubes.corners[k]
    side = cubes.sides[k]
    out = []
    for ax in range(grid.n):
        i0 = int(np.ceil((lo[ax] + grid.L) / grid.h - 0.5 - 1e-9))
        i1 = int(np.ceil((lo[ax] + side + grid.L) / grid.h - 0.5 - 1e-9))
        i0 = max(i0, 0)
        i1 = min(i1, grid.N)
        out.append((i0, i1))
    return tuple(out)


def _scalar_cube_stats(grid: Grid, w: np.ndarray, g: np.ndarray, cubes: CubeFamily):
    if grid.n == 1:
        cw = np.concatenate([[0.0], np.cumsum(w)])
        cg = np.concatenate([[0.0], np.cumsum(g)])
        for k in range(len(cubes)):
            (i0, i1), = axis_ranges(cubes, grid, k)
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
            (a0, a1), (b0, b1) = axis_ranges(cubes, grid, k)
            m = (a1 - a0) * (b1 - b0)
            if m <= 0:
                continue
            yield k, rect(cw, a0, a1, b0, b1) / m, rect(cg, a0, a1, b0, b1) / m, ((a0, a1), (b0, b1))


def scalar_ap(grid: Grid, w: np.ndarray, p: float, cubes: CubeFamily) -> float:
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
