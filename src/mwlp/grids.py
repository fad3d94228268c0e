"""Uniform rectangular grids on [-L, L)^n with midpoint quadrature.

A grid stores cell centers of N^n congruent cells; quadrature of a sampled
function is the midpoint rule, cell value times cell volume.  Points are
kept as a flat (M, n) array in row-major axis order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import OffLattice


@dataclass(frozen=True)
class Grid:
    """Sampling of the box [-L, L)^n by N cells per axis (N a power of two)."""

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"dimension n must be 1 or 2, got {self.n}")
        if not self.L > 0:
            raise ValueError("half-width L must be positive")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def num_points(self) -> int:
        return self.N ** self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @cached_property
    def axis_centers(self) -> np.ndarray:
        i = np.arange(self.N, dtype=np.float64)
        c = -self.L + (i + 0.5) * self.h
        c.setflags(write=False)
        return c

    @cached_property
    def points(self) -> np.ndarray:
        """Cell centers, shape (M, n), row-major over axes."""
        pts = _mesh(self.axis_centers, self.n)
        pts.setflags(write=False)
        return pts

    @cached_property
    def radii(self) -> np.ndarray:
        """Euclidean distance of each cell center from the origin."""
        r = np.linalg.norm(self.points, axis=1)
        r.setflags(write=False)
        return r

    def quadrature(self, values: np.ndarray) -> float:
        """Midpoint-rule integral over the box of a per-point sampled function."""
        v = np.asarray(values)
        if v.shape[0] != self.num_points:
            raise ValueError("values do not match the number of grid points")
        return float(np.sum(v)) * self.h ** self.n

    def inside_ball(self, R: float) -> np.ndarray:
        """Boolean mask of cells with |x| < R."""
        return self.radii < R

    def outside_ball(self, R: float) -> np.ndarray:
        """Boolean mask of cells with |x| >= R (complement of the open ball)."""
        return self.radii >= R

    def outside_box(self, half: float) -> np.ndarray:
        """Boolean mask of cells outside the box [-half, half)^n."""
        return np.any((self.points < -half) | (self.points >= half), axis=1)

    def shift_of(self, y) -> tuple[int, ...]:
        """Integer index shift of a lattice vector y (multiples of h per axis)."""
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        if y.shape != (self.n,):
            raise ValueError(f"lattice vector must have {self.n} components")
        ratio = y / self.h
        k = np.rint(ratio)
        if np.any(np.abs(ratio - k) > 1e-9):
            raise OffLattice(f"{y.tolist()} is not an integer multiple of h={self.h}")
        return tuple(int(x) for x in k)

    def max_shift(self, r: float) -> int:
        """Largest per-axis index shift of a lattice vector of length <= r."""
        return int(np.floor(r / self.h + 1e-12))

    def shift_window(self, kmax: int) -> np.ndarray:
        """Integer shifts with every |k_i| <= kmax, shape (S, n), row-major over axes."""
        return _mesh(np.arange(-kmax, kmax + 1), self.n)

    def shift_slices(self, k) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
        """Slices (dst, src) with out[dst] = values[src] on (N,)*n arrays moving
        values by the integer shift k, zero fill: what leaves the box is dropped."""
        dst, src = [], []
        for ki in k:
            a = min(abs(int(ki)), self.N)
            head, tail = slice(a, self.N), slice(0, self.N - a)
            dst.append(head if ki >= 0 else tail)
            src.append(tail if ki >= 0 else head)
        return tuple(dst), tuple(src)

    def shifts_within(self, shifts: np.ndarray, r: float) -> np.ndarray:
        """Mask of the rows k of an (S, n) shift array with k != 0 and |k * h| <= r."""
        inside = np.all(np.abs(shifts) <= self.max_shift(r), axis=1)
        inside &= np.sum(shifts * shifts, axis=1) * self.h ** 2 <= r * r * (1 + 1e-12)
        return inside & np.any(shifts != 0, axis=1)

    def index_of_point(self, coords) -> int:
        """Flat index of the cell whose center is coords (must lie on the grid)."""
        c = np.atleast_1d(np.asarray(coords, dtype=np.float64))
        if c.shape != (self.n,):
            raise ValueError(f"point must have {self.n} components")
        idx = (c + self.L) / self.h - 0.5
        k = np.rint(idx)
        if np.any(np.abs(idx - k) > 1e-6) or np.any(k < 0) or np.any(k >= self.N):
            raise ValueError(f"{c.tolist()} is not a cell center of this grid")
        return int(np.ravel_multi_index(tuple(k.astype(int)), self.shape))

    def box_cells(self, boxes) -> np.ndarray:
        """Flat indices, ascending, of the cells in index boxes of one shape:
        rows (lo, hi) per axis, cell index lo <= i < hi.  One box (n, 2) gives
        shape (m,), a stack (K, n, 2) of boxes with equal widths (K, m)."""
        b = np.asarray(boxes)
        stack = b.reshape(-1, self.n, 2)
        k = len(stack)
        cells = np.zeros((k, 1), dtype=np.intp)
        for ax, (lo, hi) in enumerate(stack[0].tolist()):
            axis = stack[:, ax, :1] + np.arange(hi - lo)
            cells = (cells[:, :, None] * self.N + axis[:, None, :]).reshape(k, -1)
        return cells.reshape(b.shape[:-2] + (-1,))


def _mesh(axis_values: np.ndarray, n: int) -> np.ndarray:
    """All n-tuples of axis_values, shape (len ** n, n), row-major over axes."""
    return np.stack([a.ravel() for a in np.meshgrid(*(axis_values,) * n, indexing="ij")], axis=-1)
