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
        c = self.axis_centers
        if self.n == 1:
            pts = c[:, None].copy()
        else:
            a, b = np.meshgrid(c, c, indexing="ij")
            pts = np.stack([a.ravel(), b.ravel()], axis=1)
        pts.setflags(write=False)
        return pts

    @cached_property
    def radii(self) -> np.ndarray:
        """Euclidean distance of each cell center from the origin."""
        if self.n == 1:
            r = np.abs(self.points[:, 0])
        else:
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
        k = np.arange(-kmax, kmax + 1)
        if self.n == 1:
            return k[:, None]
        k1, k2 = np.meshgrid(k, k, indexing="ij")
        return np.stack([k1.ravel(), k2.ravel()], axis=1)

    def shifts_within(self, shifts: np.ndarray, r: float) -> np.ndarray:
        """Mask of the rows k of an (S, n) shift array with k != 0 and |k * h| <= r."""
        inside = np.all(np.abs(shifts) <= self.max_shift(r), axis=1)
        if self.n == 2:
            inside &= np.sum(shifts * shifts, axis=1) * self.h ** 2 <= r * r * (1 + 1e-12)
        return inside & np.any(shifts != 0, axis=1)

    def lattice_shifts(self, r: float) -> list[tuple[int, ...]]:
        """All nonzero integer shifts k with |k * h| <= r, in a fixed order."""
        window = self.shift_window(self.max_shift(r))
        return [tuple(int(x) for x in k) for k in window[self.shifts_within(window, r)]]

    def refine(self) -> "Grid":
        return Grid(self.n, self.L, 2 * self.N)

    def index_of_point(self, coords) -> int:
        """Flat index of the cell whose center is coords (must lie on the grid)."""
        c = np.atleast_1d(np.asarray(coords, dtype=np.float64))
        if c.shape != (self.n,):
            raise ValueError(f"point must have {self.n} components")
        idx = (c + self.L) / self.h - 0.5
        k = np.rint(idx)
        if np.any(np.abs(idx - k) > 1e-6) or np.any(k < 0) or np.any(k >= self.N):
            raise ValueError(f"{c.tolist()} is not a cell center of this grid")
        k = k.astype(int)
        if self.n == 1:
            return int(k[0])
        return int(k[0] * self.N + k[1])
