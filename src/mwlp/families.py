"""Builtin generators for sampled function families."""

from __future__ import annotations

import numpy as np

from .compactness import FunctionFamily
from .grids import Grid
from .spaces import SampledVectorField

#: bumps summed in each member of `bump_combinations`
BUMPS_PER_MEMBER = 4


def gaussian_bumps(grid: Grid, d: int, count: int, rng: np.random.Generator,
                   center_range=(-1.0, 1.0), width_range=(0.5, 1.0),
                   amplitude_range=(0.3, 1.0)) -> FunctionFamily:
    """Random Gaussian bumps a * exp(-|x - c|^2 / (2 sigma^2)) * u.

    Centers, widths and amplitudes are drawn uniformly from the given
    ranges; u is a random unit direction in C^d fixed per member.
    """
    pts = grid.points
    members = []
    for _ in range(count):
        c = rng.uniform(*center_range, size=grid.n)
        sigma = rng.uniform(*width_range)
        a = rng.uniform(*amplitude_range)
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        u = u / np.linalg.norm(u)
        r2 = np.sum((pts - c) ** 2, axis=1)
        profile = a * np.exp(-r2 / (2.0 * sigma ** 2))
        members.append(SampledVectorField(grid, profile[:, None] * u[None, :]))
    meta = (f"Gaussian bumps, {count} members, d={d}, centers in {list(center_range)}, "
            f"widths in {list(width_range)}, amplitudes in {list(amplitude_range)}")
    return FunctionFamily(members, metadata=meta)


def bump_combinations(grid: Grid, d: int, count: int, rng: np.random.Generator) -> FunctionFamily:
    """Random signed combinations of BUMPS_PER_MEMBER bumps, for stress-testing
    operators: centers in [-L/2, L/2)^n, widths in [0.1 L, 0.5 L).

    Parameters are drawn once per member in physical units, so the same
    generator seed yields the same functions on refined grids.
    """
    pts = grid.points
    members = []
    for _ in range(count):
        vals = np.zeros((grid.num_points, d), dtype=np.complex128)
        for _b in range(BUMPS_PER_MEMBER):
            c = rng.uniform(-0.5 * grid.L, 0.5 * grid.L, size=grid.n)
            sigma = rng.uniform(0.1, 0.5) * grid.L
            u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            amp = rng.uniform(-1.0, 1.0)
            r2 = np.sum((pts - c) ** 2, axis=1)
            vals += amp * np.exp(-r2 / (2.0 * sigma ** 2))[:, None] * u[None, :]
        members.append(SampledVectorField(grid, vals))
    return FunctionFamily(members, metadata=f"bump combinations, {count} members, d={d}")
