"""Fixed calibration kernels that measure how fast the machine is right now.

On a shared machine the speed of the same code drifts by tens of percent
within minutes, as neighbours come and go.  The client times a kernel
before every job and after it, and reports job time in units of the
kernel's time measured around the job, which such drift largely cancels.
The kernels use no `mwlp` code, so a change to the program cannot move them.

Each workload names the kernel that follows its hot loops best, because
code that streams large arrays and code dominated by small calls slow down
differently when neighbours load the machine.  `loops` has small NumPy
calls on grid-sized arrays (as in the per-shift norm loop), shifted-slice
sums over a 2-D grid (as in the ball window sum) and plain interpreter work;
`pairwise_svd` is dominated by a batched SVD of pairwise 2x2 products (as in
the A_p pass).  On the moduli and net workloads `loops` kept the ten-seed
spread near 3% where `pairwise_svd` gave 6-11%; on the weights workload it
was the other way round.
"""

from __future__ import annotations

import time

import numpy as np


def _grid_arrays(rng):
    field = rng.standard_normal((1024, 2)) + 1j * rng.standard_normal((1024, 2))
    weight = rng.standard_normal((1024, 2, 2)) + 1j * rng.standard_normal((1024, 2, 2))
    return field, weight


def _shift_norms(field, weight, shifts: int) -> float:
    acc = 0.0
    for k in range(1, shifts):
        diff = np.roll(field, k, axis=0) - field
        acc += float(np.sum(np.linalg.norm(np.einsum("mij,mj->mi", weight, diff), axis=1) ** 2))
    return acc


def loops() -> float:
    """Per-shift norm loop, 2-D shifted-slice sums and interpreter work."""
    rng = np.random.default_rng(12345)
    field, weight = _grid_arrays(rng)
    acc = _shift_norms(field, weight, 450)
    n = 128
    grid = rng.standard_normal((n, n, 2)) + 1j * rng.standard_normal((n, n, 2))
    window = np.zeros_like(grid)
    for k1 in range(-4, 5):
        for k2 in range(-4, 5):
            window[max(0, k1):n - max(0, -k1), max(0, k2):n - max(0, -k2)] += \
                grid[max(0, -k1):n - max(0, k1), max(0, -k2):n - max(0, k2)]
    acc += float(np.abs(window).sum())
    acc += sum((i * 7) % 13 for i in range(60_000))
    return acc


def pairwise_svd() -> float:
    """Pairwise 2x2 products and their batched SVD, as in the A_p pass."""
    field, weight = _grid_arrays(np.random.default_rng(12345))
    acc = _shift_norms(field, weight, 150)
    prod = np.einsum("xij,yjk->xyik", weight[:24], weight)
    acc += float(np.sum(np.linalg.svd(prod, compute_uv=False)[..., 0]))
    acc += float(np.sum(np.abs(np.cumsum(prod.reshape(-1)))))
    return acc


KERNELS = {"loops": loops, "pairwise_svd": pairwise_svd}


def seconds(kernel: str) -> float:
    """Wall time of one call of the named kernel."""
    start = time.perf_counter()
    KERNELS[kernel]()
    return time.perf_counter() - start
