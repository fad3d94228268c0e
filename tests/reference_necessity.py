"""Reference necessity table: the per-epsilon loop that re-measures every
center's tail and averaging residual for each epsilon and builds a fresh
ball scheme per center, per scale and per epsilon.  Slow and plain, kept as
the oracle that `necessity_check` must reproduce row for row."""

import numpy as np

from mwlp.compactness import (
    FunctionFamily,
    NecessityRow,
    averaging_modulus,
    default_radius_ladder,
    default_scale_ladder,
    greedy_cover,
)
from mwlp.operators import BallScheme, ball_average
from mwlp.spaces import SampledVectorField
from mwlp.weight_fields import MeasureDensity

import reference_tails


def necessity_rows(family, epsilons, space):
    grid = family.grid
    dens = space.mu if space.mu is not None else MeasureDensity.lebesgue(grid)
    radii = default_radius_ladder(grid)
    scales = default_scale_ladder(grid)

    rows = []
    for eps in epsilons:
        def dist_fn(i, j):
            return space.dist(family[i], family[j])

        center_idx, assignment, _d = greedy_cover(len(family), dist_fn, eps)
        centers = [family[k] for k in center_idx]

        per_center_R = []
        for g in centers:
            single = FunctionFamily([g])
            rk = None
            for R in radii:
                if reference_tails.tail_curve(single, [R], space)[0] < eps:
                    rk = R
                    break
            per_center_R.append(rk if rk is not None else radii[-1])
        R_star = max(per_center_R)
        tail_val = reference_tails.tail_curve(family, [R_star], space)[0]
        tail_bound = 2.0 * eps

        r_star = None
        for r in sorted(scales, reverse=True):
            if r >= grid.L / 2:
                continue
            ok = True
            for g in centers:
                if averaging_modulus(FunctionFamily([g]), space, r) >= eps:
                    ok = False
                    break
            if ok:
                r_star = r
                break
        if r_star is None:
            r_star = min(scales)

        scheme = BallScheme(grid, r_star, dens)
        cs = 0.0
        for i, f in enumerate(family):
            g = centers[assignment[i]]
            diff = SampledVectorField(grid, f.values - g.values)
            denom = space.norm(diff)
            if denom <= 1e-13:
                continue
            inside = grid.inside_ball(grid.L - r_star)[:, None]
            num = space.norm(SampledVectorField(
                grid, np.where(inside, ball_average(diff, scheme).values, 0.0)))
            cs = max(cs, num / denom)
        avg_val = averaging_modulus(family, space, r_star)
        avg_bound = (2.0 + cs) * eps
        passed = tail_val <= tail_bound * (1 + 1e-9) and avg_val <= avg_bound * (1 + 1e-9)
        rows.append(NecessityRow(
            epsilon=eps, net_size=len(centers), R=R_star, r=r_star,
            tail_value=tail_val, tail_bound=tail_bound,
            averaging_value=avg_val, averaging_bound=avg_bound,
            measured_s_r_constant=cs, passed=passed,
        ))
    return rows
