import numpy as np
import pytest

from mwlp.errors import OffLattice
from mwlp.grids import Grid


def test_quadrature_of_one_is_exact_1d():
    for N in (8, 64, 4096):
        for L in (1.0, 2.0, 0.7):
            g = Grid(1, L, N)
            assert g.quadrature(np.ones(g.num_points)) == 2.0 * L


def test_quadrature_of_one_is_exact_2d():
    g = Grid(2, 1.5, 16)
    assert g.quadrature(np.ones(g.num_points)) == (2 * 1.5) ** 2


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        Grid(1, 1.0, 6)
    with pytest.raises(ValueError):
        Grid(1, 1.0, 48)
    with pytest.raises(ValueError):
        Grid(3, 1.0, 16)
    with pytest.raises(ValueError):
        Grid(1, -1.0, 16)


def test_cell_centers_avoid_origin():
    g = Grid(1, 1.0, 64)
    assert np.min(np.abs(g.points[:, 0])) == g.h / 2
    g2 = Grid(2, 1.0, 16)
    assert np.min(g2.radii) > 0


def test_shift_of_lattice_vectors():
    g = Grid(1, 1.0, 64)
    assert g.shift_of((3 * g.h,)) == (3,)
    with pytest.raises(OffLattice):
        g.shift_of((0.4 * g.h,))


def _lattice_shifts(g, r):
    """The nonzero shifts k with |k * h| <= r, in the order of the shift window."""
    window = g.shift_window(g.max_shift(r))
    return list(map(tuple, window[g.shifts_within(window, r)].tolist()))


def test_lattice_shifts_within_radius():
    g = Grid(2, 1.0, 16)
    shifts = _lattice_shifts(g, 2 * g.h)
    assert (1, 0) in shifts and (1, 1) in shifts and (2, 0) in shifts
    assert (2, 1) not in shifts  # |(2,1)| h = sqrt(5) h > 2h
    assert (0, 0) not in shifts


@pytest.mark.parametrize("L, N", [(1.0, 64), (1.0 / 3.0, 256), (8.0, 1024)])
def test_1d_lattice_shifts_at_ladder_scales(L, N):
    # at r = 2^j h the disc test keeps every shift with |k| <= 2^j
    g = Grid(1, L, N)
    for j in range(1, 7):
        assert _lattice_shifts(g, 2 ** j * g.h) == [(k,) for k in range(-2 ** j, 2 ** j + 1) if k]


def test_index_of_point_round_trip():
    g = Grid(2, 2.0, 16)
    for k in (0, 7, 100, g.num_points - 1):
        assert g.index_of_point(g.points[k]) == k


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
def test_outside_box_counts_cells(n, N):
    # [-L/2, L/2)^n holds N/2 cells per axis
    g = Grid(n, 1.0, N)
    mask = g.outside_box(0.5)
    assert mask.shape == (g.num_points,)
    assert int(np.sum(mask)) == N ** n - (N // 2) ** n
