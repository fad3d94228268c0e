"""Bit-exact round trips of the column text field format."""

import numpy as np
import pytest

from mwlp import fieldio
from mwlp.errors import MalformedField, MwlpError
from mwlp.grids import Grid
from mwlp.spaces import ExponentField, SampledVectorField
from mwlp.weight_fields import MatrixWeightField, MeasureDensity, ScalarWeightField

from conftest import random_psd


def test_matrix_round_trip(tmp_path, rng):
    g = Grid(1, 0.7, 32)
    vals = np.stack([random_psd(rng, 2, definite=True) for _ in range(32)])
    w = MatrixWeightField(g, vals, invertible=True)
    path = tmp_path / "w.txt"
    fieldio.save_field(path, w)
    w2 = fieldio.load_field(path)
    assert isinstance(w2, MatrixWeightField)
    assert w2.invertible
    assert w2.grid == g
    assert np.array_equal(w.values, w2.values)


def test_vector_round_trip(tmp_path, rng):
    g = Grid(2, 1.0, 8)
    f = SampledVectorField(
        g, rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3)))
    path = tmp_path / "f.txt"
    fieldio.save_field(path, f)
    f2 = fieldio.load_field(path)
    assert isinstance(f2, SampledVectorField)
    assert np.array_equal(f.values, f2.values)


def test_scalar_kinds_round_trip(tmp_path, rng):
    g = Grid(1, 1.0, 16)
    fields = {
        "scalar.txt": ScalarWeightField(g, rng.random(16)),
        "density.txt": MeasureDensity(g, 0.5 + rng.random(16)),
        "exponent.txt": ExponentField(g, 1.0 + 2.0 * rng.random(16)),
    }
    for name, field in fields.items():
        path = tmp_path / name
        fieldio.save_field(path, field)
        back = fieldio.load_field(path)
        assert type(back) is type(field)
        assert np.array_equal(field.values, back.values)


def test_negative_zero_preserved(tmp_path):
    g = Grid(1, 1.0, 8)
    vals = np.zeros((8, 1), dtype=complex)
    vals[0, 0] = complex(-0.0, 0.0)
    assert np.signbit(vals[0, 0].real)
    f = SampledVectorField(g, vals)
    path = tmp_path / "z.txt"
    fieldio.save_field(path, f)
    back = fieldio.load_field(path)
    assert np.signbit(back.values[0, 0].real)


def test_rows_are_shortest_reprs_and_load_bit_for_bit(tmp_path, rng):
    g = Grid(1, 1.0, 8)
    vals = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    vals[0] = [complex(-0.0, 0.0), complex(5e-324, -0.0)]
    vals[1] = [complex(1e300, -1e-300), complex(0.1, 1.0 / 3.0)]
    path = tmp_path / "f.txt"
    fieldio.save_field(path, SampledVectorField(g, vals))
    rows = np.stack([vals.real, vals.imag], axis=-1).reshape(8, 4)
    body = path.read_text().splitlines()[6:]
    assert body == [" ".join(repr(float(x)) for x in row) for row in rows]
    back = fieldio.load_field(path).values
    assert np.array_equal(back.view(np.int64), vals.view(np.int64))


def test_corrupted_file_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a field\n")
    with pytest.raises(ValueError):
        fieldio.load_field(path)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1], "expected 8 rows, found 7"),
    (lambda lines: [ln for ln in lines if not ln.startswith("N ")], "missing header line 'N'"),
    (lambda lines: lines[:-1] + ["0.5"], "every row must hold 2 numbers"),
    (lambda lines: lines[:-1] + ["0.5 oops"], "could not convert"),
    (lambda lines: [ln.replace("N 8", "N 7") for ln in lines], "power of two"),
])
def test_malformed_file_raises_toolkit_error(tmp_path, edit, message):
    path = tmp_path / "f.txt"
    fieldio.save_field(path, SampledVectorField.zero(Grid(1, 1.0, 8), 1))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(MalformedField, match=message) as info:
        fieldio.load_field(path)
    assert isinstance(info.value, MwlpError)
