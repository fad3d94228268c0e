"""Bit-exact round trips of the column text field format."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mwlp import fieldio
from mwlp.errors import MalformedField, MwlpError
from mwlp.grids import Grid
from mwlp.spaces import ExponentField, SampledVectorField
from mwlp.weight_fields import MatrixWeightField, MeasureDensity, ScalarWeightField

from conftest import random_psd, zero_field

import reference_fieldio


def test_matrix_round_trip(tmp_path, rng):
    g = Grid(1, 0.7, 32)
    vals = np.stack([random_psd(rng, 2, definite=True) for _ in range(32)])
    w = MatrixWeightField(g, vals, invertible=True)
    path = tmp_path / "w.txt"
    fieldio.save_field(path, w)
    w2 = fieldio.load_field(path, MatrixWeightField)
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
    f2 = fieldio.load_field(path, SampledVectorField)
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
        back = fieldio.load_field(path, type(field))
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
    back = fieldio.load_field(path, SampledVectorField)
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
    back = fieldio.load_field(path, SampledVectorField).values
    assert np.array_equal(back.view(np.int64), vals.view(np.int64))


def test_corrupted_file_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a field\n")
    with pytest.raises(ValueError):
        fieldio.load_field(path, SampledVectorField)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1], "expected 8 rows, found 7"),
    (lambda lines: [ln for ln in lines if not ln.startswith("N ")], "missing header line 'N'"),
    (lambda lines: lines[:-1] + ["0.5"], "every row must hold 2 numbers"),
    (lambda lines: lines[:-1] + ["0.5 oops"], "could not convert"),
    (lambda lines: [ln.replace("N 8", "N 7") for ln in lines], "power of two"),
    (lambda lines: [ln.replace("L 1.0", "L inf") for ln in lines], "positive and finite"),
])
def test_malformed_file_raises_toolkit_error(tmp_path, edit, message):
    path = tmp_path / "f.txt"
    fieldio.save_field(path, zero_field(Grid(1, 1.0, 8), 1))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(MalformedField, match=message) as info:
        fieldio.load_field(path, SampledVectorField)
    assert isinstance(info.value, MwlpError)


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, 0.1, 1.0 / 3.0]
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def samples(draw, count):
    """count floats, either from a small pool that edge values may join, so
    that values repeat, or all distinct."""
    if draw(st.booleans()):
        pool = draw(st.lists(st.sampled_from(EDGE_VALUES) | FLOATS, min_size=1, max_size=6))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count)))
    return np.array(draw(st.lists(FLOATS, min_size=count, max_size=count, unique=True)))


def nonnegative(values):
    """|values|, with the sign of each zero kept (-0.0 is not negative)."""
    return np.where(values == 0.0, values, np.abs(values))


@st.composite
def fields(draw):
    """A field of any of the five kinds with drawn samples."""
    grid = draw(st.sampled_from([Grid(1, 1.0, 8), Grid(1, 0.7, 16), Grid(2, 1.0, 8)]))
    m = grid.num_points
    kind = draw(st.sampled_from(sorted(fieldio.KINDS.values())))
    if kind == "vector":
        d = draw(st.integers(1, 2))
        values = np.empty((m, d), dtype=np.complex128)
        values.real = draw(samples(m * d)).reshape(m, d)
        values.imag = draw(samples(m * d)).reshape(m, d)
        return SampledVectorField(grid, values)
    if kind == "matrix":
        # diagonal samples with signed-zero off-diagonal entries, or random
        # positive-definite matrices with all-distinct entries
        d = draw(st.integers(1, 2))
        if draw(st.booleans()):
            values = np.zeros((m, d, d), dtype=np.complex128)
            idx = np.arange(d)
            values[:, idx, idx] = nonnegative(draw(samples(m * d))).reshape(m, d)
            if d == 2:
                zeros = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]),
                                               min_size=2 * m, max_size=2 * m))).reshape(m, 2)
                values[:, 0, 1].real, values[:, 0, 1].imag = zeros[:, 0], zeros[:, 1]
                values[:, 1, 0] = np.conj(values[:, 0, 1])
            return MatrixWeightField(grid, values)
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        values = np.stack([random_psd(rng, d, definite=True) for _ in range(m)])
        return MatrixWeightField(grid, values, invertible=True)
    values = nonnegative(draw(samples(m)))
    if kind == "scalar":
        return ScalarWeightField(grid, values)
    if kind == "density":
        values[0] = max(values[0], 1.0)
        with np.errstate(over="ignore"):  # the total of huge samples overflows
            return MeasureDensity(grid, values)
    return ExponentField(grid, 1.0 + values)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fields())
def test_writer_bytes_equal_the_one_repr_per_float_writer(tmp_path_factory, field):
    """Formatting each distinct value once writes the bytes of formatting every float."""
    folder = tmp_path_factory.mktemp("fields")
    fieldio.save_field(folder / "new.txt", field)
    reference_fieldio.save_field(folder / "reference.txt", field)
    assert (folder / "new.txt").read_bytes() == (folder / "reference.txt").read_bytes()


def test_undecodable_file_raises_malformed_field(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"mwfield 1\nkind vector\n\xff\n")
    with pytest.raises(MalformedField, match="can't decode"):
        fieldio.load_field(path, SampledVectorField)


def test_wrong_kind_names_the_file_and_the_kind(tmp_path):
    path = tmp_path / "f.txt"
    fieldio.save_field(path, zero_field(Grid(1, 1.0, 8), 1))
    with pytest.raises(MalformedField) as info:
        fieldio.load_field(path, MatrixWeightField)
    assert str(info.value) == f"{path} does not contain a MatrixWeightField"


def test_constructor_rejection_keeps_its_class_and_names_the_file(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("mwfield 1\nkind exponent\nn 1\nL 1.0\nN 8\nd 1\n" + "0.5\n" * 8)
    with pytest.raises(MwlpError) as info:
        fieldio.load_field(path, ExponentField)
    assert type(info.value).__name__ == "OutOfRange"
    assert str(info.value) == f"{path}: exponents must satisfy p(x) >= 1"
