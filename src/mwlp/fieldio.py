"""Column-oriented text serialization for sampled fields.

Format (one file per field):

    mwfield 1
    kind <matrix|vector|scalar|density|exponent>
    n <1|2>
    L <float repr>
    N <int>
    d <int>
    invertible <0|1>          (matrix kind only; written, ignored on load)
    <one line per grid point, row-major>

Every kind follows one row rule: a row holds the entries of one sample in
row-major order, a complex entry as its (re, im) pair and a real one as it
is, so matrices carry d*d pairs, vectors d pairs and the scalar kinds one
value.  Each field type's SAMPLE (dtype and axes) decides its layout.
Floats are written with Python's shortest round-trip repr, so a save/load
cycle is bit-exact; the writer formats each distinct value once, and the
reader decodes each distinct row text once and gathers the rows from it
(sampled fields repeat rows: a dyadic net's centers are piecewise constant).
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedField, MwlpError, OutOfRange
from .grids import Grid
from .spaces import ExponentField, SampledVectorField
from .weight_fields import MatrixWeightField, MeasureDensity, ScalarWeightField

_MAGIC = "mwfield 1"

#: the kind each field type is written as
KINDS = {MatrixWeightField: "matrix", SampledVectorField: "vector", ScalarWeightField: "scalar",
         MeasureDensity: "density", ExponentField: "exponent"}


def save_field(path, field) -> None:
    """Write a field to the column text format (bit-exact round trip)."""
    kind = next((k for cls, k in KINDS.items() if isinstance(field, cls)), None)
    if kind is None:
        raise TypeError(f"unsupported field type {type(field)!r}")
    grid, values = field.grid, field.values
    lines = [_MAGIC, f"kind {kind}", f"n {grid.n}", f"L {grid.L!r}", f"N {grid.N}",
             f"d {values.shape[1] if values.ndim > 1 else 1}"]
    if kind == "matrix":  # the measured property; a loaded weight measures its own
        lines.append(f"invertible {1 if field.invertible else 0}")
    # a complex entry viewed as float64 is its (re, im) pair
    rows = np.ascontiguousarray(values).reshape(grid.num_points, -1).view(np.float64)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n" + _body(rows))


def _body(rows: np.ndarray) -> str:
    """The sample lines: the repr of every float, columns joined by spaces.

    Each distinct value is formatted once, keyed by its int64 bit pattern so
    that -0.0 keeps its sign, and one %-formatting pass lays out the lines;
    sampled fields repeat values (zero imaginary parts, symmetric entries).
    """
    n, columns = rows.shape
    bits, inverse = np.unique(rows.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    line = " ".join(["%s"] * columns) + "\n"
    return (line * n) % tuple(text[inverse.ravel()].tolist())


def load_field(path, kind: type):
    """The field of type `kind` in a file written by save_field.

    This is the one acceptance rule of field files, and every rejection
    names the file: a file that does not parse as the format, or holds
    another kind of field, raises MalformedField; a constructor's rejection
    of the samples keeps its class, with the file prefixed to its message.
    """
    try:
        with open(path) as fh:
            field = _parse_field(fh.read(), path)
    except MalformedField:
        raise
    except MwlpError as exc:  # the field's constructor rejected the samples
        exc.args = (f"{path}: {exc}",)
        raise
    except ValueError as exc:  # text or a number that does not decode
        raise MalformedField(f"{path}: {exc}") from exc
    if not isinstance(field, kind):
        raise MalformedField(f"{path} does not contain a {kind.__name__}")
    return field


def _parse_field(text: str, path):
    lines = text.splitlines()
    if not lines or lines[0] != _MAGIC:
        raise MalformedField(f"{path}: not a mwfield file")
    header: dict[str, str] = {}
    i = 1
    while i < len(lines) and " " in lines[i] and lines[i].split(" ", 1)[0] in (
            "kind", "n", "L", "N", "d", "invertible"):
        key, val = lines[i].split(" ", 1)
        header[key] = val
        i += 1
    kind = header.get("kind")
    if kind not in KINDS.values():
        raise MalformedField(f"{path}: unknown field kind {kind!r}")
    missing = [key for key in ("n", "L", "N") if key not in header]
    if missing:
        raise MalformedField(f"{path}: missing header line {missing[0]!r}")
    try:
        grid = Grid(int(header["n"]), float(header["L"]), int(header["N"]))
    except OutOfRange as exc:  # the header names no grid
        raise MalformedField(f"{path}: {exc}") from exc
    cls = next(c for c, k in KINDS.items() if k == kind)
    dtype, ndim = cls.SAMPLE
    shape = (grid.num_points,) + (int(header.get("d", "1")),) * (ndim - 1)
    columns = int(np.prod(shape[1:])) * np.dtype(dtype).itemsize // 8  # float64s per row
    body = list(filter(str.strip, lines[i:]))  # blank lines are skipped
    if len(body) != grid.num_points:
        raise MalformedField(f"{path}: expected {grid.num_points} rows, found {len(body)}")
    # each distinct row text is decoded once: equal text decodes to equal bits
    index = {line: k for k, line in enumerate(dict.fromkeys(body))}
    rows = [line.split() for line in index]
    if any(len(row) != columns for row in rows):
        raise MalformedField(f"{path}: every row must hold {columns} numbers")
    values = np.array(rows, dtype=np.float64)[list(map(index.get, body))]
    # the float64 (re, im) pairs viewed as complex keep signed zeros intact
    values = values.view(dtype).reshape(shape)
    return cls(grid, values)
