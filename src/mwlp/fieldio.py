"""Column-oriented text serialization for sampled fields.

Format (one file per field):

    mwfield 1
    kind <matrix|vector|scalar|density|exponent>
    n <1|2>
    L <float repr>
    N <int>
    d <int>
    invertible <0|1>          (matrix kind only)
    <one line per grid point, row-major>

Rows carry d*d complex entries for matrices and d complex entries for
vectors, written as real/imag pairs; scalar kinds carry one real value.
Floats are written with Python's shortest round-trip repr, so a save/load
cycle is bit-exact.
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedField, MwlpError
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
    grid = field.grid
    lines = [_MAGIC, f"kind {kind}", f"n {grid.n}", f"L {grid.L!r}", f"N {grid.N}"]
    if kind == "matrix":
        d = field.d
        lines.append(f"d {d}")
        lines.append(f"invertible {1 if field.invertible else 0}")
        flat = field.values.reshape(grid.num_points, d * d)
        rows = np.empty((grid.num_points, 2 * d * d))
        rows[:, 0::2] = flat.real
        rows[:, 1::2] = flat.imag
    elif kind == "vector":
        d = field.d
        lines.append(f"d {d}")
        rows = np.empty((grid.num_points, 2 * d))
        rows[:, 0::2] = field.values.real
        rows[:, 1::2] = field.values.imag
    else:
        lines.append("d 1")
        rows = field.values[:, None]
    body = "\n".join(" ".join(map(repr, row)) for row in rows.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n" + body + "\n")


def load_field(path):
    """Read a field written by save_field; the kind decides the return type.

    A file that does not parse as the format raises MalformedField.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        return _parse_field(text, path)
    except MwlpError:
        raise
    except ValueError as exc:
        raise MalformedField(f"{path}: {exc}") from exc


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
    grid = Grid(int(header["n"]), float(header["L"]), int(header["N"]))
    d = int(header.get("d", "1"))
    columns = {"matrix": 2 * d * d, "vector": 2 * d}.get(kind, 1)
    rows = [line.split() for line in lines[i:] if line.strip()]
    if len(rows) != grid.num_points:
        raise MalformedField(f"{path}: expected {grid.num_points} rows, found {len(rows)}")
    if any(len(row) != columns for row in rows):
        raise MalformedField(f"{path}: every row must hold {columns} numbers")
    rows = np.array(rows, dtype=np.float64)

    def complexify(block):
        # componentwise assembly keeps signed zeros intact
        out = np.empty(block[:, 0::2].shape, dtype=np.complex128)
        out.real = block[:, 0::2]
        out.imag = block[:, 1::2]
        return out

    if kind == "matrix":
        vals = complexify(rows).reshape(grid.num_points, d, d)
        return MatrixWeightField(grid, vals, invertible=header.get("invertible", "0") == "1")
    if kind == "vector":
        return SampledVectorField(grid, complexify(rows))
    vals = rows[:, 0]
    if kind == "density":
        return MeasureDensity(grid, vals)
    if kind == "exponent":
        return ExponentField(grid, vals)
    return ScalarWeightField(grid, vals)
