"""Reference field-file writer and reader, kept as the oracles for
`fieldio.save_field` and `fieldio.load_field`.

The writer is `save_field` as it was before it formatted each distinct value
once: every float of every row goes through `repr`, and the rows are joined
one by one.  The reader is the parser as it was before it decoded each
distinct row once: every row is split and converted.  The package must
reproduce their bytes and bits exactly.  Slow and plain."""

import numpy as np

from mwlp.errors import MalformedField, OutOfRange
from mwlp.fieldio import KINDS
from mwlp.grids import Grid


def save_field(path, field) -> None:
    """Write a field to the column text format, one repr per float."""
    kind = next((k for cls, k in KINDS.items() if isinstance(field, cls)), None)
    if kind is None:
        raise TypeError(f"unsupported field type {type(field)!r}")
    grid = field.grid
    lines = ["mwfield 1", f"kind {kind}", f"n {grid.n}", f"L {grid.L!r}", f"N {grid.N}"]
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
    """The field in a file written by save_field, every row decoded."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "mwfield 1":
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
    except OutOfRange as exc:
        raise MalformedField(f"{path}: {exc}") from exc
    cls = next(c for c, k in KINDS.items() if k == kind)
    dtype, ndim = cls.SAMPLE
    shape = (grid.num_points,) + (int(header.get("d", "1")),) * (ndim - 1)
    columns = int(np.prod(shape[1:])) * np.dtype(dtype).itemsize // 8
    rows = [line.split() for line in lines[i:] if line.strip()]
    if len(rows) != grid.num_points:
        raise MalformedField(f"{path}: expected {grid.num_points} rows, found {len(rows)}")
    if any(len(row) != columns for row in rows):
        raise MalformedField(f"{path}: every row must hold {columns} numbers")
    values = np.array(rows, dtype=np.float64).view(dtype).reshape(shape)
    return cls(grid, values)
