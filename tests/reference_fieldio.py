"""Reference field-file writer, kept as the oracle for `fieldio.save_field`.

This is `save_field` as it was before the writer formatted each distinct
value once: every float of every row goes through `repr`, and the rows are
joined one by one.  The writer must reproduce its bytes exactly.  Slow and
plain."""

import numpy as np

from mwlp.fieldio import KINDS


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
