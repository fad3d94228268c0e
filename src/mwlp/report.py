"""Report assembly and canonical serialization.

Reports are JSON documents with sorted keys and Python's shortest
round-trip float repr, so a scenario re-run with the same seed produces a
byte-identical file.  Curves additionally export as two-column CSV.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _canonical(obj):
    """Recursively convert numpy scalars/arrays and complex values."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def render(report: dict) -> str:
    return json.dumps(_canonical(report), sort_keys=True, indent=2) + "\n"


def assemble(scenario, outputs: dict, version: str) -> dict:
    """Standard report envelope: scenario echo, provenance, task outputs."""
    return {
        "schema": "mwlp-report/1",
        "scenario": scenario.raw,
        "provenance": {
            "seed": scenario.seed,
            "version": version,
            "grid": scenario.grid,
            "source": scenario.source,
        },
        "task": scenario.task_name,
        "outputs": outputs,
    }


def write_curve_csv(path, curve) -> None:
    """Two-column CSV (scale, value) for external plotting."""
    lines = ["scale,value"]
    for scale, value in curve:
        lines.append(f"{float(scale)!r},{float(value)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def collect_curves(outputs: dict, prefix: str = "") -> list[tuple[str, list]]:
    """Find (name, curve) pairs in task outputs; curves are lists of pairs."""
    found = []
    for key, val in outputs.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            found.extend(collect_curves(val, prefix=f"{name}."))
        elif (isinstance(val, list) and val
              and all(isinstance(p, (list, tuple)) and len(p) == 2
                      and all(isinstance(x, (int, float, np.floating)) for x in p)
                      for p in val)):
            if key.endswith("curve"):
                found.append((name, val))
    return found
