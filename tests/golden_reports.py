"""The default reports, pinned byte for byte in tests/golden/.

Each entry of COMMANDS is one default CLI command.  Its report, and the
curve CSVs written next to it, live in tests/golden/ under the entry's name;
tests/golden/ENVIRONMENT.json records the Python, numpy and BLAS that wrote
them.  `test_golden_reports.py` reruns every command in-process and
compares the bytes.  A change that moves a default report regenerates the
files with

    PYTHONPATH=src python tests/golden_reports.py

and lists the fields that moved, as the failing test names them.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import shutil
from pathlib import Path

import numpy as np

from mwlp import cli

GOLDEN = Path(__file__).parent / "golden"
ENVIRONMENT = GOLDEN / "ENVIRONMENT.json"

COMMANDS = {
    "ap-constant": ["ap-constant"],
    "ap-constant-p05": ["ap-constant", "--p", "0.5"],
    "john": ["john"],
    "john-d3-q1": ["john", "--d", "3", "--q", "1"],
    "norm": ["norm"],
    "moduli": ["moduli"],
    "moduli-twisted": ["moduli", "--notion", "twisted"],
    "moduli-averaging": ["moduli", "--notion", "averaging"],
    "net": ["net"],
    "net-average": ["net", "--route", "average"],
    "certify": ["certify"],
    "necessity": ["necessity"],
    "verify-lemmas": ["verify-lemmas"],
    "verify-lemmas-5": ["verify-lemmas", "--count", "5"],
}


def environment() -> dict:
    """The versions that decide the last bits of a report."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', 'unknown')}"}


def run(name: str, out_dir: Path) -> list[Path]:
    """Run one default command in-process with --out under out_dir; returns
    the files it wrote (the report and its curve CSVs), sorted by name."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(COMMANDS[name] + ["--out", str(out_dir / f"{name}.json")])
    if code != 0:
        raise RuntimeError(f"mwlp {' '.join(COMMANDS[name])} exited with {code}")
    return written(out_dir, name)


def written(directory: Path, name: str) -> list[Path]:
    """The report of one command in a directory and its curve CSVs."""
    return sorted(directory.glob(f"{name}.*"))


def _parse(path: Path, text: str):
    if path.suffix == ".json":
        return json.loads(text)
    return [[float(x) for x in line.split(",")] for line in text.splitlines()[1:]]


def _walk(old, new, where: str):
    """(path, old, new) for every leaf that differs between two parsed documents."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from _walk(old.get(key), new.get(key), f"{where}.{key}" if where else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _walk(a, b, f"{where}[{i}]")
    elif old != new or type(old) is not type(new):
        yield where, old, new


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def moved_fields(path: Path, old_text: str, new_text: str) -> list[str]:
    """One line per field that differs, with the relative change of a number."""
    lines = []
    for where, old, new in _walk(_parse(path, old_text), _parse(path, new_text), ""):
        if _number(old) and _number(new):
            rel = abs(new - old) / abs(old) if old else float("inf")
            lines.append(f"{path.name}:{where}: {old!r} -> {new!r} (relative change {rel:.3g})")
        else:
            lines.append(f"{path.name}:{where}: {old!r} -> {new!r}")
    return lines


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    staging = GOLDEN / "staging"
    staging.mkdir()
    try:
        for name in COMMANDS:
            for path in run(name, staging):
                shutil.move(path, GOLDEN / path.name)
    finally:
        shutil.rmtree(staging)
    ENVIRONMENT.write_text(json.dumps(environment(), sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
