"""The default reports, pinned byte for byte in tests/golden/.

Each entry of COMMANDS is one default CLI command.  Its report, the curve
CSVs written next to it and the digests of the field files it saves live in
tests/golden/ under the entry's name; tests/golden/ENVIRONMENT.json records
the Python, numpy and BLAS that wrote them.  `test_golden_reports.py`
reruns every command in-process and compares the bytes.  A change that
moves a default report regenerates the files with

    PYTHONPATH=src python tests/golden_reports.py

and lists the fields that moved, as the failing test names them.

The `run-*` entries run scenario files kept in tests/golden/scenarios/,
together with the field files they read (a weight, a density, family members
and saved net centers); a command runs in a directory holding a copy of that
folder, so the relative paths its report echoes read the same everywhere.
Regenerating leaves the folder as it is.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import shutil
from pathlib import Path

import numpy as np

from mwlp import cli

GOLDEN = Path(__file__).parent / "golden"
ENVIRONMENT = GOLDEN / "ENVIRONMENT.json"
SCENARIOS = GOLDEN / "scenarios"

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
    "net-save-centers": ["net", "--save-centers", "centers"],
    "certify": ["certify"],
    "necessity": ["necessity"],
    "verify-lemmas": ["verify-lemmas"],
    "verify-lemmas-5": ["verify-lemmas", "--count", "5"],
    # weight, density and family from field files; a dyadic net of 4 centers for 5 members
    "run-files-net": ["run", "scenarios/files-net.yaml"],
    # the saved centers of that net, rechecked with certify
    "run-certify-centers": ["run", "scenarios/certify-centers.yaml"],
    # covers of 1 and 5 centers for 8 members, so the S_r constant is measured
    "run-necessity-cover": ["run", "scenarios/necessity-cover.yaml"],
}


def environment() -> dict:
    """The versions that decide the last bits of a report."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', 'unknown')}"}


#: directories that a command writes field files into, relative to out_dir;
#: the golden set holds the sha256 of each file, in `<name>.<directory>.sha256`
SAVED = {"net-save-centers": "centers"}


def run(name: str, out_dir: Path) -> list[Path]:
    """Run one default command in-process in out_dir, with --out there; returns
    the files it wrote (the report, its curve CSVs and the digests of the
    files in its SAVED directory), sorted by name.  A relative path that the
    command writes into its report then reads the same wherever it runs."""
    if COMMANDS[name][0] == "run":
        shutil.copytree(SCENARIOS, out_dir / SCENARIOS.name, dirs_exist_ok=True)
    with (contextlib.chdir(out_dir), contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        code = cli.main(COMMANDS[name] + ["--out", f"{name}.json"])
    if code != 0:
        raise RuntimeError(f"mwlp {' '.join(COMMANDS[name])} exited with {code}")
    if name in SAVED:
        saved = out_dir / SAVED[name]
        (out_dir / f"{name}.{SAVED[name]}.sha256").write_text("".join(
            f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
            for p in sorted(saved.iterdir())))
    return written(out_dir, name)


def written(directory: Path, name: str) -> list[Path]:
    """The report of one command in a directory and its curve CSVs."""
    return sorted(directory.glob(f"{name}.*"))


def _parse(path: Path, text: str):
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".sha256":
        return {name: digest for digest, name in (line.split("  ") for line in text.splitlines())}
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
        if old.is_file():
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
