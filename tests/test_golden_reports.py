"""Every default report is byte-identical to its pinned copy in tests/golden/.

A mismatch names each field that moved and its relative change, and says
when this environment differs from the one that wrote the golden files.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from golden_reports import COMMANDS, ENVIRONMENT, GOLDEN, environment, moved_fields, run, written


@pytest.mark.parametrize("name", list(COMMANDS))
def test_default_report_bytes(name, tmp_path):
    actual = run(name, tmp_path)
    expected = written(GOLDEN, name)
    assert [p.name for p in actual] == [p.name for p in expected]
    moved = []
    for new, old in zip(actual, expected):
        old_text, new_text = old.read_text(), new.read_text()
        if new_text != old_text:
            moved += (moved_fields(new, old_text, new_text)
                      or [f"{new.name}: the bytes differ, but no field moved"])
    if moved:
        pinned, here = json.loads(ENVIRONMENT.read_text()), environment()
        note = ("" if pinned == here else
                f"\nthe golden files were written with {pinned}; this run uses {here}")
        pytest.fail("a default report moved:\n" + "\n".join(moved) + note)


def test_golden_files_cover_every_command():
    names = {p.name for p in GOLDEN.iterdir()} - {ENVIRONMENT.name}
    assert names == {p.name for name in COMMANDS for p in written(GOLDEN, name)}
    assert {f"{name}.json" for name in COMMANDS} <= names


def test_one_ulp_change_is_named():
    text = (GOLDEN / "net.json").read_text()
    report = json.loads(text)
    c_net = report["outputs"]["c_net"]
    report["outputs"]["c_net"] = float(np.nextafter(c_net, np.inf))
    planted = json.dumps(report, sort_keys=True, indent=2) + "\n"
    [line] = moved_fields(Path("net.json"), text, planted)
    assert line.startswith(f"net.json:outputs.c_net: {c_net!r} -> ")
    assert line.endswith("e-16)")

    csv = (GOLDEN / "moduli.equicontinuity_curve.csv").read_text()
    rows = csv.splitlines()
    scale, value = rows[2].split(",")
    rows[2] = f"{scale},{float(np.nextafter(float(value), 0.0))!r}"
    [line] = moved_fields(Path("curve.csv"), csv, "\n".join(rows) + "\n")
    assert line.startswith(f"curve.csv:[1][1]: {float(value)!r} -> ")
