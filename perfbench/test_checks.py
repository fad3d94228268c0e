"""Tests of the benchmark's own checks and definitions.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from child import Client  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def _ap_constant_client(work: Path) -> Client:
    client = Client("weights-solvers", DEFAULT_SEED, work)
    client.jobs = tuple(job for job in client.jobs if job.name == "ap-constant-d2")
    return client


def test_perturbed_reference_value_is_a_failed_job(tmp_path):
    client = _ap_constant_client(tmp_path)
    batch = client.batch()
    client.check(batch, REFERENCE)
    assert batch["jobs"][0]["problems"] == []

    # a last-bit difference, as a faster summation order gives, still passes
    nudged = json.loads(json.dumps(REFERENCE))
    nudged["ap-constant-d2"]["value"] *= 1 + 1e-12
    client.check(batch, nudged)
    assert batch["jobs"][0]["problems"] == []

    perturbed = json.loads(json.dumps(REFERENCE))
    perturbed["ap-constant-d2"]["value"] *= 1 + 1e-6
    client.check(batch, perturbed)
    assert len(batch["jobs"][0]["problems"]) == 1
    assert "value" in batch["jobs"][0]["problems"][0]


def test_missing_reference_number_is_a_problem():
    assert checks.compare({"a.b": 1.0}, {}) == ["a.b: missing (reference 1.0)"]


def _moduli_report(notion, equi, tail):
    return {"outputs": {"notion": notion, "equicontinuity_curve": equi,
                        "tail_curve": tail}}


def test_curve_monotonicity():
    tail = [[1.0, 0.5], [2.0, 0.25]]
    good = _moduli_report("translation", [[0.1, 0.2], [0.2, 0.3]], tail)
    assert checks.properties("moduli", (), 0, good, 1) == []
    bad_equi = _moduli_report("twisted", [[0.1, 0.3], [0.2, 0.2]], tail)
    assert checks.properties("moduli", (), 0, bad_equi, 1) == ["twisted curve decreases in r"]
    bad_tail = _moduli_report("averaging", [[0.1, 0.3], [0.2, 0.2]], tail[::-1] + [[3.0, 0.9]])
    assert checks.properties("moduli", (), 0, bad_tail, 1) == ["tail curve increases in R"]


def test_nonzero_exit_is_a_problem():
    assert checks.properties("net", (), 2, None, 1) == ["exit code 2"]


def test_john_sandwich_recheck():
    identity = {"d": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    # |v|_2 >= |v|_inf, and |v|_2 <= sqrt(2) |v|_inf
    assert checks.john_sandwich(identity, float("inf"), 3) == []
    # |v|_2 < |v|_1 for most v: the lower bound fails for the l1 norm
    assert "lower bound" in checks.john_sandwich(identity, 1.0, 3)[0]


def test_verify_suite_names_match_the_package():
    from mwlp import verify

    assert [fn.__name__.removeprefix("suite_") for fn in verify.SUITES] == list(run.SUITES)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
