"""One batch of each benchmark workload against its recorded reference.

The benchmark (perfbench/) compares every reported number of its jobs with
`perfbench/reference.json` to a relative 1e-9.  This runs that comparison on
one batch of every workload: the 1-D and 2-D ball window sums of
`net-pipeline`, the moduli of `moduli-ladder` and the `verify-lemmas` suites
of `weights-solvers`, so a change of their values beyond last-bit drift fails
here.  The benchmark's modules are imported as they are, the way
perfbench/test_checks.py drives an `ap-constant` client.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

from child import Client  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_batch_matches_the_reference(workload, tmp_path):
    client = Client(workload, DEFAULT_SEED, tmp_path)
    batch = client.batch()
    client.check(batch, json.loads((BENCH / "reference.json").read_text()))
    assert [(job["name"], job["code"], job["problems"]) for job in batch["jobs"]] == [
        (job.name, 0, []) for job in client.jobs]
