"""One `net-pipeline` batch of the benchmark against its recorded reference.

The benchmark (perfbench/) compares every reported number of its jobs with
`perfbench/reference.json` to a relative 1e-9.  This runs that comparison on
one batch of the workload whose 2-D jobs take every ball window sum, so a
change of their values beyond last-bit drift fails here.  The benchmark's
modules are imported as they are, the way perfbench/test_checks.py drives an
`ap-constant` client.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

from child import Client  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402


def test_net_pipeline_batch_matches_the_reference(tmp_path):
    client = Client("net-pipeline", DEFAULT_SEED, tmp_path)
    batch = client.batch()
    client.check(batch, json.loads((BENCH / "reference.json").read_text()))
    assert [(job["name"], job["code"], job["problems"]) for job in batch["jobs"]] == [
        (job.name, 0, []) for job in client.jobs]
