"""Record `reference.json`: each job's reported numbers for the default seed.

    python3 perfbench/record_reference.py

Run it only when the benchmark's jobs change; the references pin the
numbers of the commit that recorded them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import time

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> None:
    env = run.pinned_env(2)
    reference = {}
    work = run.ROOT / ".perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED, seconds=0.0, trace=0)
        res = run.spawn("record", args, work / workload, work / f"{workload}.json", env,
                        time.monotonic() + 600)
        problems = [p for job in res["batches"][0]["jobs"] for p in job["problems"]]
        if problems:
            raise SystemExit(f"{workload}: {problems}")
        reference.update(res["reference"])
    shutil.rmtree(work)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True)
                                             + "\n")


if __name__ == "__main__":
    main()
