"""The benchmark's workloads: each is a batch of documented `mwlp` CLI jobs.

A job is either a shorthand subcommand with flags, or a scenario file for
settings that have no flag: the scenario is the documented default of
`command` with `scenario` merged over it, written to the work directory and
run with `mwlp run`.  Every job receives the benchmark seed, as `--seed` or
as the scenario `seed`.

Job sizes are chosen so that one batch takes a few seconds on a 2-core
machine; a run repeats the batch in a closed loop, so several batches fit in
one run and the reported times are medians over batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 20260810

# Placeholders in scenarios, filled in by the child: WORK when it writes the
# scenario files at set-up, CENTERS and C_NET just before the job runs, from
# the files and report of the preceding dyadic net job.
WORK = "{work}"
CENTERS = "{centers}"
C_NET = "{c_net}"


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    flags: tuple = ()
    scenario: dict | None = field(default=None, hash=False)


NET_1D = {"grid": {"N": 2048}, "family": {"count": 20}}
GRID_2D = {"grid": {"n": 2, "L": 8.0, "N": 128}, "family": {"count": 6}}

WORKLOADS = {
    "moduli-ladder": (
        Job("moduli-translation-1d", "moduli",
            scenario={"grid": {"N": 1024}, "family": {"count": 20}}),
        Job("moduli-twisted-1d", "moduli",
            scenario={"grid": {"N": 1024}, "family": {"count": 20},
                      "task": {"notion": "twisted"}}),
        Job("moduli-translation-2d", "moduli",
            scenario={"grid": {"n": 2, "L": 8.0, "N": 64}, "family": {"count": 6}}),
    ),
    "net-pipeline": (
        Job("net-dyadic-1d", "net",
            scenario=dict(NET_1D, task={"save_centers": WORK + "/centers"})),
        Job("certify-files-1d", "certify",
            scenario=dict(NET_1D, task={"centers": CENTERS, "c_net": C_NET})),
        Job("net-average-1d", "net", scenario=dict(NET_1D, task={"route": "average"})),
        Job("necessity-1d", "necessity", scenario=NET_1D),
        Job("moduli-averaging-2d", "moduli",
            scenario=dict(GRID_2D, task={"notion": "averaging"})),
        Job("net-average-2d", "net", scenario=dict(GRID_2D, task={"route": "average"})),
        Job("necessity-2d", "necessity", scenario=GRID_2D),
    ),
    "weights-solvers": (
        Job("verify-lemmas", "verify-lemmas", ("--count", "2")),
        Job("ap-constant-d2", "ap-constant",
            ("--alpha", "0.5", "0.3333333333333333", "--N", "512")),
        Job("john-d3-l1", "john", ("--d", "3", "--q", "1")),
        Job("john-d2-linf", "john", ("--d", "2", "--q", "-1")),
    ),
}

# The calibration kernel (calibrate.py) whose drift follows each workload's.
CALIBRATION = {
    "moduli-ladder": "loops",
    "net-pipeline": "loops",
    "weights-solvers": "pairwise_svd",
}

JOB_NAMES = tuple(job.name for jobs in WORKLOADS.values() for job in jobs)
