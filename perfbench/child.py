"""One closed-loop client of a workload, in a fresh interpreter.

Started by `run.py` with `src/` on PYTHONPATH and the BLAS thread counts
pinned.  Set-up imports numpy and `mwlp`, writes the workload's scenario
files and validates every job's scenario; its time is counted from the
parent's clock reading just before this interpreter was started.  Then the
job batch runs in a closed loop, each job through `mwlp.cli.main`, the next
one starting when the previous one ends.  The result goes to a JSON file.

Modes:
    setup   set up, report the set-up time and exit
    run     set up, then run batches until --seconds have passed; with
            --trace 1, the first half of the time runs untraced and the
            second half traced
    record  set up and run one batch; report the numbers that
            `reference.json` keeps for each job
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import glob
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _merge(base: dict, over: dict) -> dict:
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = copy.deepcopy(value)
    return base


def _fill(obj, values: dict):
    """obj with every placeholder string that is a key of values replaced."""
    if isinstance(obj, dict):
        return {k: _fill(v, values) for k, v in obj.items()}
    if isinstance(obj, str):
        for key, value in values.items():
            if obj == key:
                return value
            if isinstance(value, str):
                obj = obj.replace(key, value)
    return obj


class Client:
    def __init__(self, workload: str, seed: int, work: Path):
        from mwlp import scenario as sc_mod
        from workloads import CALIBRATION, C_NET, CENTERS, WORK, WORKLOADS

        self.jobs = WORKLOADS[workload]
        self.kernel = CALIBRATION[workload]
        self.seed = seed
        self.work = work
        self.argv = {}
        self.late = {}  # scenarios with placeholders filled just before the job runs
        for job in self.jobs:
            out = ["--out", str(work / f"{job.name}.json")]
            if job.scenario is None:
                sc_mod.validate(sc_mod.default_scenario(job.command), source=job.name)
                self.argv[job.name] = [job.command, *job.flags, "--seed", str(seed), *out]
                continue
            raw = _merge(copy.deepcopy(sc_mod.default_scenario(job.command)), job.scenario)
            raw["seed"] = seed
            raw = _fill(raw, {WORK: str(work)})
            path = work / f"{job.name}.yaml"
            self._write(path, raw)
            sc_mod.from_file(path)
            if any(p in json.dumps(raw) for p in (CENTERS, C_NET)):
                self.late[job.name] = (path, raw)
            self.argv[job.name] = ["run", str(path), *out]

    def calibrate(self) -> float:
        """Time one call of this workload's calibration kernel."""
        import calibrate

        return calibrate.seconds(self.kernel)

    @staticmethod
    def _write(path: Path, raw: dict) -> None:
        import yaml

        path.write_text(yaml.safe_dump(raw))

    def _fill_late(self, name: str) -> None:
        from workloads import C_NET, CENTERS

        path, raw = self.late[name]
        previous = json.loads((self.work / "net-dyadic-1d.json").read_text())
        self._write(path, _fill(raw, {
            CENTERS: sorted(glob.glob(str(self.work / "centers" / "center_*.txt"))),
            C_NET: previous["outputs"]["c_net"],
        }))

    def batch(self, tracer=None, calibrate=None) -> dict:
        """Run every job once; the checks follow separately.

        With `calibrate` (a function returning the calibration kernel's
        time), the kernel runs before the first job and after every job, and
        each job records the mean of the two calibrations around it.
        """
        from mwlp.cli import main

        for stale in self.work.glob("*.json"):
            stale.unlink()
        shutil.rmtree(self.work / "centers", ignore_errors=True)
        jobs = []
        cal = calibrate() if calibrate else None
        for job in self.jobs:
            sink = io.StringIO()
            cpu = time.process_time()
            start = time.perf_counter()
            sid = tracer.begin(f"cli.job.{job.name}") if tracer else None
            try:
                if job.name in self.late:
                    self._fill_late(job.name)
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = main(self.argv[job.name])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed job, not a failed benchmark
                code = -1
                sink.write(f"{type(exc).__name__}: {exc}")
            finally:
                if tracer:
                    tracer.finish(sid)
            record = {"name": job.name, "s": time.perf_counter() - start,
                      "cpu_s": time.process_time() - cpu, "code": code,
                      "log": sink.getvalue()[-300:]}
            if calibrate:
                after = calibrate()
                record["calibration_s"] = (cal + after) / 2
                cal = after
            jobs.append(record)
        if tracer:
            tracer.end_batch()
        out = {"wall_s": sum(j["s"] for j in jobs), "cpu_s": sum(j["cpu_s"] for j in jobs),
               "jobs": jobs}
        if calibrate:
            out["wall_cal"] = sum(j["s"] / j["calibration_s"] for j in jobs)
        return out

    def reports(self) -> dict:
        out = {}
        for job in self.jobs:
            path = self.work / f"{job.name}.json"
            out[job.name] = json.loads(path.read_text()) if path.exists() else None
        return out

    def check(self, batch: dict, reference: dict | None) -> None:
        """Add the batch's problems and report sizes to it."""
        import checks

        reports = self.reports()
        batch["report_bytes"] = sum(
            (self.work / f"{name}.json").stat().st_size
            for name, rep in reports.items() if rep is not None)
        for job, record in zip(self.jobs, batch["jobs"]):
            rep = reports[job.name]
            problems = checks.properties(job.command, job.flags, record["code"], rep,
                                         self.seed)
            if reference is not None and rep is not None:
                problems += checks.compare(reference[job.name],
                                           checks.comparable(job.command, rep["outputs"]))
            record["problems"] = problems


def _timed_batches(client: Client, seconds: float, reference, tracer=None) -> list[dict]:
    """Calibrated batches until `seconds` have passed."""
    batches = []
    deadline = time.perf_counter() + seconds
    while not batches or time.perf_counter() < deadline:
        batch = client.batch(tracer, client.calibrate)
        client.check(batch, reference)
        batches.append(batch)
    return batches


def _environment() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "record"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.monotonic() just before starting this process")
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--work", required=True, help="empty scratch directory")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    args = parser.parse_args()

    import numpy  # noqa: F401  (part of what set-up measures)

    import mwlp
    import mwlp.cli

    if Path(mwlp.__file__).resolve().parent != Path(args.src).resolve() / "mwlp":
        print(f"mwlp imported from {mwlp.__file__}, not from {args.src}", file=sys.stderr)
        return 1
    work = Path(args.work)
    client = Client(args.workload, args.seed, work)
    result = {"setup_s": time.monotonic() - args.t0}

    from workloads import DEFAULT_SEED

    reference = None
    if args.seed == DEFAULT_SEED and args.mode == "run":
        reference = json.loads((HERE / "reference.json").read_text())

    if args.mode == "record":
        import checks

        batch = client.batch()
        client.check(batch, None)
        result["batches"] = [batch]
        result["reference"] = {
            job.name: checks.comparable(job.command, rep["outputs"])
            for job, rep in zip(client.jobs, client.reports().values()) if rep is not None}
    elif args.mode == "run":
        result["env"] = _environment()
        client.calibrate()  # first calls allocate; not part of any measurement
        if args.trace:
            import tracer as tracing

            result["batches"] = _timed_batches(client, args.seconds / 2, reference)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced = _timed_batches(client, args.seconds / 2, reference, tracer)
            result["traced_batches"] = traced
            result["layers"] = tracer.summary(len(traced))
            tracer.dump(Path(args.result).with_suffix(".spans.json"))
        else:
            result["batches"] = _timed_batches(client, args.seconds, reference)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
