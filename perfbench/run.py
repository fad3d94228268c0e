"""Benchmark of the `mwlp` command line: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload moduli-ladder [--seed 20260810]
                             [--seconds 30] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  Each run starts fresh interpreters (`child.py`) with
the BLAS thread counts pinned:

* set-up probes, which import numpy and `mwlp` and validate every job's
  scenario, then exit; `setup_s` is their median;
* one closed-loop client that runs the workload's job batch repeatedly
  for --seconds.  The probes, which load the interpreter, numpy and `mwlp`
  just before, are the warm-up: within the client the first batch is as
  fast as the rest within noise.

Each job's time is divided by the time of the workload's calibration kernel
measured just before and after it (`calibrate.py`), because on a shared machine raw
seconds drift by tens of percent within minutes; `wall_cal` is the median
over batches of the batch's summed job times in these units.  Raw seconds
are printed too and kept in the results file.

With --trace 0 the run prints the end-to-end metrics.  With --trace 1 the
client runs untraced for half the time and traced for the other half, and
the run prints per-layer metrics from the spans (`tracer.py`).  Every job's
output is checked (`checks.py`); the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  Full
results, the environment and the spans are written under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, JOB_NAMES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("wall_cal", "cal"),
    ("setup_s", "s"),
    ("cpu_cores", "cores"),
    ("peak_rss_mb", "MB"),
)

SUITES = ("spectral_identities", "john_sandwich", "luxemburg", "scalar_weights",
          "averaging_bound", "differentiation", "maximal_bound", "ball_domination")
LAYERS = ("cli", "scenario", "report", "matrix_core", "weight_fields", "spaces",
          "operators", "compactness", "fieldio", "verify")

PER_LAYER = (
    *((f"cli.job.{job}.s", "s") for job in JOB_NAMES),
    ("scenario.validate.s", "s"),
    ("scenario.build_weight.s", "s"),
    ("scenario.build_family.s", "s"),
    ("report.render.s", "s"),
    ("report.bytes", "bytes"),
    ("matrix_core.batched_eigh.s", "s"),
    ("matrix_core.batched_eigh.mats", "count"),
    ("matrix_core.batched_spectral_norm.s", "s"),
    ("matrix_core.batched_spectral_norm.mats", "count"),
    ("weight_fields.ap_constant.s", "s"),
    ("weight_fields.ap_constant.calls", "count"),
    ("weight_fields.scalar_ap_constant.s", "s"),
    ("weight_fields.power.s", "s"),
    ("weight_fields.power.calls", "count"),
    ("spaces.lp_rho_norm.s", "s"),
    ("spaces.lp_rho_norm.calls", "count"),
    ("spaces.lp_rho_norm.points", "count"),
    ("spaces.lp_w_norm.s", "s"),
    ("spaces.lp_w_norm.calls", "count"),
    ("spaces.field_new.s", "s"),
    ("spaces.field_new.calls", "count"),
    ("spaces.dist.s", "s"),
    ("spaces.dist.calls", "count"),
    ("spaces.luxemburg_norm.s", "s"),
    ("spaces.luxemburg_norm.calls", "count"),
    ("spaces.john_ellipsoid.s", "s"),
    ("spaces.john_ellipsoid.calls", "count"),
    ("operators.shift_values.s", "s"),
    ("operators.shift_values.calls", "count"),
    ("operators.ball_average.s", "s"),
    ("operators.ball_average.calls", "count"),
    ("operators.ball_scheme.builds", "count"),
    ("operators.ball_scheme.reuse_ratio", "ratio"),
    ("operators.dyadic_average.s", "s"),
    ("operators.dyadic_average.calls", "count"),
    ("operators.christ_goldberg_maximal.s", "s"),
    ("compactness.translation_modulus.s", "s"),
    ("compactness.translation_modulus.calls", "count"),
    ("compactness.averaging_modulus.s", "s"),
    ("compactness.averaging_modulus.calls", "count"),
    ("compactness.twisted_modulus.s", "s"),
    ("compactness.tail_modulus.s", "s"),
    ("compactness.build_net_dyadic.s", "s"),
    ("compactness.build_net_average.s", "s"),
    ("compactness.necessity_check.s", "s"),
    ("compactness.greedy_cover.s", "s"),
    ("compactness.greedy_cover.dist_calls", "count"),
    ("compactness.greedy_cover.centers", "count"),
    ("compactness.certify_net.s", "s"),
    ("compactness.certify_net.calls", "count"),
    ("compactness.certify_net.per_net", "ratio"),
    ("fieldio.save_field.s", "s"),
    ("fieldio.save_field.bytes", "bytes"),
    ("fieldio.load_field.s", "s"),
    ("fieldio.load_field.bytes", "bytes"),
    *((f"verify.{suite}.s", "s") for suite in SUITES),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.overhead_frac", "ratio"),
)


def pinned_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def git_commit() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def spawn(mode: str, args, work: Path, result: Path, env: dict, deadline: float) -> dict:
    """Run child.py to completion and return its result."""
    work.mkdir(parents=True)
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--src", str(ROOT / "src"),
           "--work", str(work), "--result", str(result)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def end_to_end(setups: list[float], res: dict) -> dict[str, float]:
    batches = res["batches"]
    return {
        "wall_cal": statistics.median(b["wall_cal"] for b in batches),
        "setup_s": statistics.median(setups),
        "cpu_cores": statistics.median(b["cpu_s"] / b["wall_s"] for b in batches),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict) -> dict[str, float]:
    layers = res["layers"]
    traced = res["traced_batches"]
    values = dict(layers)
    builds = layers.get("operators.ball_scheme.calls", 0.0)
    values["operators.ball_scheme.builds"] = builds
    values["operators.ball_scheme.reuse_ratio"] = (
        layers.get("operators.ball_scheme.distinct", 0.0) / builds if builds else 0.0)
    nets = layers.get("compactness.certify_net.nets", 0.0)
    values["compactness.certify_net.per_net"] = (
        layers.get("compactness.certify_net.calls", 0.0) / nets if nets else 0.0)
    values["report.bytes"] = statistics.median(b["report_bytes"] for b in traced)
    values["trace.overhead_frac"] = (
        statistics.median(b["wall_cal"] for b in traced)
        / statistics.median(b["wall_cal"] for b in res["batches"]) - 1.0)
    return {name: values.get(name, 0.0) for name, _unit in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description="mwlp CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    src = ROOT / "src"
    if not (src / "mwlp" / "__init__.py").is_file():
        print(f"error: no mwlp package under {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    env = pinned_env(threads)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src), str(HERE)],
                   env=env, check=True, capture_output=True, timeout=120)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{tag}-{os.getpid()}"
    try:
        setups = [spawn("setup", args, work / f"setup{i}", work / f"setup{i}.json", env,
                        deadline)["setup_s"] for i in range(SETUP_PROBES)]
        res = spawn("run", args, work / "run", out_dir / f"{tag}.json", env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [*res["batches"], *res.get("traced_batches", [])]
    jobs = [job for batch in runs for job in batch["jobs"]]
    failed = [job for job in jobs if job["problems"]]
    if args.trace:
        values, units = per_layer(res), dict(PER_LAYER)
    else:
        values, units = end_to_end(setups, res), dict(END_TO_END)
    env_record = {"nproc": nproc, "threads": threads, "commit": git_commit(), **res["env"]}
    res.update(setup_probes_s=setups, metrics=values, environment=env_record)
    (out_dir / f"{tag}.json").write_text(json.dumps(res, indent=1))

    print(f"environment: {json.dumps(env_record, sort_keys=True)}")
    traced = f" and {len(res['traced_batches'])} traced" if args.trace else ""
    print(f"workload {args.workload}, seed {args.seed}: {len(res['batches'])} batches"
          f"{traced}, {len(failed)} of {len(jobs)} jobs failed "
          f"(failed_frac {len(failed) / len(jobs)!r})")
    untraced = res["batches"]
    print(f"raw seconds per batch (median): wall {statistics.median(b['wall_s'] for b in untraced)!r}"
          f", cpu {statistics.median(b['cpu_s'] for b in untraced)!r}")
    for job in failed[:10]:
        print(f"FAILED {job['name']}: {'; '.join(job['problems'])[:500]}")
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    if args.trace:
        self_s = {layer: values[f"{layer}.self_s"] for layer in LAYERS}
        top = max(self_s, key=self_s.get)
        print(f"top self_s layer: {top} ({self_s[top]:.3f} s per batch)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
