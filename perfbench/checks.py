"""Output checks of the benchmark's jobs.

Every job of every seed gets property checks: exit code 0, a passing
certificate or necessity table, passing verify suites, a John fit whose
sandwich inequality the benchmark rechecks itself, and moduli curves with
the monotonicity their definitions give (translation and twisted curves
nondecreasing in r, tail curves nonincreasing in R).  For the default seed
the reported numbers are also compared with reference values recorded at
the commit that defined the benchmark (`reference.json`).

Numbers that depend on the John fit are not compared with references: the
MVEE solver may converge differently without being wrong, and in
`verify-lemmas` every suite after the John suite draws from a generator
whose state depends on how many directions the fit sampled.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12
MONOTONE_SLACK = 1e-9

# verify-lemmas suites whose inputs do not depend on the John fit's draws
RNG_STABLE_SUITES = ("spectral_identities", "scalar_weight_envelopes",
                     "lebesgue_differentiation")
JOHN_FIT_KEYS = ("matrix", "left_ratio_min", "right_ratio_max")
SANDWICH_VECTORS = 2000


def _nondecreasing(values) -> bool:
    return all(b >= a - MONOTONE_SLACK * abs(a) for a, b in zip(values, values[1:]))


def _curve_values(curve) -> list[float]:
    return [v for _x, v in sorted(curve)]


def _lq_norm(vecs: np.ndarray, q: float) -> np.ndarray:
    if math.isinf(q):
        return np.max(np.abs(vecs), axis=1)
    return np.sum(np.abs(vecs) ** q, axis=1) ** (1 / q)


def john_sandwich(outputs: dict, q: float, seed: int) -> list[str]:
    """Recheck rho(v) <= |W v| <= sqrt(d) * 1.05 * rho(v) on fresh directions."""
    d = outputs["d"]
    w = np.array([[complex(*z) if isinstance(z, list) else z for z in row]
                  for row in outputs["matrix"]])
    rng = np.random.default_rng(seed)
    v = (rng.standard_normal((SANDWICH_VECTORS, d))
         + 1j * rng.standard_normal((SANDWICH_VECTORS, d)))
    rho = _lq_norm(v, q)
    wv = np.linalg.norm(v @ w.T, axis=1)
    problems = []
    if np.min(wv / rho) < 1.0 - 1e-9:
        problems.append(f"John lower bound fails: min |Wv|/rho(v) = {np.min(wv / rho)!r}")
    upper = np.max(wv / (math.sqrt(d) * rho))
    if upper > 1.05 * (1 + 1e-9):
        problems.append(f"John upper bound fails: max |Wv|/(sqrt(d) rho(v)) = {upper!r}")
    return problems


def properties(command: str, flags: tuple, code: int, report: dict | None,
               seed: int) -> list[str]:
    """Seed-independent checks of one job's exit code and report."""
    if code != 0:
        return [f"exit code {code}"]
    if report is None:
        return ["no report written"]
    out = report["outputs"]
    problems = []
    if command == "moduli":
        if not _nondecreasing(_curve_values(out["tail_curve"])[::-1]):
            problems.append("tail curve increases in R")
        if out["notion"] in ("translation", "twisted") and not _nondecreasing(
                _curve_values(out["equicontinuity_curve"])):
            problems.append(f"{out['notion']} curve decreases in r")
    elif command in ("net", "certify"):
        if not out["certificate"]["passed"]:
            problems.append("certificate failed")
    elif command in ("necessity", "verify-lemmas"):
        if not out["passed"]:
            problems.append(f"{command} report did not pass")
        for suite in out.get("suites", []):
            if not suite["passed"]:
                problems.append(f"verify suite {suite['name']} failed")
    elif command == "john":
        if not out["passed"]:
            problems.append("John fit did not pass")
        q = float(flags[flags.index("--q") + 1])
        problems += john_sandwich(out, math.inf if q < 0 else q, seed)
    elif command == "ap-constant":
        if not (math.isfinite(out["value"]) and out["value"] >= 1.0 - 1e-12):
            problems.append(f"A_p constant {out['value']!r} is not a finite value >= 1")
    return problems


def flatten(obj, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a report section, keyed by their path."""
    if isinstance(obj, bool) or isinstance(obj, str) or obj is None:
        return {}
    if isinstance(obj, (int, float)):
        return {prefix: obj}
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    out = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def comparable(command: str, outputs: dict) -> dict[str, float]:
    """The numbers of a job's outputs that are compared with references."""
    if command == "john":
        outputs = {k: v for k, v in outputs.items() if k not in JOHN_FIT_KEYS}
    elif command == "verify-lemmas":
        outputs = {s["name"]: s for s in outputs["suites"]
                   if s["name"] in RNG_STABLE_SUITES}
    return flatten(outputs)


def compare(reference: dict[str, float], values: dict[str, float]) -> list[str]:
    """Differences between recorded reference numbers and a job's numbers."""
    problems = []
    for key, ref in reference.items():
        if key not in values:
            problems.append(f"{key}: missing (reference {ref!r})")
        elif not math.isclose(values[key], ref, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"{key}: {values[key]!r} differs from reference {ref!r}")
    return problems
