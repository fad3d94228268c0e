"""Mutation smoke test of the verdict gates: does the test suite notice a
gate that can no longer fail?

Each mutant is a one-line change to a gate condition of `src/mwlp`, applied
by exact string replacement to a copy of the repository.  The script runs
`tests/` on every mutant and prints the survivors, the mutants that no test
kills.  It needs only the standard library and the test suite's own
requirements, and it never touches the checkout it is run from.

    python tests/mutation_smoke.py [SCRATCH_DIR]

SCRATCH_DIR (a fresh temporary directory by default) receives the copy.  The
exit status is 1 when a mutant outside KNOWN_SURVIVORS survives, 2 when the
unmutated copy already fails its tests, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: left out of the copy: version control and what running leaves behind
NOT_COPIED = (".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis", ".perfbench")
#: a suite run that takes longer (a mutant that never ends) counts as killed
RUN_TIMEOUT_S = 900

NECESSITY_VERDICT = "passed = within(tail_val, tail_bound) and within(avg_val, avg_bound)"

#: (name, file under src/mwlp, exact text, replacement); a gate decided by
#: `spaces.within` is mutated where it is called
MUTANTS = (
    ("certify slack doubled", "compactness.py",
     "within(worst, threshold)", "within(worst, 2 * threshold)"),
    ("certify ignores the given c_net", "cli.py",
     "centers, c_net * eps, space)", "centers, eps, space)"),
    ("John left bound 0.5", "spaces.py", "within(1.0, left)", "within(0.5, left)"),
    ("necessity averaging clause -> True", "compactness.py", NECESSITY_VERDICT,
     "passed = within(tail_val, tail_bound) and True"),
    ("necessity tail clause -> True", "compactness.py", NECESSITY_VERDICT,
     "passed = True and within(avg_val, avg_bound)"),
    ("John right bound 2.0", "spaces.py", "within(right, 1.05)", "within(right, 2.0)"),
    ("FFT margin x0", "compactness.py",
     "bound = rounding_error(space, int(np.prod(pad)))", "bound = 0 * rounding_error(space, 1)"),
    ("delta = 0", "spaces.py",
     "    return point + quad / space.p + u\n", "    return 0.0\n"),
    ("necessity floor back to 1e-13", "compactness.py", "if denom > 0:", "if denom > 1e-13:"),
    ("necessity tail bound 4 eps", "compactness.py",
     "tail_bound = 2.0 * eps", "tail_bound = 4.0 * eps"),
    ("weight file of any kind accepted", "verify.py",
     "fieldio.load_field(weight_file, MatrixWeightField)", "fieldio.load_field(weight_file, object)"),
    ("kind check dropped in fieldio", "fieldio.py", "if not isinstance(field, kind):", "if False:"),
    ("tail mask dropped", "compactness.py",
     "space.size_of_norms(np.where(mask, r, 0.0))", "space.size_of_norms(r)"),
    ("smooth pad cut to N + K - 1", "compactness.py",
     "pad = (_smooth_length(big_n + min(int(np.max(np.abs(shifts))), big_n)),) * n",
     "pad = (big_n + min(int(np.max(np.abs(shifts))), big_n) - 1,) * n"),
    ("definite always true", "matrix_core.py",
     "return lam[..., 0] > TOL_PD_REL * lam[..., -1]", "return np.ones(lam.shape[:-1], bool)"),
    ("p = 1 check dropped in build_net_average", "compactness.py",
     "if p == 1.0 and not w.invertible:", "if False:"),
    ("certify screen stops at half the best", "compactness.py",
     "if bounds[j] > best:", "if bounds[j] > 0.5 * best:"),
    ("certify screen margin dropped", "compactness.py",
     "- 2 * delta * (s + sizes)", "- 0 * delta * (s + sizes)"),
    ("pivot margin x0", "compactness.py",
     "- 2 * delta * (to_c + j_to_c)", "- 0 * delta * (to_c + j_to_c)"),
    ("A_p run start off by one cell", "weight_fields.py",
     "c[:, ::shape[-1]],", "c[:, ::shape[-1]] + 1,"),
    ("A_p last partial panel unmeaned", "weight_fields.py",
     "lo, hi = np.searchsorted(by_row, (p0, p1))",
     "lo, hi = np.searchsorted(by_row, (p0, p1 if p1 - p0 == len(panel) else p0))"),
    ("power-weight eigenvalues unsorted", "weight_fields.py",
     "eig = (np.take_along_axis(diag, order, axis=1),", "eig = (diag,"),
    ("power-weight eigenvector columns unpermuted", "weight_fields.py",
     "mc._fix_phases(np.take_along_axis(rot, order[:, None, :], axis=2)))",
     "mc._fix_phases(rot))"),
    ("field rows gathered by a wrong inverse", "fieldio.py",
     "[list(map(index.get, body))]", "[sorted(map(index.get, body))]"),
    ("window-sum run added to the first scheme that uses it only", "operators.py",
     "                total[dst] += run[src]\n",
     "                total[dst] += run[src]\n            if np.any(half == w):\n                break\n"),
    ("window-sum table level one cell off", "operators.py",
     "prev[..., step:step + length, :]", "prev[..., step - 1:step - 1 + length, :]"),
)

#: survivors with a known cause, reported but not counted as a failure
KNOWN_SURVIVORS = set()


def run_tests(copy: Path) -> tuple[bool, str]:
    """Run the copy's test suite, stopping at the first failure: (passed, the
    first failing test or the summary line)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"]
    try:
        run = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"no result within {RUN_TIMEOUT_S} s"
    failed = [line for line in run.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    lines = run.stdout.strip().splitlines() or [f"exit status {run.returncode}"]
    return run.returncode == 0, failed[0] if failed else lines[-1]


def main(argv: list[str]) -> int:
    scratch = Path(argv[0]) if argv else Path(tempfile.mkdtemp(prefix="mwlp-mutants-"))
    if scratch.resolve().is_relative_to(ROOT):
        raise SystemExit("SCRATCH_DIR must lie outside the repository it copies")
    copy = scratch / "repo"
    if copy.exists():
        shutil.rmtree(copy)
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*NOT_COPIED))

    passed, detail = run_tests(copy)
    if not passed:
        print(f"unmutated copy fails: {detail}")
        return 2

    survivors = []
    for name, file, old, new in MUTANTS:
        path = copy / "src" / "mwlp" / file
        original = path.read_text()
        if original.count(old) != 1:
            raise SystemExit(f"{name}: the text to mutate occurs {original.count(old)} "
                             f"times in {file}")
        path.write_text(original.replace(old, new))
        try:
            passed, detail = run_tests(copy)
        finally:
            path.write_text(original)
        if passed:
            survivors.append(name)
            print(f"SURVIVED  {name}")
        else:
            print(f"killed    {name}: {detail}")

    print(f"\n{len(survivors)} of {len(MUTANTS)} mutants survived")
    for name in survivors:
        print(f"  {name}{' (known)' if name in KNOWN_SURVIVORS else ''}")
    return 1 if set(survivors) - KNOWN_SURVIVORS else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
