"""Statement lines of `src/mwlp` that no default command and no benchmark job runs.

The script runs every entry of `golden_reports.COMMANDS` and one batch of
each benchmark workload (`perfbench/workloads.py`) in-process, in a
temporary directory, under `sys.settrace`.  Then, for each function of
`src/mwlp`, it prints the statement lines that none of those runs executed,
as `file:first line qualified name: lines`.  A line printed here is code
that only the test suite, or nothing, exercises.

    PYTHONPATH=src python tests/traffic_lines.py

It needs only the standard library and what the runs themselves import.
A statement line counts when its first line holds bytecode; docstrings,
`global` declarations and the like hold none and are never listed.  The
exit status is 1 when a run fails, else 0.
"""

from __future__ import annotations

import ast
import json
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "mwlp"
BENCH = ROOT / "perfbench"


def function_lines(path: Path) -> list[tuple[int, str, set[int]]]:
    """(first line, qualified name, statement lines) of every function in a
    module.  A function's statements are those of its body outside nested
    functions and classes; each counts at its first line, when that line
    holds bytecode of the function's own code object."""
    source = path.read_text()
    code_lines = {}

    def walk_code(code: types.CodeType):
        code_lines[(code.co_name, code.co_firstlineno)] = {
            line for _, _, line in code.co_lines() if line is not None}
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk_code(const)

    walk_code(compile(source, str(path), "exec"))
    out = []

    def walk_ast(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk_ast(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                own = code_lines.get((child.name, first), set())
                statements = set()
                stack = list(child.body)
                while stack:
                    inner = stack.pop()
                    if isinstance(inner, ast.stmt):
                        statements.add(inner.lineno)
                    if not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef,
                                              ast.ClassDef, ast.Lambda)):
                        stack.extend(ast.iter_child_nodes(inner))
                out.append((child.lineno, prefix + child.name, statements & own))
                walk_ast(child, f"{prefix}{child.name}.<locals>.")
            else:
                walk_ast(child, prefix)

    walk_ast(ast.parse(source), "")
    return sorted(out)


def traced(run) -> tuple[object, dict[str, set[int]]]:
    """run()'s result and the lines of `src/mwlp` that it executed, by file."""
    executed: dict[str, set[int]] = {}
    package = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package):
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, executed


def run_everything(work: Path) -> list[str]:
    """Run every golden command and one batch of every workload in work;
    returns the failures, one line each."""
    import golden_reports
    from child import Client
    from workloads import DEFAULT_SEED, WORKLOADS

    failures = []
    for name in golden_reports.COMMANDS:
        out_dir = work / name
        out_dir.mkdir()
        try:
            golden_reports.run(name, out_dir)
        except Exception as exc:  # a failed run is reported, the others still run
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    for workload in sorted(WORKLOADS):
        out_dir = work / workload
        out_dir.mkdir()
        batch = Client(workload, DEFAULT_SEED, out_dir).batch()
        failures += [f"{workload}/{job['name']}: exit {job['code']}: {job['log']}"
                     for job in batch["jobs"] if job["code"] != 0]
    return failures


def ranges(lines: list[int]) -> str:
    """Sorted line numbers with runs of consecutive ones as a-b."""
    parts, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            parts.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(parts)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE), str(BENCH)]
    with tempfile.TemporaryDirectory(prefix="mwlp-traffic-") as work:
        failures, executed = traced(lambda: run_everything(Path(work)))
    for line in failures:
        print(f"run failed: {json.dumps(line)}")
    total = missed = functions = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        relative = path.relative_to(ROOT)
        for first, name, statements in function_lines(path):
            unexecuted = sorted(statements - ran)
            total += len(statements)
            if unexecuted:
                missed += len(unexecuted)
                functions += 1
                print(f"{relative}:{first} {name}: {ranges(unexecuted)}")
    print(f"\n{missed} of {total} statement lines in {functions} functions never ran")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
