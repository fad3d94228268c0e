"""Every function, class and method of the package has a caller in it.

The source text of `src/mwlp/*.py` is read, the way tests/test_spectral_path.py
reads it.  A top-level function or class, or a method of a top-level class,
must be referenced (by name, or as an attribute) somewhere in the package
outside its own definition; `__init__.py`, which only re-exports, does not
count.  The names allowed without a reference are the dunders, the CLI entry
point, what the benchmark calls by name and the names in KEEP.  Every import
in the package must be used by the module that makes it.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mwlp"
TRACER = ROOT / "perfbench" / "tracer.py"

#: called from outside the package: the console script and the benchmark child
ENTRY_POINTS = {("cli", "main"), ("scenario", "from_file")}
#: kept without a caller in the package, one reason each
KEEP = (
    ("operators", "translate"),  # the translation operator tau_y f, which the moduli measure
    ("operators", "symdiff_measure"),  # mu(E symdiff (E + y)), tested by acceptance criterion 9
    ("cli", "_Parser.error"),  # the argparse hook, called by argparse on a usage error
)


def _tracer_targets() -> set:
    # executed from its source text, as tests/test_tracer_contract.py does
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return {target[:2] for target in namespace["TARGETS"]}


def _modules():
    """(module name, syntax tree) per source file of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def _names(root) -> Counter:
    """Names read below `root`: identifiers, attributes and the identifiers of
    string annotations."""
    found = Counter()
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            annotations += [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                found += _names(ast.parse(note.value, mode="eval"))
    return found


def _definitions():
    """(module, name or Class.method, node) per top-level definition and method."""
    for module, tree in _modules():
        if module == "__init__":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield module, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield module, f"{node.name}.{item.name}", item


def _unreferenced() -> set:
    used = Counter()
    for module, tree in _modules():
        if module != "__init__":
            used += _names(tree)
    allowed = ENTRY_POINTS | set(KEEP) | _tracer_targets()
    missing = set()
    for module, qualname, node in _definitions():
        name = qualname.rsplit(".", 1)[-1]
        if name.startswith("__") and name.endswith("__") or (module, qualname) in allowed:
            continue
        if used[name] - _names(node)[name] <= 0:
            missing.add((module, qualname))
    return missing


def _unused_imports() -> set:
    unused = set()
    for module, tree in _modules():
        read = _names(tree)
        exported = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                exported = {elt.value for elt in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if not read[bound] and bound not in exported:
                        unused.add((module, bound))
    return unused


def test_every_definition_has_a_caller():
    assert _unreferenced() == set()


def test_every_import_is_used():
    assert _unused_imports() == set()


def test_the_scan_sees_the_package():
    definitions = {(module, name) for module, name, _ in _definitions()}
    assert len(definitions) > 150
    assert {("spaces", "Space.dist"), ("cli", "main"), *KEEP} <= definitions
    # a dataclass's generated __init__ has no definition in the source
    assert {t for t in _tracer_targets() if not t[1].endswith("__init__")} <= definitions


def test_the_scan_finds_a_planted_orphan_and_import(monkeypatch):
    source = "import json\n\n\ndef orphan():\n    return orphan\n"
    planted = ("planted", ast.parse(source))
    modules = list(_modules()) + [planted]
    monkeypatch.setattr(sys.modules[__name__], "_modules", lambda: iter(modules))
    assert _unreferenced() == {("planted", "orphan")}
    assert _unused_imports() == {("planted", "json")}
