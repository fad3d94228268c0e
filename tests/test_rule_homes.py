"""Each rule of the toolkit is decided in one place.

The source text of `src/mwlp/*.py` is read, the way tests/test_spectral_path.py
reads it, and every site of four rules is located by module and function:

* field-file acceptance: only `fieldio` checks the kind of a loaded field,
  and every other module passes the kind it needs to `fieldio.load_field`;
* the verdict margin: the literals of `value <= bound * (1 + 1e-9) + 1e-15`
  appear only in `spaces.within`;
* the equicontinuity notions: a list of notion names is spelled once, as
  `compactness.NOTIONS`;
* l^q norms: a row norm written as a lambda over `np.abs` appears only in
  `spaces.lq_norm`.
"""

import ast
from pathlib import Path

import pytest

from mwlp import compactness, fieldio

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mwlp"

FIELD_TYPES = {cls.__name__ for cls in fieldio.KINDS}
#: margin literals outside `within`, one reason each
MARGIN_EXEMPT = {
    # the John fit stops refining once no probe exceeds the ellipsoid by more
    # than a relative 1e-9: a stopping rule of the fit, not a verdict
    ("spaces", "john_ellipsoid"),
}


def _sites(tree: ast.Module):
    """(enclosing top-level function or Class.method, node) per node of a module."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                owner = f"{node.name}.{getattr(item, 'name', '<body>')}"
                yield from ((owner, sub) for sub in ast.walk(item))
        else:
            owner = getattr(node, "name", "<module>")
            yield from ((owner, sub) for sub in ast.walk(node))


def _modules(sources=None):
    """(module, owner, node) per node of the package, or of `sources` {module: text}."""
    if sources is None:
        sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    for module, text in sources.items():
        for owner, node in _sites(ast.parse(text)):
            yield module, owner, node


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def kind_checks(sources=None) -> set:
    """Sites of `isinstance(x, K)` with K a field type or a variable named `kind`."""
    found = set()
    for module, owner, node in _modules(sources):
        if (isinstance(node, ast.Call) and _name(node.func) == "isinstance"
                and len(node.args) == 2):
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(_name(c) in FIELD_TYPES | {"kind"} for c in classes):
                found.add((module, owner))
    return found


def load_calls_without_kind(sources=None) -> set:
    return {(module, owner) for module, owner, node in _modules(sources)
            if isinstance(node, ast.Call) and _name(node.func) == "load_field"
            and len(node.args) + len(node.keywords) != 2}


def _number(node, *values) -> bool:
    return (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
            and isinstance(node.value, (int, float)) and node.value in values)


def margin_sites(sources=None) -> set:
    """Sites of the margin literals: `1 +/- 1e-9` and `1e-15`."""
    found = set()
    for module, owner, node in _modules(sources):
        relative = (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                    and _number(node.left, 1) and _number(node.right, 1e-9))
        if relative or _number(node, 1e-15):
            found.add((module, owner))
    return found


def notion_lists(sources=None) -> list:
    """Sites of a tuple, list, set or call's arguments holding two or more notion names."""
    found = []
    for module, owner, node in _modules(sources):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            items = node.elts
        elif isinstance(node, ast.Call):
            items = node.args
        else:
            continue
        names = [i for i in items if isinstance(i, ast.Constant) and i.value in compactness.NOTIONS]
        if len(names) >= 2:
            found.append((module, owner))
    return found


def lq_lambdas(sources=None) -> set:
    """Sites of a lambda whose body takes np.abs: a row norm written by hand."""
    return {(module, owner) for module, owner, node in _modules(sources)
            if isinstance(node, ast.Lambda)
            and any(isinstance(sub, ast.Call) and _name(sub.func) == "abs"
                    for sub in ast.walk(node.body))}


def test_only_fieldio_checks_a_field_kind():
    assert {module for module, _ in kind_checks()} == {"fieldio"}
    assert load_calls_without_kind() == set()


def test_margin_literals_only_in_within():
    assert margin_sites() - MARGIN_EXEMPT == {("spaces", "within")}


def test_notions_spelled_once():
    assert notion_lists() == [("compactness", "<module>")]


def test_lq_lambdas_only_in_lq_norm():
    assert lq_lambdas() == {("spaces", "lq_norm")}


@pytest.mark.parametrize("scan, planted", [
    (kind_checks, "def f(path):\n    field = load(path)\n    if not isinstance(field, MeasureDensity):"
                  "\n        raise ValueError\n"),
    (load_calls_without_kind, "def f(path):\n    return fieldio.load_field(path)\n"),
    (margin_sites, "def f(a, b):\n    return a <= b * (1 + 1e-9)\n"),
    (margin_sites, "def f(a, b):\n    return a >= 1.0 - 1e-9\n"),
    (margin_sites, "def f(a, b):\n    return a <= b + 1e-15\n"),
    (notion_lists, "def f(n):\n    return check(n, 'translation', 'twisted')\n"),
    (notion_lists, "def f(n):\n    return n in ('twisted', 'averaging')\n"),
    (lq_lambdas, "def f(q):\n    return lambda v: np.sum(np.abs(v) ** q, axis=1)\n"),
], ids=["kind-check", "load-without-kind", "relative-margin", "left-margin", "absolute-margin",
        "notion-arguments", "notion-tuple", "lq-lambda"])
def test_each_scan_finds_a_planted_copy(scan, planted):
    found = scan({"planted": planted})
    assert list(found) == [("planted", "f")]
