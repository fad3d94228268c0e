"""Each rule of the toolkit is decided in one place.

The source text of `src/mwlp/*.py` is read, the way tests/test_spectral_path.py
reads it, and every site of seven rules is located by module and function:

* field-file acceptance: only `fieldio` checks the kind of a loaded field,
  and every other module passes the kind it needs to `fieldio.load_field`;
* the verdict margin: the literals of `value <= bound * (1 + 1e-9) + 1e-15`,
  and any comparison against `x + c` or `x - c` with a literal 0 < c <= 1e-6
  (an additive slack), appear only in `spaces.within`;
* the rounding model: only `spaces.rounding_error` reads the unit roundoff,
  `np.finfo(float).eps`;
* the equicontinuity notions: a list of notion names is spelled once, as
  `compactness.NOTIONS`;
* l^q norms: a row norm written as a lambda over `np.abs` appears only in
  `spaces.lq_norm`;
* positive-definiteness: only `matrix_core.definite` reads the threshold
  `TOL_PD_REL`, and every other module asks it;
* the covering metric's form: only `Space._metric` takes the p-th power of a
  norm on a test of p against 1 or of a variable exponent, and
  `Space.dist` and `Space.dist_to_zero` ask it.
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
    # geometric inclusions, not verdicts: the dyadic cube sides run up to the
    # box width 2L, and a dyadic scheme's outer box lies inside the grid box
    ("weight_fields", "CubeFamily.dense_dyadic"),
    ("operators", "DyadicScheme.__post_init__"),
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


def _additive_slack(node) -> bool:
    """`x + c` or `x - c` with a literal 0 < c <= 1e-6."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            and any(isinstance(side, ast.Constant) and isinstance(side.value, float)
                    and 0 < side.value <= 1e-6 for side in (node.left, node.right)))


def margin_sites(sources=None) -> set:
    """Sites of the margin literals, `1 +/- 1e-9` and `1e-15`, and of a
    comparison with an additive slack on either side."""
    found = set()
    for module, owner, node in _modules(sources):
        relative = (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                    and _number(node.left, 1) and _number(node.right, 1e-9))
        additive = (isinstance(node, ast.Compare)
                    and any(map(_additive_slack, [node.left, *node.comparators])))
        if relative or additive or _number(node, 1e-15):
            found.add((module, owner))
    return found


def eps_reads(sources=None) -> set:
    """Sites that read `np.finfo(...).eps`."""
    return {(module, owner) for module, owner, node in _modules(sources)
            if isinstance(node, ast.Attribute) and node.attr == "eps"
            and isinstance(node.value, ast.Call) and _name(node.value.func) == "finfo"}


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


def definiteness_sites(sources=None) -> set:
    """Sites that read TOL_PD_REL, the positive-definiteness threshold."""
    return {(module, owner) for module, owner, node in _modules(sources)
            if _name(node) == "TOL_PD_REL" and isinstance(getattr(node, "ctx", None), ast.Load)}


def metric_forms(sources=None) -> set:
    """Sites of a conditional on `p` against 1 or on `is_variable` with a
    power to `p` in a branch: the covering metric's form written out."""
    found = set()
    for module, owner, node in _modules(sources):
        if not isinstance(node, (ast.IfExp, ast.If)):
            continue
        test = list(ast.walk(node.test))
        on_p = (any(_name(sub) == "is_variable" for sub in test)
                or any(isinstance(sub, ast.Compare) and _name(sub.left) == "p"
                       and any(_number(c, 1) for c in sub.comparators) for sub in test))
        branches = node.body + node.orelse if isinstance(node, ast.If) else [node.body, node.orelse]
        powers = any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Pow)
                     and _name(sub.right) == "p"
                     for branch in branches for sub in ast.walk(branch))
        if on_p and powers:
            found.add((module, owner))
    return found


def test_only_fieldio_checks_a_field_kind():
    assert {module for module, _ in kind_checks()} == {"fieldio"}
    assert load_calls_without_kind() == set()


def test_margin_literals_only_in_within():
    assert margin_sites() - MARGIN_EXEMPT == {("spaces", "within")}


def test_unit_roundoff_read_only_in_the_rounding_model():
    assert eps_reads() == {("spaces", "rounding_error")}


def test_notions_spelled_once():
    assert notion_lists() == [("compactness", "<module>")]


def test_lq_lambdas_only_in_lq_norm():
    assert lq_lambdas() == {("spaces", "lq_norm")}


def test_definiteness_decided_only_by_definite():
    assert definiteness_sites() == {("matrix_core", "definite")}


def test_metric_form_only_in_space_metric():
    assert metric_forms() == {("spaces", "Space._metric")}


@pytest.mark.parametrize("scan, planted", [
    (kind_checks, "def f(path):\n    field = load(path)\n    if not isinstance(field, MeasureDensity):"
                  "\n        raise ValueError\n"),
    (load_calls_without_kind, "def f(path):\n    return fieldio.load_field(path)\n"),
    (margin_sites, "def f(a, b):\n    return a <= b * (1 + 1e-9)\n"),
    (margin_sites, "def f(a, b):\n    return a >= 1.0 - 1e-9\n"),
    (margin_sites, "def f(a, b):\n    return a <= b + 1e-15\n"),
    (margin_sites, "def f(worst):\n    return worst <= 1.0 + 1e-12\n"),
    (margin_sites, "def f(v0, v1):\n    return v1 <= v0 + 1e-12\n"),
    (eps_reads, "def f(n):\n    return 64 * np.finfo(float).eps * n\n"),
    (notion_lists, "def f(n):\n    return check(n, 'translation', 'twisted')\n"),
    (notion_lists, "def f(n):\n    return n in ('twisted', 'averaging')\n"),
    (lq_lambdas, "def f(q):\n    return lambda v: np.sum(np.abs(v) ** q, axis=1)\n"),
    (definiteness_sites, "def f(lam):\n    return lam[:, 0] <= mc.TOL_PD_REL * lam[:, -1]\n"),
    (metric_forms, "def f(space, nrm):\n    return nrm if space.p >= 1.0 else nrm ** space.p\n"),
    (metric_forms, "def f(self, nrm):\n    if self.is_variable or self.p >= 1:\n        return nrm\n"
                   "    else:\n        return nrm ** self.p\n"),
    (metric_forms, "def f(nrm, p):\n    if p < 1:\n        nrm = nrm ** p\n    return nrm\n"),
], ids=["kind-check", "load-without-kind", "relative-margin", "left-margin", "absolute-margin",
        "additive-constant-slack", "additive-slack", "unit-roundoff",
        "notion-arguments", "notion-tuple", "lq-lambda", "pd-threshold", "metric-expression",
        "metric-return", "metric-assignment"])
def test_each_scan_finds_a_planted_copy(scan, planted):
    found = scan({"planted": planted})
    assert list(found) == [("planted", "f")]
