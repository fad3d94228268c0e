"""Every failure the package raises is an `MwlpError`.

The source text of `src/mwlp/*.py` is read, the way tests/test_spectral_path.py
reads it, and every `raise` statement is located by the function that makes
it.  The raised class must derive from `mwlp.errors.MwlpError`; the only
others are the two TypeErrors for objects that a writer does not support.
A bare `raise` re-raises what it caught and is not counted.
"""

import ast
from pathlib import Path

from mwlp import errors

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mwlp"

ALLOWED = {("fieldio", "save_field", "TypeError"), ("report", "_canonical", "TypeError")}


def _raised_class(node: ast.Raise) -> str:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.attr if isinstance(exc, ast.Attribute) else exc.id


def _raises():
    """(module, enclosing function, raised class name) per `raise X` in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from visit(child, child.name)
                else:
                    if isinstance(child, ast.Raise) and child.exc is not None:
                        yield path.stem, owner, _raised_class(child)
                    yield from visit(child, owner)

        yield from visit(tree, "<module>")


def _is_toolkit_error(name: str) -> bool:
    cls = getattr(errors, name, None)
    return isinstance(cls, type) and issubclass(cls, errors.MwlpError)


def test_every_raise_is_a_toolkit_error():
    others = {site for site in _raises() if not _is_toolkit_error(site[2])}
    assert others == ALLOWED


def test_the_scan_sees_the_package_raises():
    sites = list(_raises())
    assert len(sites) > 80
    assert ("fieldio", "_parse_field", "MalformedField") in sites
    assert ("grids", "samples", "NonFinite") in sites


def test_value_error_subclasses():
    """The classes that replaced bare ValueErrors still are ValueErrors."""
    for cls in (errors.ShapeMismatch, errors.NonFinite, errors.OutOfRange,
                errors.MalformedField, errors.MatrixWeightRequired):
        assert issubclass(cls, errors.MwlpError) and issubclass(cls, ValueError)
