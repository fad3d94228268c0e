"""The benchmark tracer wraps `mwlp` functions by name; every name must resolve."""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    # executed from its source text, so no bytecode cache is written next to it
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


@pytest.mark.parametrize("module_name, attr", [t[:2] for t in _tracer_targets()])
def test_tracer_target_resolves(module_name, attr):
    owner = importlib.import_module("mwlp." + module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = vars(getattr(owner, cls_name))
        assert callable(owner[attr])
    else:
        assert callable(getattr(owner, attr))


def test_verify_suites_wrappable():
    verify = importlib.import_module("mwlp.verify")
    assert verify.SUITES
    assert all(suite.__name__.startswith("suite_") for suite in verify.SUITES)
