"""The benchmark tracer wraps `mwlp` functions by name; every name must resolve,
and its argument hooks must read the arguments the wrapped functions take."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# Installs the tracer in a fresh interpreter, since it rewraps `mwlp` for good,
# runs the default `mwlp net` and one `lp_rho_norm` on 16 points, and prints
# the traced summary.
TRACED_RUN = """
import json, sys
namespace = {"__name__": "perfbench_tracer"}
exec(compile(open(sys.argv[1]).read(), sys.argv[1], "exec"), namespace)
import numpy as np
from mwlp import cli, spaces
from mwlp.grids import Grid
from mwlp.weight_fields import MatrixWeightField
tracer = namespace["Tracer"]()
namespace["install"](tracer)
assert cli.main(["net", "--out", sys.argv[2]]) == 0
grid = Grid(1, 1.0, 16)
rho = spaces.NormFamily.from_matrix_weight(MatrixWeightField.constant(grid, [[1.0]]), 2.0)
spaces.lp_rho_norm(spaces.SampledVectorField(grid, np.ones(16)), rho, 2.0)
print(json.dumps(tracer.summary(1)))
"""


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


def test_tracer_hooks_read_the_traced_arguments(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", TRACED_RUN, str(TRACER), str(tmp_path / "net.json")]
    run = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path, check=True)
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["spaces.dist.calls"] > 0
    assert summary["compactness.greedy_cover.dist_calls"] > 0
    assert summary["spaces.lp_rho_norm.points"] == 16
