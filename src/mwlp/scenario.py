"""Scenario files: schema, validation and object construction.

A scenario is a YAML mapping of the sections below.  SECTION_PARAMS declares
every section's keys once, by section and kind, with their types, ranges and
defaults; TASK_PARAMS declares every task's keys.  `validate` walks the
sections: it checks each `kind`, rejects unknown keys, fails on a missing
required key, checks each given value and fills in the defaults.  A key
given as null counts as absent.  Each failure raises SchemaError naming the
field path.

    seed: 20260810                       # one seed drives all randomness
    grid: {n: 1, L: 8.0, N: 4096}
    weight:                              # power | identity | constant | file
      kind: power
      alpha: [0.5, 0.3333333333333333]
      rotation: {kind: linear}           # none | linear
    measure: {kind: lebesgue}            # lebesgue | file
    exponent: {kind: file, path: p.txt}  # constant | file
    family: {kind: gaussian_bumps, count: 40, d: 2}   # gaussian_bumps | files
    task: {name: net, epsilon: 0.1}      # the named task's keys, in TASK_PARAMS
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from .compactness import NOTIONS
from .errors import MwlpError, SchemaError
from .matrix_core import MAX_DIM


@dataclass
class Scenario:
    """A validated scenario: `raw` as given, which reports echo, and every
    section checked by the walker with its defaults filled in."""

    raw: dict
    seed: int
    grid: dict | None
    weight: dict | None
    measure: dict
    exponent: dict
    family: dict | None
    task: dict
    source: str = "<dict>"

    @property
    def task_name(self) -> str:
        return self.task["name"]

    def param(self, key: str):
        """The task parameter `key`, checked against TASK_PARAMS, or its default."""
        spec = TASK_PARAMS[self.task_name][key]
        if key not in self.task:
            return spec.default(self) if callable(spec.default) else copy.deepcopy(spec.default)
        return spec.check(self.task[key], f"task.{key}")


def _fail(path: str, msg: str):
    raise SchemaError(f"{path}: {msg}")


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        _fail(f"{path}.{key}", "missing required field")
    return mapping[key]


def _as_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# parameters


REQUIRED = object()  # the default of a section key that must be given


@dataclass(frozen=True)
class Param:
    """A parameter: `check(value, path)` converts a given value or fails
    naming `path`; `default` (a value, or for a task key a function of the
    Scenario) stands in for an absent key.  Section keys are all checked by
    `validate`; of a task's keys only enumerated `choices` are, the others
    where the task reads them.  That lets a scenario be validated before all
    of its task values exist: the benchmark harness (perfbench/child.py)
    validates its `certify-files-1d` scenario while `task.centers` and
    `task.c_net` still hold the `{centers}` and `{c_net}` placeholders that
    it fills once an earlier job has written the net."""

    check: Callable
    default: object = None
    choices: tuple = ()


def _rule(ok, rule: str, as_type=lambda value, path: value):
    """A check that converts with `as_type`, then requires `ok(value)`."""
    def check(value, path):
        value = as_type(value, path)
        if not ok(value):
            _fail(path, f"{rule}, got {value!r}")
        return value

    return check


def _list_of(check):
    """A check for a nonempty list whose items pass `check`."""
    def check_list(value, path):
        _rule(lambda v: isinstance(v, list) and v, "expected a nonempty list")(value, path)
        return [check(x, f"{path}[{i}]") for i, x in enumerate(value)]

    return check_list


def _lq_norm(value, path: str) -> dict:
    _rule(lambda v: isinstance(v, dict) and set(v) == {"kind", "q"} and v["kind"] == "lq",
          "expected {kind: lq, q: <number>}")(value, path)
    q = _rule(lambda q: q >= 1, "must be at least 1 (.inf for the max norm)", _as_number)
    return {"kind": "lq", "q": q(value["q"], f"{path}.q")}


def _choice(*allowed) -> Param:
    """An enumerated parameter whose default is its first value."""
    return Param(_rule(lambda v: v in allowed, f"expected one of {allowed}"), allowed[0], allowed)


def _count(low: int):
    return _rule(lambda n: n >= low, f"must be an integer >= {low}", _as_int)


def _pair(item):
    return _rule(lambda v: len(v) == 2, "expected a pair", _list_of(item))


def _range(low: float):
    """A check for [a, b] with low < a <= b < inf.  It returns the list as
    given, so that the family's metadata prints its numbers as written."""
    return _rule(lambda v: low < v[0] <= v[1] < np.inf, f"expected {low} < low <= high < inf",
                 lambda value, path: _pair(_as_number)(value, path) and value)


def _entry(value, path: str) -> complex:
    """A matrix entry: a number or an [re, im] pair."""
    if isinstance(value, list):
        return complex(*_pair(_FINITE)(value, path))
    return complex(_FINITE(value, path))


def _section(name: str):
    """The walker of section `name` of SECTION_PARAMS.

    The section's `kind` picks its keys (a section without kinds has the one
    kind None).  The walker rejects unknown keys, fails on a missing required
    key, checks each given value and fills in the defaults."""
    def check(value, path):
        value, kinds = _as_mapping(value, path or name), SECTION_PARAMS[name]
        kind = None if None in kinds else _choice(*kinds).check(
            _require(value, "kind", path), f"{path}.kind")
        params, checked = kinds[kind], {} if kind is None else {"kind": kind}
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in params and key not in checked:
                _fail(f"{prefix}{key}", f"unknown field of the {name} section")
        for key, param in params.items():
            if value.get(key) is not None:
                checked[key] = param.check(value[key], f"{prefix}{key}")
            elif param.default is REQUIRED:
                _fail(f"{prefix}{key}", "missing required field")
            else:
                checked[key] = copy.deepcopy(param.default)
        return checked

    return check


def _task(task, path: str) -> dict:
    """The task mapping with its name, its keys and its enumerated values checked."""
    name = _require(_as_mapping(task, path), "name", path)
    if name not in TASK_PARAMS:
        _fail(f"{path}.name", f"unknown task {name!r}; expected one of {tuple(TASK_PARAMS)}")
    params = TASK_PARAMS[name]
    for key in [key for key in task if key != "name"]:
        if key not in params:
            _fail(f"{path}.{key}", f"unknown field of the {name} task")
        if params[key].choices:
            params[key].check(task[key], f"{path}.{key}")
    return task


_FINITE = _rule(np.isfinite, "must be finite", _as_number)
_POSITIVE = _rule(lambda x: 0 < x < np.inf, "must be positive and finite", _as_number)
_PATH = _rule(lambda v: isinstance(v, str), "expected a file path")
_FILE = {"path": Param(_PATH, REQUIRED)}
_BOOL = _rule(lambda v: isinstance(v, bool), "expected true or false")
_MATRIX = _rule(lambda m: len(m) <= MAX_DIM and all(len(row) == len(m) for row in m),
                f"expected a square matrix of at most {MAX_DIM} rows", _list_of(_list_of(_entry)))

# Every section's keys, by section and kind: the one place their types,
# ranges and defaults live.  "scenario" is the top level.
SECTION_PARAMS = {
    "scenario": {None: {
        "seed": Param(_count(0), 0), "grid": Param(_section("grid")),
        "weight": Param(_section("weight")),
        "measure": Param(_section("measure"), {"kind": "lebesgue"}),
        "exponent": Param(_section("exponent"), {"kind": "constant", "p": 2.0}),
        "family": Param(_section("family")), "task": Param(_task, REQUIRED)}},
    "grid": {None: {
        "n": Param(_rule(lambda n: n in (1, 2), "must be 1 or 2", _as_int), REQUIRED),
        "L": Param(_POSITIVE, REQUIRED),
        "N": Param(_rule(lambda N: N >= 8 and not N & (N - 1), "must be a power of two >= 8",
                         _as_int), REQUIRED)}},
    "weight": {
        "power": {"alpha": Param(_rule(lambda a: len(a) <= MAX_DIM,
                                       f"expected at most {MAX_DIM} exponents",
                                       _list_of(_FINITE)), REQUIRED),
                  "rotation": Param(_section("weight.rotation")), "invertible": Param(_BOOL)},
        "identity": {"d": Param(_rule(lambda d: d <= MAX_DIM, f"must be at most {MAX_DIM}",
                                      _count(1)), REQUIRED)},
        "constant": {"entries": Param(_MATRIX, REQUIRED), "invertible": Param(_BOOL, True)},
        "file": _FILE},
    "weight.rotation": {"none": {}, "linear": {"rate": Param(_FINITE, 1.0)}},
    "measure": {"lebesgue": {}, "file": _FILE},
    "exponent": {"constant": {"p": Param(_POSITIVE, REQUIRED)}, "file": _FILE},
    "family": {
        "gaussian_bumps": {"count": Param(_count(1), REQUIRED), "d": Param(_count(1), REQUIRED),
                           "center_range": Param(_range(-np.inf), [-1.0, 1.0]),
                           "width_range": Param(_range(0.0), [0.5, 1.0]),
                           "amplitude_range": Param(_range(-np.inf), [0.3, 1.0])},
        "files": {"paths": Param(_list_of(_PATH), REQUIRED)}},
}

_NET_PARAMS = {"epsilon": Param(_POSITIVE, 0.1), "route": _choice("dyadic", "average"),
               "notion": _choice(*NOTIONS[:2])}

# Every task's parameters: the one place their types, ranges and defaults live.
TASK_PARAMS = {
    "ap-constant": {"p": Param(_POSITIVE, lambda sc: constant_p(sc) or 2.0),
                    "cubes": _choice("default", "dense")},
    "john": {"d": Param(_count(1), 2), "norm": Param(_lq_norm, {"kind": "lq", "q": 1.0}),
             "test_vectors": Param(_count(1), 1000)},
    "norm": {"norm": _choice("matrix")},
    "moduli": {"notion": _choice(*NOTIONS)},
    "net": dict(_NET_PARAMS, save_centers=Param(_PATH)),
    "certify": dict(_NET_PARAMS, centers=Param(_list_of(_PATH)), c_net=Param(_POSITIVE, 1.0)),
    "necessity": {"epsilons": Param(_list_of(_POSITIVE), [0.2, 0.1, 0.05]),
                  "ap_value": Param(_POSITIVE)},
    "verify-lemmas": {"count": Param(_count(0), 25), "weight_file": Param(_PATH)},
}


def validate(raw: dict, source: str = "<dict>") -> Scenario:
    """Validate a scenario mapping and return the parsed Scenario."""
    return Scenario(raw=raw, source=source, **_section("scenario")(raw, ""))


#: libyaml's parser when PyYAML was built with it: the same constructor and
#: resolver as SafeLoader, so the same mappings, parsed in C
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load(path) -> dict:
    """The scenario mapping of a YAML file, not yet validated."""
    with open(path) as fh:
        text = fh.read()
    try:
        raw = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise SchemaError(f"{path}: YAML parse error{where}: {exc}") from exc
    if raw is None:
        raise SchemaError(f"{path}: empty scenario file")
    return _as_mapping(raw, "scenario")


def from_file(path) -> Scenario:
    return validate(load(path), source=str(path))


# ---------------------------------------------------------------------------
# object construction


def _needed(sc: Scenario, section: str) -> dict:
    spec = getattr(sc, section)
    if spec is None:
        _fail(section, f"this task requires a {section} section")
    return spec


def _field_file(path: str, file: str, kind: type, grid):
    """The `kind` field in `file`, given at scenario path `path`, on `grid`."""
    from . import fieldio

    try:
        field = fieldio.load_field(file, kind)
    except MwlpError as exc:  # load_field's message names the file
        _fail(path, str(exc))
    if field.grid != grid:
        _fail(path, f"the grid of {file} does not match the scenario grid")
    return field


def build_grid(sc: Scenario):
    from .grids import Grid

    return Grid(**_needed(sc, "grid"))


def build_weight(sc: Scenario, grid):
    from .weight_fields import MatrixWeightField, make_power_weight

    spec = _needed(sc, "weight")
    if spec["kind"] == "file":
        return _field_file("weight.path", spec["path"], MatrixWeightField, grid)
    if spec["kind"] == "identity":
        return MatrixWeightField.constant(grid, np.eye(spec["d"]), invertible=True)
    if spec["kind"] == "constant":
        try:
            return MatrixWeightField.constant(grid, spec["entries"], invertible=spec["invertible"])
        except MwlpError as exc:  # not Hermitian, not PSD, or singular though invertible
            _fail("weight.entries", str(exc))
    rotation = None
    if spec["rotation"] is not None and spec["rotation"]["kind"] == "linear":
        if len(spec["alpha"]) < 2:
            _fail("weight.rotation", "a rotation needs at least two exponents in weight.alpha")
        rate = spec["rotation"]["rate"]

        def rotation(pts, rate=rate):
            return rate * pts[:, 0]

    return make_power_weight(grid, spec["alpha"], rotation=rotation,
                             invertible=spec["invertible"])


def build_measure(sc: Scenario, grid):
    from .weight_fields import MeasureDensity

    if sc.measure["kind"] == "lebesgue":
        return None
    return _field_file("measure.path", sc.measure["path"], MeasureDensity, grid)


def build_exponent(sc: Scenario, grid):
    from .spaces import ExponentField

    if sc.exponent["kind"] == "constant":
        return ExponentField.constant(grid, sc.exponent["p"])
    return _field_file("exponent.path", sc.exponent["path"], ExponentField, grid)


def constant_p(sc: Scenario) -> float | None:
    """The constant exponent of the scenario, or None when it varies."""
    return sc.exponent["p"] if sc.exponent["kind"] == "constant" else None


def build_family(sc: Scenario, grid, rng):
    from .compactness import FunctionFamily
    from .families import gaussian_bumps
    from .spaces import SampledVectorField

    spec = _needed(sc, "family")
    if spec["kind"] == "files":
        members = [_field_file(f"family.paths[{i}]", p, SampledVectorField, grid)
                   for i, p in enumerate(spec["paths"])]
        return FunctionFamily(members, metadata=f"{len(members)} members from files")
    return gaussian_bumps(grid, spec["d"], spec["count"], rng,
                          center_range=tuple(spec["center_range"]),
                          width_range=tuple(spec["width_range"]),
                          amplitude_range=tuple(spec["amplitude_range"]))


def build_centers(sc: Scenario, grid, d: int):
    """The task's center fields, each on `grid` with the family's dimension d."""
    from .spaces import SampledVectorField

    centers = []
    for i, path in enumerate(sc.param("centers")):
        center = _field_file(f"task.centers[{i}]", path, SampledVectorField, grid)
        if center.d != d:
            _fail(f"task.centers[{i}]", f"{path} has dimension {center.d}, the family {d}")
        centers.append(center)
    return centers


# ---------------------------------------------------------------------------
# shorthand scenarios used by the CLI subcommands


def _spelled_out(value):
    """A checked section as a scenario spells it: keys without a value left out."""
    if isinstance(value, dict):
        return {key: _spelled_out(v) for key, v in value.items() if v is not None}
    return value


def default_scenario(task_name: str) -> dict:
    """The documented default scenario for each shorthand subcommand.

    Its sections are spelled out with their defaults, and its task section
    with the listed parameters at their defaults, so that reports echo them.
    """
    base = {
        "seed": 20260810,
        "grid": {"n": 1, "L": 8.0, "N": 4096},
        "weight": {"kind": "power", "alpha": [0.5, 1.0 / 3.0], "rotation": {"kind": "linear"}},
        "measure": None, "exponent": None,  # the table's defaults, spelled out below
        "family": {"kind": "gaussian_bumps", "count": 40, "d": 2},
    }
    tasks = {
        "ap-constant": ({"seed": 20260810, "grid": {"n": 1, "L": 1.0, "N": 4096},
                         "weight": {"kind": "power", "alpha": [0.5]}}, ("p", "cubes")),
        "john": ({"seed": 20260810}, ("d", "norm", "test_vectors")),
        "norm": (base, ("norm",)),
        "moduli": (base, ("notion",)),
        "net": (base, ("epsilon", "route")),
        "certify": (base, ("epsilon", "route")),
        "necessity": (base, ("epsilons",)),
        "verify-lemmas": ({"seed": 20260810}, ("count",)),
    }
    if task_name not in tasks:
        raise SchemaError(f"no default scenario for task {task_name!r}")
    sections, shown = tasks[task_name]
    sc = validate(dict(sections, task={"name": task_name}))
    sc.task.update({key: sc.param(key) for key in shown})
    return {key: _spelled_out(getattr(sc, key)) for key in [*sections, "task"]}
