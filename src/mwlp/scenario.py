"""Scenario files: schema, validation and object construction.

A scenario is a YAML mapping with the sections below; unknown keys and
malformed values raise SchemaError naming the offending field path.

    seed: 20260810            # single 64-bit seed, drives all randomness
    grid: {n: 1, L: 8.0, N: 4096}
    weight:                   # omit for tasks that need no weight
      kind: power             # power | identity | constant | file
      alpha: [0.5, 0.3333333333333333]
      rotation: {kind: linear, rate: 1.0}    # optional; linear | none
      d: 2                    # identity
      entries: [[[re, im], ...], ...]        # constant (d x d complex)
      path: weight.txt        # file
      invertible: true
    measure: {kind: lebesgue}               # lebesgue | file
    exponent: {kind: constant, p: 2.0}      # constant | file
    family:
      kind: gaussian_bumps    # gaussian_bumps | files
      count: 40
      d: 2
      center_range: [-1.0, 1.0]
      width_range: [0.5, 1.0]
      amplitude_range: [0.3, 1.0]
      paths: [f0.txt, f1.txt]               # files
    task:
      name: net               # ap-constant | john | norm | moduli | net |
                              # certify | necessity | verify-lemmas
      ...task parameters, declared in TASK_PARAMS
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from .errors import SchemaError

_TOP_KEYS = {"seed", "grid", "weight", "measure", "exponent", "family", "task"}


@dataclass
class Scenario:
    raw: dict
    seed: int
    grid_spec: dict | None
    weight_spec: dict | None
    measure_spec: dict
    exponent_spec: dict
    family_spec: dict | None
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
# task parameters


@dataclass(frozen=True)
class Param:
    """A task parameter: `check(value, path)` converts a given value or fails
    naming `path`; `default` (a value, or a function of the Scenario) stands
    in for an absent key; `validate` checks enumerated `choices` up front,
    other values are checked where the task reads them."""

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


_POSITIVE = _rule(lambda x: x > 0, "must be positive", _as_number)
_PATH = _rule(lambda v: isinstance(v, str), "expected a file path")
_NET_PARAMS = {"epsilon": Param(_POSITIVE, 0.1), "route": _choice("dyadic", "average"),
               "notion": _choice("translation", "twisted")}

# Every task's parameters: the one place their types, ranges and defaults live.
TASK_PARAMS = {
    "ap-constant": {"p": Param(_POSITIVE, lambda sc: constant_p(sc) or 2.0),
                    "cubes": _choice("default", "dense")},
    "john": {"d": Param(_count(1), 2), "norm": Param(_lq_norm, {"kind": "lq", "q": 1.0}),
             "test_vectors": Param(_count(1), 1000)},
    "norm": {"norm": _choice("matrix")},
    "moduli": {"notion": _choice("translation", "twisted", "averaging")},
    "net": dict(_NET_PARAMS, save_centers=Param(_PATH)),
    "certify": dict(_NET_PARAMS, centers=Param(_list_of(_PATH)), c_net=Param(_POSITIVE, 1.0)),
    "necessity": {"epsilons": Param(_list_of(_POSITIVE), [0.2, 0.1, 0.05]),
                  "ap_value": Param(_POSITIVE)},
    "verify-lemmas": {"count": Param(_count(0), 25), "weight_file": Param(_PATH)},
}


def validate(raw: dict, source: str = "<dict>") -> Scenario:
    """Validate a scenario mapping and return the parsed Scenario."""
    raw = _as_mapping(raw, "scenario")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        _fail(sorted(unknown)[0], "unknown top-level field")
    seed = _as_int(raw.get("seed", 0), "seed")

    grid_spec = None
    if "grid" in raw:
        g = _as_mapping(raw["grid"], "grid")
        n = _as_int(_require(g, "n", "grid"), "grid.n")
        if n not in (1, 2):
            _fail("grid.n", "must be 1 or 2")
        L = _as_number(_require(g, "L", "grid"), "grid.L")
        if L <= 0:
            _fail("grid.L", "must be positive")
        N = _as_int(_require(g, "N", "grid"), "grid.N")
        if N < 8 or N & (N - 1):
            _fail("grid.N", "must be a power of two >= 8")
        grid_spec = {"n": n, "L": L, "N": N}

    weight_spec = None
    if "weight" in raw and raw["weight"] is not None:
        w = _as_mapping(raw["weight"], "weight")
        kind = _require(w, "kind", "weight")
        if kind not in ("power", "identity", "constant", "file"):
            _fail("weight.kind", f"unknown weight kind {kind!r}")
        if kind == "power":
            alpha = _require(w, "alpha", "weight")
            if not isinstance(alpha, list) or not alpha:
                _fail("weight.alpha", "expected a nonempty list of exponents")
            for i, a in enumerate(alpha):
                _as_number(a, f"weight.alpha[{i}]")
            rot = w.get("rotation")
            if rot is not None:
                rot = _as_mapping(rot, "weight.rotation")
                rkind = rot.get("kind", "none")
                if rkind not in ("none", "linear"):
                    _fail("weight.rotation.kind", f"unknown rotation kind {rkind!r}")
                if rkind == "linear":
                    _as_number(rot.get("rate", 1.0), "weight.rotation.rate")
        elif kind == "identity":
            _as_int(_require(w, "d", "weight"), "weight.d")
        elif kind == "constant":
            _require(w, "entries", "weight")
        elif kind == "file":
            _require(w, "path", "weight")
        weight_spec = w

    measure_spec = {"kind": "lebesgue"}
    if "measure" in raw and raw["measure"] is not None:
        m = _as_mapping(raw["measure"], "measure")
        kind = _require(m, "kind", "measure")
        if kind not in ("lebesgue", "file"):
            _fail("measure.kind", f"unknown measure kind {kind!r}")
        if kind == "file":
            _require(m, "path", "measure")
        measure_spec = m

    exponent_spec = {"kind": "constant", "p": 2.0}
    if "exponent" in raw and raw["exponent"] is not None:
        e = _as_mapping(raw["exponent"], "exponent")
        kind = _require(e, "kind", "exponent")
        if kind not in ("constant", "file"):
            _fail("exponent.kind", f"unknown exponent kind {kind!r}")
        if kind == "constant":
            p = _as_number(_require(e, "p", "exponent"), "exponent.p")
            if p <= 0:
                _fail("exponent.p", "must be positive")
        else:
            _require(e, "path", "exponent")
        exponent_spec = e

    family_spec = None
    if "family" in raw and raw["family"] is not None:
        f = _as_mapping(raw["family"], "family")
        kind = _require(f, "kind", "family")
        if kind not in ("gaussian_bumps", "files"):
            _fail("family.kind", f"unknown family kind {kind!r}")
        if kind == "gaussian_bumps":
            if _as_int(_require(f, "count", "family"), "family.count") < 1:
                _fail("family.count", "must be at least 1")
            _as_int(_require(f, "d", "family"), "family.d")
        else:
            paths = _require(f, "paths", "family")
            if not isinstance(paths, list) or not paths:
                _fail("family.paths", "expected a nonempty list of file paths")
        family_spec = f

    task = _as_mapping(_require(raw, "task", "scenario"), "task")
    name = _require(task, "name", "task")
    if name not in TASK_PARAMS:
        _fail("task.name", f"unknown task {name!r}; expected one of {tuple(TASK_PARAMS)}")
    params = TASK_PARAMS[name]
    for key in [key for key in task if key != "name"]:
        if key not in params:
            _fail(f"task.{key}", f"unknown field of the {name} task")
        if params[key].choices:
            params[key].check(task[key], f"task.{key}")

    return Scenario(raw=raw, seed=seed, grid_spec=grid_spec, weight_spec=weight_spec,
                    measure_spec=measure_spec, exponent_spec=exponent_spec,
                    family_spec=family_spec, task=task, source=source)


def load(path) -> dict:
    """The scenario mapping of a YAML file, not yet validated."""
    with open(path) as fh:
        text = fh.read()
    try:
        raw = yaml.safe_load(text)
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


def build_grid(sc: Scenario):
    from .grids import Grid

    if sc.grid_spec is None:
        _fail("grid", "this task requires a grid section")
    return Grid(sc.grid_spec["n"], sc.grid_spec["L"], sc.grid_spec["N"])


def build_weight(sc: Scenario, grid):
    from . import fieldio
    from .weight_fields import MatrixWeightField, make_power_weight

    spec = sc.weight_spec
    if spec is None:
        _fail("weight", "this task requires a weight section")
    kind = spec["kind"]
    if kind == "file":
        w = fieldio.load_field(spec["path"])
        if not isinstance(w, MatrixWeightField):
            _fail("weight.path", "file does not contain a matrix weight field")
        return w
    if kind == "identity":
        d = spec["d"]
        return MatrixWeightField.constant(grid, np.eye(d), invertible=True)
    if kind == "constant":
        entries = np.asarray(spec["entries"], dtype=np.float64)
        if entries.ndim == 3:
            mat = entries[..., 0] + 1j * entries[..., 1]
        else:
            mat = entries.astype(np.complex128)
        return MatrixWeightField.constant(grid, mat,
                                          invertible=bool(spec.get("invertible", True)))
    rotation = None
    rot = spec.get("rotation")
    if rot and rot.get("kind", "none") == "linear":
        rate = float(rot.get("rate", 1.0))

        def rotation(pts, rate=rate):
            return rate * pts[:, 0]

    inv = spec.get("invertible")
    return make_power_weight(grid, spec["alpha"], rotation=rotation,
                             invertible=None if inv is None else bool(inv))


def build_measure(sc: Scenario, grid):
    from . import fieldio
    from .weight_fields import MeasureDensity

    spec = sc.measure_spec
    if spec["kind"] == "lebesgue":
        return None
    mu = fieldio.load_field(spec["path"])
    if not isinstance(mu, MeasureDensity):
        _fail("measure.path", "file does not contain a measure density")
    if mu.grid != grid:
        _fail("measure.path", "density grid does not match the scenario grid")
    return mu


def build_exponent(sc: Scenario, grid):
    from . import fieldio
    from .spaces import ExponentField

    spec = sc.exponent_spec
    if spec["kind"] == "constant":
        return ExponentField.constant(grid, spec["p"])
    ef = fieldio.load_field(spec["path"])
    if not isinstance(ef, ExponentField):
        _fail("exponent.path", "file does not contain an exponent field")
    if ef.grid != grid:
        _fail("exponent.path", "exponent grid does not match the scenario grid")
    return ef


def constant_p(sc: Scenario) -> float | None:
    """The constant exponent of the scenario, or None when it varies."""
    spec = sc.exponent_spec
    if spec["kind"] == "constant":
        return float(spec["p"])
    return None


def build_family(sc: Scenario, grid, rng):
    from . import fieldio
    from .compactness import FunctionFamily
    from .families import gaussian_bumps
    from .spaces import SampledVectorField

    spec = sc.family_spec
    if spec is None:
        _fail("family", "this task requires a family section")
    if spec["kind"] == "files":
        members = []
        for p in spec["paths"]:
            f = fieldio.load_field(p)
            if not isinstance(f, SampledVectorField):
                _fail("family.paths", f"{p} does not contain a vector field")
            members.append(f)
        return FunctionFamily(members, metadata=f"{len(members)} members from files")
    return gaussian_bumps(
        grid, spec["d"], spec["count"], rng,
        center_range=tuple(spec.get("center_range", (-1.0, 1.0))),
        width_range=tuple(spec.get("width_range", (0.5, 1.0))),
        amplitude_range=tuple(spec.get("amplitude_range", (0.3, 1.0))),
    )


# ---------------------------------------------------------------------------
# shorthand scenarios used by the CLI subcommands


def default_scenario(task_name: str) -> dict:
    """The documented default scenario for each shorthand subcommand.

    Its task section spells out the listed parameters at their defaults,
    so that reports echo them.
    """
    base = {
        "seed": 20260810,
        "grid": {"n": 1, "L": 8.0, "N": 4096},
        "weight": {"kind": "power", "alpha": [0.5, 1.0 / 3.0],
                   "rotation": {"kind": "linear", "rate": 1.0}},
        "measure": {"kind": "lebesgue"},
        "exponent": {"kind": "constant", "p": 2.0},
        "family": {"kind": "gaussian_bumps", "count": 40, "d": 2,
                   "center_range": [-1.0, 1.0], "width_range": [0.5, 1.0],
                   "amplitude_range": [0.3, 1.0]},
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
    return sc.raw
