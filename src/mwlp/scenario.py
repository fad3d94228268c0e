"""Scenario files: schema, validation and object construction.

A scenario is a YAML mapping with the sections below; unknown keys and
malformed values raise SchemaError naming the offending field path.

    seed: 20260810            # single 64-bit seed, drives all randomness
    threads: 0                # optional worker cap (0 = library default)
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
      ...task parameters (see the task runners)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from .errors import SchemaError

TASK_NAMES = ("ap-constant", "john", "norm", "moduli", "net", "certify",
              "necessity", "verify-lemmas")

_TOP_KEYS = {"seed", "threads", "grid", "weight", "measure", "exponent", "family", "task"}


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
    threads: int = 0
    source: str = "<dict>"

    @property
    def task_name(self) -> str:
        return self.task["name"]


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


def validate(raw: dict, source: str = "<dict>") -> Scenario:
    """Validate a scenario mapping and return the parsed Scenario."""
    raw = _as_mapping(raw, "scenario")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        _fail(sorted(unknown)[0], "unknown top-level field")
    seed = _as_int(raw.get("seed", 0), "seed")
    threads = _as_int(raw.get("threads", 0), "threads")

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
    if name not in TASK_NAMES:
        _fail("task.name", f"unknown task {name!r}; expected one of {TASK_NAMES}")
    choices = {"notion": {"moduli": ("translation", "twisted", "averaging"),
                          "net": ("translation", "twisted"), "certify": ("translation", "twisted")},
               "route": {"net": ("dyadic", "average"), "certify": ("dyadic", "average")}}
    for key, allowed in choices.items():
        if name in allowed and task.get(key, allowed[name][0]) not in allowed[name]:
            _fail(f"task.{key}", f"unknown {key} {task[key]!r}; expected one of {allowed[name]}")

    return Scenario(raw=raw, seed=seed, grid_spec=grid_spec, weight_spec=weight_spec,
                    measure_spec=measure_spec, exponent_spec=exponent_spec,
                    family_spec=family_spec, task=task, threads=threads, source=source)


def from_file(path) -> Scenario:
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
    return validate(raw, source=str(path))


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
    """The documented default scenario for each shorthand subcommand."""
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
        "ap-constant": {
            "seed": 20260810,
            "grid": {"n": 1, "L": 1.0, "N": 4096},
            "weight": {"kind": "power", "alpha": [0.5]},
            "task": {"name": "ap-constant", "p": 2.0, "cubes": "default"},
        },
        "john": {
            "seed": 20260810,
            "task": {"name": "john", "d": 2, "norm": {"kind": "lq", "q": 1.0},
                     "test_vectors": 1000},
        },
        "norm": dict(base, task={"name": "norm", "norm": "matrix"}),
        "moduli": dict(base, task={"name": "moduli", "notion": "translation"}),
        "net": dict(base, task={"name": "net", "epsilon": 0.1, "route": "dyadic"}),
        "certify": dict(base, task={"name": "certify", "epsilon": 0.1,
                                    "route": "dyadic"}),
        "necessity": dict(base, task={"name": "necessity",
                                      "epsilons": [0.2, 0.1, 0.05]}),
        "verify-lemmas": {"seed": 20260810,
                          "task": {"name": "verify-lemmas", "count": 25}},
    }
    if task_name not in tasks:
        raise SchemaError(f"no default scenario for task {task_name!r}")
    return tasks[task_name]
