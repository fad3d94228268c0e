"""Span tracing of `mwlp` from outside the package.

`install` wraps the public functions of each `src/mwlp` module where their
callers look them up: the defining module, and every `mwlp` module that
bound the name with `from .x import y`.  Methods are wrapped on their class,
and the `verify.SUITES` tuple is replaced by wrapped suites.  Each call
records one span (name, parent, start, end) in memory; `summary` turns the
spans into per-layer times and counts, and `dump` writes them to a file.

A span's layer is the part of its name before the first dot, which is the
`mwlp` module it wraps (`cli` for the benchmark's job spans).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("i")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._nets: dict[int, object] = {}
        self._ball_keys: set = set()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(self._name_id(name))
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, adapt=None, after=None):
        """Wrap fn in a span; adapt may rewrite the arguments, after sees the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if adapt is not None:
                args, kwargs = adapt(self, args, kwargs)
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(sid)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def end_batch(self) -> None:
        """Forget per-batch identity sets (nets certified, ball schemes built)."""
        self.counts["compactness.certify_net.nets"] += len(self._nets)
        self.counts["operators.ball_scheme.distinct"] += len(self._ball_keys)
        self._nets.clear()
        self._ball_keys.clear()

    def summary(self, batches: int) -> dict[str, float]:
        """Per-batch inclusive seconds (`<span>.s`), calls (`<span>.calls`),
        counters, and per-layer self seconds (`<layer>.self_s`)."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            out[name + ".s"] += dur[i]
            out[name + ".calls"] += 1
            out[name.split(".", 1)[0] + ".self_s"] += dur[i] - child[i]
        for key, value in self.counts.items():
            out[key] += value
        return {key: value / batches for key, value in out.items()}

    def dump(self, path) -> None:
        """Write the spans as parallel columns; span i's parent is a row index."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "parent": self.parent.tolist(), "start": self.start.tolist(),
                       "end": self.end.tolist(), "counts": dict(self.counts)}, fh)


# ---------------------------------------------------------------------------
# argument and result hooks for the counters


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _count_points(tracer, args, kwargs, result):
    tracer.counts["spaces.lp_rho_norm.points"] += _arg(args, kwargs, 0, "f").grid.num_points


def _count_mats(name):
    def after(tracer, args, kwargs, result):
        shape = _arg(args, kwargs, 0, "mats").shape[:-2]
        total = 1
        for s in shape:
            total *= s
        tracer.counts[name] += total
    return after


def _count_dist_calls(tracer, args, kwargs):
    args = list(args)
    dist_fn = args[1] if len(args) > 1 else kwargs["dist_fn"]

    def counted(i, j):
        tracer.counts["compactness.greedy_cover.dist_calls"] += 1
        return dist_fn(i, j)

    if len(args) > 1:
        args[1] = counted
    else:
        kwargs = dict(kwargs, dist_fn=counted)
    return tuple(args), kwargs


def _count_centers(tracer, args, kwargs, result):
    tracer.counts["compactness.greedy_cover.centers"] += len(result[0])


def _note_net(tracer, args, kwargs, result):
    net = _arg(args, kwargs, 1, "net")
    tracer._nets[id(net)] = net


def _note_ball_scheme(tracer, args, kwargs, result):
    scheme = args[0]
    tracer._ball_keys.add((scheme.grid, scheme.r))


def _file_bytes(name, index, key):
    def after(tracer, args, kwargs, result):
        tracer.counts[name] += os.path.getsize(_arg(args, kwargs, index, key))
    return after


# (module, attribute, span name, adapt, after).  Attributes with a dot are
# methods, wrapped on their class.
TARGETS = (
    ("scenario", "validate", "scenario.validate", None, None),
    ("scenario", "build_weight", "scenario.build_weight", None, None),
    ("scenario", "build_family", "scenario.build_family", None, None),
    ("report", "render", "report.render", None, None),
    ("matrix_core", "batched_eigh", "matrix_core.batched_eigh", None,
     _count_mats("matrix_core.batched_eigh.mats")),
    ("matrix_core", "batched_spectral_norm", "matrix_core.batched_spectral_norm", None,
     _count_mats("matrix_core.batched_spectral_norm.mats")),
    ("weight_fields", "ap_constant", "weight_fields.ap_constant", None, None),
    ("weight_fields", "scalar_ap_constant", "weight_fields.scalar_ap_constant", None, None),
    ("weight_fields", "MatrixWeightField.power", "weight_fields.power", None, None),
    ("spaces", "lp_rho_norm", "spaces.lp_rho_norm", None, _count_points),
    ("spaces", "lp_w_norm", "spaces.lp_w_norm", None, None),
    ("spaces", "luxemburg_norm", "spaces.luxemburg_norm", None, None),
    ("spaces", "john_ellipsoid", "spaces.john_ellipsoid", None, None),
    ("spaces", "SampledVectorField.__post_init__", "spaces.field_new", None, None),
    ("spaces", "Space.dist", "spaces.dist", None, None),
    ("operators", "shift_values", "operators.shift_values", None, None),
    ("operators", "ball_average", "operators.ball_average", None, None),
    ("operators", "dyadic_average", "operators.dyadic_average", None, None),
    ("operators", "christ_goldberg_maximal", "operators.christ_goldberg_maximal", None, None),
    ("operators", "BallScheme.__init__", "operators.ball_scheme", None, _note_ball_scheme),
    ("compactness", "translation_modulus", "compactness.translation_modulus", None, None),
    ("compactness", "twisted_modulus", "compactness.twisted_modulus", None, None),
    ("compactness", "averaging_modulus", "compactness.averaging_modulus", None, None),
    ("compactness", "tail_modulus", "compactness.tail_modulus", None, None),
    ("compactness", "greedy_cover", "compactness.greedy_cover", _count_dist_calls,
     _count_centers),
    ("compactness", "build_net_dyadic", "compactness.build_net_dyadic", None, None),
    ("compactness", "build_net_average", "compactness.build_net_average", None, None),
    ("compactness", "certify_net", "compactness.certify_net", None, _note_net),
    ("compactness", "necessity_check", "compactness.necessity_check", None, None),
    ("fieldio", "save_field", "fieldio.save_field", None,
     _file_bytes("fieldio.save_field.bytes", 0, "path")),
    ("fieldio", "load_field", "fieldio.load_field", None,
     _file_bytes("fieldio.load_field.bytes", 0, "path")),
)


def install(tracer: Tracer) -> None:
    """Wrap every target in the already imported `mwlp` package."""
    for module_name, attr, span, adapt, after in TARGETS:
        module = importlib.import_module("mwlp." + module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(span, cls.__dict__[method], adapt, after))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(span, original, adapt, after)
        for name, loaded in list(sys.modules.items()):
            if name == "mwlp" or name.startswith("mwlp."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
    verify = importlib.import_module("mwlp.verify")
    verify.SUITES = tuple(
        tracer.wrap("verify." + suite.__name__.removeprefix("suite_"), suite)
        for suite in verify.SUITES)
