"""Command-line front end.

Subcommands:

    mwlp run <scenario.yaml>        run a full scenario file
    mwlp ap-constant | john | norm | moduli | net | certify | necessity |
         verify-lemmas              run the task's documented default scenario
                                    (certify needs --centers)

Each flag sets the scenario path that `--help` shows as its argument (`--N`
sets grid.N, --seed sets seed) before the scenario is validated.  --out PATH
writes the report; --timings embeds wall-clock times, omitted by default so
reports are byte-identical across runs.

Exit codes: 0 pass, 2 certificate or verification failure, 1 error, a
command-line error included.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

import numpy as np

# Library functions are called through their modules, so that tests and the
# benchmark's tracer can replace them.
from . import __version__, compactness, fieldio, report, scenario, spaces, verify, weight_fields
from .errors import MwlpError, OutOfRange, SchemaError
from .spaces import NormFamily, Space
from .weight_fields import CubeFamily


def _lq_exponent(text: str) -> float:
    """The --q value: a negative number stands for q = inf."""
    q = float(text)
    return float("inf") if q < 0 else q


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise SchemaError, so that they
    exit 1 with one `error:` line like every other error; subcommands'
    parsers are of the same class."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    def one_of(task, key):
        return {"help": " | ".join(scenario.TASK_PARAMS[task][key].choices)}

    parser = _Parser(
        prog="mwlp",
        description="Matrix-weighted Lebesgue space toolkit: weights, norms, "
                    "operators and epsilon-net compactness certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *flags):
        """A subcommand; each flag (name, scenario path, options) sets its path if given."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", help="write the report JSON here "
                                     "(curves also export as CSV next to it)")
        p.add_argument("--timings", action="store_true",
                       help="embed wall-clock timings in the report")
        for flag, path, options in (("--seed", "seed", {"type": int}),) + flags:
            p.add_argument(flag, dest=path, default=argparse.SUPPRESS, **options)
        return p

    command("run", "run a scenario file").add_argument(
        "scenario", help="path to a scenario YAML file")
    command("verify-lemmas", "randomized verification suites",
            ("--count", "task.count", {"type": int,
                                       "help": "instances per randomized suite "
                                               "(0 = empty pass report)"}),
            ("--weight-file", "task.weight_file",
             {"help": "also validate this weight field file"}))
    command("ap-constant", "A_p constant of the default power weight",
            ("--p", "task.p", {"type": float}),
            ("--alpha", "weight.alpha", {"type": float, "nargs": "+",
                                         "help": "power-weight exponents"}),
            ("--cubes", "task.cubes", one_of("ap-constant", "cubes")),
            ("--N", "grid.N", {"type": int, "help": "grid resolution"}))
    command("john", "fit the norm-to-ellipsoid sandwich",
            ("--d", "task.d", {"type": int}),
            ("--q", "task.norm.q", {"type": _lq_exponent,
                                    "help": "fit the l^q norm (inf via --q -1)"}))
    command("norm", "norms of the default bump family",
            ("--p", "exponent.p", {"type": float}))
    command("moduli", "moduli report for the default family",
            ("--notion", "task.notion", one_of("moduli", "notion")))
    epsilon = ("--epsilon", "task.epsilon", {"type": float})
    command("net", "build and certify an epsilon-net", epsilon,
            ("--route", "task.route", one_of("net", "route")),
            ("--save-centers", "task.save_centers",
             {"help": "directory for center field files"}))
    command("certify", "certify saved centers against the family", epsilon,
            ("--centers", "task.centers", {"nargs": "+",
                                           "help": "center field files (required)"}),
            ("--c-net", "task.c_net", {"type": float,
                                       "help": "the threshold is c_net * epsilon"}))
    command("necessity", "necessity-direction table",
            ("--epsilons", "task.epsilons", {"type": float, "nargs": "+"}))
    return parser


def main(argv=None) -> int:
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except BrokenPipeError:
        return 1
    except (MwlpError, OSError) as exc:  # toolkit and file errors -> exit 1 with a message
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _scenario(args):
    """The validated scenario: the file or the default, with the flags' paths set."""
    if args.command == "run":
        raw, source = scenario.load(args.scenario), args.scenario
    else:
        raw, source = scenario.default_scenario(args.command), f"<{args.command}>"
    for path, value in vars(args).items():
        if path not in ("command", "scenario", "out", "timings"):  # the rest are paths
            *sections, key = path.split(".")
            node = raw
            for section in sections:
                node = node.setdefault(section, {})
            node[key] = value
    return scenario.validate(raw, source=source)


def _dispatch(args) -> int:
    t0 = time.perf_counter()
    sc = _scenario(args)
    outputs, code = run_scenario(sc)
    elapsed = time.perf_counter() - t0
    rep = report.assemble(sc, outputs, __version__)
    if args.timings:
        rep["timings"] = {"wall_seconds": elapsed}
    text = report.render(rep)
    if args.out:
        Path(args.out).write_text(text)
        stem = os.path.splitext(args.out)[0]
        for name, curve in report.collect_curves(outputs):
            safe = name.replace(".", "_")
            report.write_curve_csv(f"{stem}.{safe}.csv", curve)
    else:
        sys.stdout.write(text)
    print(f"{sc.task_name}: {'pass' if code == 0 else 'FAIL' if code == 2 else 'error'} "
          f"({elapsed:.2f}s)", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# task runners


def run_scenario(sc) -> tuple:
    """Execute the scenario's task; returns (outputs, exit_code), the outputs
    a dict or a record whose fields are its report keys."""
    runner = {
        "ap-constant": _task_ap_constant,
        "john": _task_john,
        "norm": _task_norm,
        "moduli": _task_moduli,
        "net": _task_net,
        "certify": _task_certify,
        "necessity": _task_necessity,
        "verify-lemmas": _task_verify_lemmas,
    }[sc.task_name]
    return runner(sc, np.random.default_rng(sc.seed))


def _task_ap_constant(sc, rng) -> tuple[dict, int]:
    grid = scenario.build_grid(sc)
    w = scenario.build_weight(sc, grid)
    p = sc.param("p")
    dense = sc.param("cubes") == "dense"
    try:
        cubes = CubeFamily.dense_dyadic(grid) if dense else CubeFamily.default(grid)
    except OutOfRange as exc:  # the dense scan is defined on n = 1 grids only
        raise SchemaError(f"task.cubes: {exc}") from exc
    value = weight_fields.ap_constant(w, p, cubes)
    return {"value": value, "p": p, "cube_family": cubes.description,
            "num_cubes": len(cubes)}, 0


def _task_john(sc, rng) -> tuple[dict, int]:
    d, q, count = sc.param("d"), sc.param("norm")["q"], sc.param("test_vectors")
    rho, label = spaces.lq_norm(q), "linf" if np.isinf(q) else f"l{q}"
    w = spaces.john_ellipsoid(rho, d, rng=rng)
    left, right, passed = spaces.john_sandwich(rho, d, w, count, rng)
    return {"norm": label, "d": d, "matrix": w,
            "left_ratio_min": left, "right_ratio_max": right,
            "target": "rho(v) <= |Wv| <= sqrt(d)*1.05*rho(v)",
            "passed": passed}, 0 if passed else 2


def _setup(sc, rng, constant_exponent: bool = True):
    """The scenario's space and family on its grid.

    Returns (space, family).  The space is L^p(W, mu) for a constant
    exponent; for a varying one it is L^p(.)(rho) with the norm family
    derived from the weight at the exponent ceiling (the integrability
    assumption is on p_+), which tasks that need a constant exponent reject
    with a SchemaError.
    """
    p = scenario.constant_p(sc)
    if p is None and constant_exponent:
        raise SchemaError(f"exponent: the {sc.task_name} task needs a constant exponent")
    grid = scenario.build_grid(sc)
    w = scenario.build_weight(sc, grid)
    mu = scenario.build_measure(sc, grid)
    family = scenario.build_family(sc, grid, rng)
    if family.d != w.d:
        key = "family.paths" if sc.family["kind"] == "files" else "family.d"
        raise SchemaError(f"{key}: the family has dimension {family.d} "
                          f"but the weight has dimension {w.d}")
    if p is None:
        pf = scenario.build_exponent(sc, grid)
        return Space.variable(NormFamily.from_matrix_weight(w, pf.p_plus), pf), family
    return Space.matrix_weight(w, p, mu), family


def _task_norm(sc, rng) -> tuple[dict, int]:
    space, family = _setup(sc, rng, constant_exponent=False)
    return {"norm": space.label, "values": [space.norm(f) for f in family],
            "family": family.metadata}, 0


def _task_moduli(sc, rng) -> tuple:
    space, family = _setup(sc, rng, constant_exponent=False)
    return compactness.moduli_report(family, space, notion=sc.param("notion")), 0


def _task_net(sc, rng) -> tuple[dict, int]:
    """Build the net by the task's route; its builder certifies it."""
    space, family = _setup(sc, rng)
    eps = sc.param("epsilon")
    if sc.param("route") == "average":
        net = compactness.build_net_average(family, eps, space)
    else:
        net = compactness.build_net_dyadic(family, eps, space, notion=sc.param("notion"))
    out = {
        "route": net.route, "epsilon": net.epsilon, "net_size": net.size,
        "c_net": net.c_net, "params": net.params,
        "certificate": net.certificate, "family": family.metadata,
        "space": space.label,
    }
    save_dir = sc.param("save_centers")
    if save_dir:
        Path(save_dir).mkdir(parents=True, exist_ok=True)
        paths = []
        for i, c in enumerate(net.centers):
            path = Path(save_dir) / f"center_{i:03d}.txt"
            fieldio.save_field(path, c)
            paths.append(str(path))
        out["center_files"] = paths
    return out, 0


def _task_certify(sc, rng) -> tuple[dict, int]:
    """Recheck the given centers against the family from scratch."""
    space, family = _setup(sc, rng)
    centers = scenario.build_centers(sc, space.grid, family.d)
    eps, c_net = sc.param("epsilon"), sc.param("c_net")
    cert = compactness.certify_net(family, centers, c_net * eps, space)
    out = {"epsilon": eps, "net_size": len(centers), "c_net": c_net,
           "route": "external", "certificate": cert}
    return out, 0 if cert.passed else 2


def _task_necessity(sc, rng) -> tuple:
    space, family = _setup(sc, rng)
    rep = compactness.necessity_check(family, sc.param("epsilons"), space)
    return rep, 0 if rep.passed else 2


def _task_verify_lemmas(sc, rng) -> tuple[dict, int]:
    out = verify.verify_lemmas(sc.seed, sc.param("count"), weight_file=sc.param("weight_file"))
    return out, 0 if out["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
