"""Command-line front end.

Subcommands:

    mwlp run <scenario.yaml>        run a full scenario file
    mwlp verify-lemmas              randomized verification suites
    mwlp ap-constant | john | norm | moduli | net | certify | necessity
                                    shorthand scenarios with flag overrides

Common flags: --out PATH (write the report), --seed S, --threads K,
--timings (embed wall-clock times; omitted by default so reports are
byte-identical across runs), task flags per subcommand.

Exit codes: 0 pass, 2 certificate or verification failure, 1 error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _set_thread_cap(threads: int) -> None:
    """Cap BLAS worker pools; must run before numpy is first imported."""
    if threads and threads > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(threads)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwlp",
        description="Matrix-weighted Lebesgue space toolkit: weights, norms, "
                    "operators and epsilon-net compactness certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report JSON here "
                                     "(curves also export as CSV next to it)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--threads", type=int, default=0, help="cap worker threads")
        p.add_argument("--timings", action="store_true",
                       help="embed wall-clock timings in the report")

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="path to a scenario YAML file")
    common(p_run)

    p_ver = sub.add_parser("verify-lemmas", help="randomized verification suites")
    p_ver.add_argument("--count", type=int, default=25,
                       help="instances per randomized suite (0 = empty pass report)")
    p_ver.add_argument("--weight-file", help="also validate this weight field file")
    common(p_ver)

    p_ap = sub.add_parser("ap-constant", help="A_p constant of the default power weight")
    p_ap.add_argument("--p", type=float, default=2.0)
    p_ap.add_argument("--alpha", type=float, nargs="+", help="power-weight exponents")
    p_ap.add_argument("--cubes", choices=("default", "dense"), default="default")
    p_ap.add_argument("--N", type=int, help="grid resolution")
    common(p_ap)

    p_john = sub.add_parser("john", help="fit the norm-to-ellipsoid sandwich")
    p_john.add_argument("--d", type=int, default=2)
    p_john.add_argument("--q", type=float, default=1.0,
                        help="fit the l^q norm (use 'inf' via --q -1)")
    common(p_john)

    p_norm = sub.add_parser("norm", help="norms of the default bump family")
    p_norm.add_argument("--p", type=float, default=2.0)
    common(p_norm)

    p_mod = sub.add_parser("moduli", help="moduli report for the default family")
    p_mod.add_argument("--notion", choices=("translation", "twisted", "averaging"),
                       default="translation")
    common(p_mod)

    p_net = sub.add_parser("net", help="build and certify an epsilon-net")
    p_net.add_argument("--epsilon", type=float, default=0.1)
    p_net.add_argument("--route", choices=("dyadic", "average"), default="dyadic")
    p_net.add_argument("--save-centers", help="directory for center field files")
    common(p_net)

    p_cert = sub.add_parser("certify", help="re-certify a net against the family")
    p_cert.add_argument("--epsilon", type=float, default=0.1)
    p_cert.add_argument("--route", choices=("dyadic", "average"), default="dyadic")
    p_cert.add_argument("--centers", nargs="+",
                        help="center field files (default: rebuild the net)")
    p_cert.add_argument("--c-net", type=float, help="certificate constant")
    common(p_cert)

    p_nec = sub.add_parser("necessity", help="necessity-direction table")
    p_nec.add_argument("--epsilons", type=float, nargs="+", default=[0.2, 0.1, 0.05])
    common(p_nec)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _set_thread_cap(args.threads)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # toolkit and file errors -> exit 1 with a message
        from .errors import MwlpError

        if isinstance(exc, (MwlpError, OSError)):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        raise


def _dispatch(args) -> int:
    from . import scenario as sc_mod

    t0 = time.perf_counter()
    if args.command == "run":
        sc = sc_mod.from_file(args.scenario)
    elif args.command == "verify-lemmas":
        raw = sc_mod.default_scenario("verify-lemmas")
        raw["task"]["count"] = args.count
        if args.weight_file:
            raw["task"]["weight_file"] = args.weight_file
        sc = sc_mod.validate(raw, source="<verify-lemmas>")
    else:
        raw = sc_mod.default_scenario(args.command)
        _apply_flag_overrides(raw, args)
        sc = sc_mod.validate(raw, source=f"<{args.command}>")
    if getattr(args, "seed", None) is not None:
        sc.raw["seed"] = args.seed
        sc.seed = args.seed
    if args.threads:
        sc.threads = args.threads

    outputs, code = run_scenario(sc)
    elapsed = time.perf_counter() - t0

    from . import __version__, report as report_mod

    rep = report_mod.assemble(sc, outputs, __version__)
    if args.timings:
        rep["timings"] = {"wall_seconds": elapsed}
    text = report_mod.render(rep)
    if args.out:
        report_mod.write_report(args.out, rep)
        stem = os.path.splitext(args.out)[0]
        for name, curve in report_mod.collect_curves(outputs):
            safe = name.replace(".", "_")
            report_mod.write_curve_csv(f"{stem}.{safe}.csv", curve)
    else:
        sys.stdout.write(text)
    print(f"{sc.task_name}: {'pass' if code == 0 else 'FAIL' if code == 2 else 'error'} "
          f"({elapsed:.2f}s)", file=sys.stderr)
    return code


def _apply_flag_overrides(raw: dict, args) -> None:
    task = raw["task"]
    name = args.command
    if name == "ap-constant":
        task["p"] = args.p
        task["cubes"] = args.cubes
        if args.alpha:
            raw["weight"]["alpha"] = list(args.alpha)
        if args.N:
            raw["grid"]["N"] = args.N
    elif name == "john":
        task["d"] = args.d
        task["norm"] = {"kind": "lq", "q": (float("inf") if args.q < 0 else args.q)}
    elif name == "norm":
        raw["exponent"] = {"kind": "constant", "p": args.p}
    elif name == "moduli":
        task["notion"] = args.notion
    elif name == "net":
        task["epsilon"] = args.epsilon
        task["route"] = args.route
        if args.save_centers:
            task["save_centers"] = args.save_centers
    elif name == "certify":
        task["epsilon"] = args.epsilon
        task["route"] = args.route
        if args.centers:
            task["centers"] = list(args.centers)
        if args.c_net is not None:
            task["c_net"] = args.c_net
    elif name == "necessity":
        task["epsilons"] = list(args.epsilons)


# ---------------------------------------------------------------------------
# task runners


def run_scenario(sc) -> tuple[dict, int]:
    """Execute the scenario's task; returns (outputs, exit_code)."""
    import numpy as np

    from . import scenario as sc_mod

    rng = np.random.default_rng(sc.seed)
    name = sc.task_name
    runner = {
        "ap-constant": _task_ap_constant,
        "john": _task_john,
        "norm": _task_norm,
        "moduli": _task_moduli,
        "net": _task_net,
        "certify": _task_certify,
        "necessity": _task_necessity,
        "verify-lemmas": _task_verify_lemmas,
    }[name]
    return runner(sc, sc_mod, rng)


def _task_ap_constant(sc, sc_mod, rng) -> tuple[dict, int]:
    from .weight_fields import CubeFamily, ap_constant

    grid = sc_mod.build_grid(sc)
    w = sc_mod.build_weight(sc, grid)
    p = float(sc.task.get("p", sc_mod.constant_p(sc) or 2.0))
    fam_kind = sc.task.get("cubes", "default")
    cubes = CubeFamily.dense_dyadic(grid) if fam_kind == "dense" else CubeFamily.default(grid)
    value = ap_constant(w, p, cubes)
    return {"value": value, "p": p, "cube_family": cubes.description,
            "num_cubes": len(cubes)}, 0


def _task_john(sc, sc_mod, rng) -> tuple[dict, int]:
    import numpy as np

    from .spaces import john_ellipsoid

    spec = sc.task.get("norm", {"kind": "lq", "q": 1.0})
    d = int(sc.task.get("d", 2))
    q = float(spec.get("q", 1.0))
    if np.isinf(q):
        rho = lambda v: np.max(np.abs(v), axis=1)
        label = "linf"
    else:
        rho = lambda v: np.sum(np.abs(v) ** q, axis=1) ** (1 / q)
        label = f"l{q}"
    w = john_ellipsoid(rho, d, rng=rng)
    count = int(sc.task.get("test_vectors", 1000))
    vt = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    rv = rho(vt)
    wv = np.linalg.norm(vt @ w.T, axis=1)
    left = float(np.min(wv / rv))
    right = float(np.max(wv / (np.sqrt(d) * rv)))
    passed = left >= 1.0 - 1e-9 and right <= 1.05 * (1 + 1e-9)
    return {"norm": label, "d": d, "matrix": w,
            "left_ratio_min": left, "right_ratio_max": right,
            "target": "rho(v) <= |Wv| <= sqrt(d)*1.05*rho(v)",
            "passed": passed}, 0 if passed else 2


def _setup(sc, sc_mod, rng, constant_exponent: bool = True):
    """Weight, measure, family and exponent of a scenario on its grid.

    Returns (w, mu, family, p, pf): p is the constant exponent, or None with
    pf the exponent field when it varies, which tasks that need a constant
    exponent reject with a SchemaError.
    """
    from .errors import SchemaError

    p = sc_mod.constant_p(sc)
    if p is None and constant_exponent:
        raise SchemaError(f"exponent: the {sc.task_name} task needs a constant exponent")
    grid = sc_mod.build_grid(sc)
    w = sc_mod.build_weight(sc, grid)
    mu = sc_mod.build_measure(sc, grid)
    family = sc_mod.build_family(sc, grid, rng)
    pf = None if p is not None else sc_mod.build_exponent(sc, grid)
    return w, mu, family, p, pf


def _task_norm(sc, sc_mod, rng) -> tuple[dict, int]:
    from .spaces import NormFamily, lp_w_norm, luxemburg_norm

    w, mu, family, p, pf = _setup(sc, sc_mod, rng, constant_exponent=False)
    if p is None:
        # variable exponent: derive the norm family from the weight at the
        # exponent ceiling (the integrability assumption is on p_+)
        rho = NormFamily.from_matrix_weight(w, pf.p_plus)
        values = [luxemburg_norm(f, rho, pf) for f in family]
        kind = "luxemburg"
    else:
        values = [lp_w_norm(f, w, p, mu) for f in family]
        kind = f"L^{p}(W{', mu' if mu else ''})"
    return {"norm": kind, "values": values, "family": family.metadata}, 0


def _task_moduli(sc, sc_mod, rng) -> tuple[dict, int]:
    from .compactness import moduli_report
    from .spaces import NormFamily, Space

    w, mu, family, p, pf = _setup(sc, sc_mod, rng, constant_exponent=False)
    if p is None:
        space = Space.variable(NormFamily.from_matrix_weight(w, pf.p_plus), pf)
    else:
        space = Space.matrix_weight(w, p, mu)
    notion = sc.task.get("notion", "translation")
    rep = moduli_report(family, space, notion=notion, weight=w, p=p)
    return rep.as_dict(), 0


def _build_net(sc, w, mu, family, p):
    """The task's net, built and self-certified by its route's builder."""
    from .compactness import build_net_average, build_net_dyadic
    from .spaces import Space

    eps = float(sc.task.get("epsilon", 0.1))
    if sc.task.get("route", "dyadic") == "average":
        return build_net_average(family, eps, w, mu, p)
    return build_net_dyadic(family, eps, Space.matrix_weight(w, p, mu),
                            notion=sc.task.get("notion", "translation"), weight=w)


def _task_net(sc, sc_mod, rng) -> tuple[dict, int]:
    w, mu, family, p, _ = _setup(sc, sc_mod, rng)
    net = _build_net(sc, w, mu, family, p)
    out = {
        "route": net.route, "epsilon": net.epsilon, "net_size": net.size,
        "c_net": net.c_net, "params": net.params,
        "certificate": net.certificate.as_dict(), "family": family.metadata,
        "space": net.space_label,
    }
    save_dir = sc.task.get("save_centers")
    if save_dir:
        from pathlib import Path

        from . import fieldio

        Path(save_dir).mkdir(parents=True, exist_ok=True)
        paths = []
        for i, c in enumerate(net.centers):
            path = Path(save_dir) / f"center_{i:03d}.txt"
            fieldio.save_field(path, c)
            paths.append(str(path))
        out["center_files"] = paths
    return out, 0


def _task_certify(sc, sc_mod, rng) -> tuple[dict, int]:
    """Recheck loaded centers from scratch, or report a rebuilt net's certificate."""
    w, mu, family, p, _ = _setup(sc, sc_mod, rng)
    center_paths = sc.task.get("centers")
    if center_paths:
        from . import fieldio
        from .compactness import EpsilonNet, certify_net
        from .spaces import Space

        space = Space.matrix_weight(w, p, mu)
        centers = [fieldio.load_field(cp) for cp in center_paths]
        net = EpsilonNet(epsilon=float(sc.task.get("epsilon", 0.1)), centers=centers,
                         assignment=[0] * len(family), distances=[],
                         c_net=float(sc.task.get("c_net", 1.0)), route="external",
                         space_label=space.label)
        cert = certify_net(family, net, space)
    else:
        net = _build_net(sc, w, mu, family, p)
        cert = net.certificate
    out = {"epsilon": net.epsilon, "net_size": net.size, "c_net": net.c_net,
           "route": net.route, "certificate": cert.as_dict()}
    return out, 0 if cert.passed else 2


def _task_necessity(sc, sc_mod, rng) -> tuple[dict, int]:
    from .compactness import necessity_check

    w, mu, family, p, _ = _setup(sc, sc_mod, rng)
    epsilons = [float(e) for e in sc.task.get("epsilons", [0.2, 0.1, 0.05])]
    ap_value = sc.task.get("ap_value")
    rep = necessity_check(family, epsilons, w, p, mu=mu,
                          ap_value=None if ap_value is None else float(ap_value))
    return rep.as_dict(), 0 if rep.passed else 2


def _task_verify_lemmas(sc, sc_mod, rng) -> tuple[dict, int]:
    from .verify import verify_lemmas

    count = int(sc.task.get("count", 25))
    weight_file = sc.task.get("weight_file")
    out = verify_lemmas(sc.seed, count, weight_file=weight_file)
    return out, 0 if out["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
