"""Scenario schema, report determinism and CLI exit codes."""

import argparse
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from mwlp import cli, fieldio
from mwlp.cli import main
from mwlp.errors import SchemaError
from mwlp.grids import Grid
from mwlp.scenario import default_scenario, from_file, validate
from mwlp.spaces import ExponentField, SampledVectorField
from mwlp.weight_fields import MeasureDensity


SHORTHANDS = ("ap-constant", "john", "norm", "moduli", "net", "certify", "necessity",
              "verify-lemmas")

SMALL_SCENARIO = """\
seed: 7
grid: {n: 1, L: 1.0, N: 256}
weight: {kind: power, alpha: [0.5]}
task: {name: ap-constant, p: 2.0, cubes: default}
"""


def write_scenario(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSchema:
    def test_small_scenario_parses(self, tmp_path):
        sc = from_file(write_scenario(tmp_path, SMALL_SCENARIO))
        assert sc.seed == 7
        assert sc.task_name == "ap-constant"

    def test_missing_task_rejected(self):
        with pytest.raises(SchemaError, match="task"):
            validate({"seed": 1})

    def test_unknown_task_rejected(self):
        with pytest.raises(SchemaError, match="task.name"):
            validate({"task": {"name": "bogus"}})

    def test_bad_grid_rejected(self):
        with pytest.raises(SchemaError, match="grid.N"):
            validate({"grid": {"n": 1, "L": 1.0, "N": 100},
                      "task": {"name": "norm"}})

    def test_unknown_weight_kind_named_in_error(self):
        with pytest.raises(SchemaError, match="weight.kind"):
            validate({"weight": {"kind": "mystery"}, "task": {"name": "norm"}})

    def test_yaml_parse_error_reports_line(self, tmp_path):
        path = write_scenario(tmp_path, "task: {name: norm\n  oops")
        with pytest.raises(SchemaError, match="line"):
            from_file(path)

    def test_defaults_exist_for_all_shorthands(self):
        for name in SHORTHANDS:
            sc = validate(default_scenario(name))
            assert sc.task_name == name

    def test_default_task_sections(self):
        # the task keys each shorthand's report echoes
        assert {name: default_scenario(name)["task"] for name in SHORTHANDS} == {
            "ap-constant": {"name": "ap-constant", "p": 2.0, "cubes": "default"},
            "john": {"name": "john", "d": 2, "norm": {"kind": "lq", "q": 1.0},
                     "test_vectors": 1000},
            "norm": {"name": "norm", "norm": "matrix"},
            "moduli": {"name": "moduli", "notion": "translation"},
            "net": {"name": "net", "epsilon": 0.1, "route": "dyadic"},
            "certify": {"name": "certify", "epsilon": 0.1, "route": "dyadic"},
            "necessity": {"name": "necessity", "epsilons": [0.2, 0.1, 0.05]},
            "verify-lemmas": {"name": "verify-lemmas", "count": 25},
        }

    @pytest.mark.parametrize("task, field", [
        ({"name": "net", "route": "average", "notion": "bogus"}, "task.notion"),
        ({"name": "ap-constant", "cubes": "dens"}, "task.cubes"),
        ({"name": "norm", "norm": "lq"}, "task.norm")])
    def test_validate_checks_enumerated_values(self, task, field):
        with pytest.raises(SchemaError, match=f"{field}:"):
            validate({"task": task})

    def test_threads_key_rejected(self):
        with pytest.raises(SchemaError, match="threads"):
            validate(dict(default_scenario("norm"), threads=2))


class TestCliRuns:
    def test_run_scenario_file(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "report.json"
        code = main(["run", str(path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "mwlp-report/1"
        assert report["task"] == "ap-constant"
        assert report["outputs"]["value"] > 1.0
        assert "cube_family" in report["outputs"]

    def test_reports_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, SMALL_SCENARIO)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["run", str(path), "--out", str(out1)]) == 0
        assert main(["run", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_reparses_under_schema(self, tmp_path):
        path = write_scenario(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "r.json"
        main(["run", str(path), "--out", str(out)])
        report = json.loads(out.read_text())
        # the scenario echo itself re-validates
        sc = validate(report["scenario"])
        assert sc.task_name == report["task"]
        assert report["provenance"]["seed"] == sc.seed

    def test_norm_task_zero_field(self, tmp_path):
        g = Grid(1, 1.0, 64)
        fpath = tmp_path / "zero.txt"
        fieldio.save_field(fpath, SampledVectorField.zero(g, 1))
        scenario = f"""\
seed: 1
grid: {{n: 1, L: 1.0, N: 64}}
weight: {{kind: identity, d: 1}}
family: {{kind: files, paths: ['{fpath}']}}
task: {{name: norm}}
"""
        out = tmp_path / "r.json"
        code = main(["run", str(write_scenario(tmp_path, scenario)), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["outputs"]["values"] == [0.0]

    def test_identity_weight_ap_is_one(self, tmp_path):
        scenario = """\
seed: 1
grid: {n: 1, L: 1.0, N: 64}
weight: {kind: identity, d: 2}
task: {name: ap-constant, p: 2.0}
"""
        out = tmp_path / "r.json"
        main(["run", str(write_scenario(tmp_path, scenario)), "--out", str(out)])
        assert json.loads(out.read_text())["outputs"]["value"] == pytest.approx(1.0)

    def test_bad_scenario_exits_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "seed: 1\ntask: {name: nonsense}\n")
        assert main(["run", str(path)]) == 1
        assert "task.name" in capsys.readouterr().err

    def test_net_and_certify_small(self, tmp_path):
        scenario = """\
seed: 11
grid: {n: 1, L: 2.0, N: 256}
weight: {kind: power, alpha: [0.5], rotation: {kind: none}}
family: {kind: gaussian_bumps, count: 6, d: 1, center_range: [-0.4, 0.4],
         width_range: [0.2, 0.4]}
task: {name: net, epsilon: 0.2, route: dyadic}
"""
        out = tmp_path / "net.json"
        code = main(["run", str(write_scenario(tmp_path, scenario)), "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["outputs"]["certificate"]["passed"]
        assert rep["outputs"]["net_size"] <= 6

    def test_failing_certificate_exit_code(self, tmp_path):
        g = Grid(1, 2.0, 256)
        zero = tmp_path / "zero.txt"
        fieldio.save_field(zero, SampledVectorField.zero(g, 1))
        scenario = f"""\
seed: 11
grid: {{n: 1, L: 2.0, N: 256}}
weight: {{kind: identity, d: 1}}
family: {{kind: gaussian_bumps, count: 3, d: 1, center_range: [-0.3, 0.3],
         width_range: [0.2, 0.4], amplitude_range: [0.9, 1.0]}}
task: {{name: certify, epsilon: 0.05, c_net: 1.0, centers: ['{zero}']}}
"""
        code = main(["run", str(write_scenario(tmp_path, scenario))])
        assert code == 2

    @pytest.mark.parametrize("route", ["dyadic", "average"])
    def test_self_certification_failure_exits_one(self, tmp_path, capsys, monkeypatch, route):
        from mwlp import compactness

        def failing(family, net, space, epsilon=None, c_net=None):
            return compactness.Certificate(passed=False, worst_member=0, worst_distance=1.0,
                                           threshold=0.5, distances=[1.0])

        monkeypatch.setattr(compactness, "certify_net", failing)
        scenario = f"""\
seed: 11
grid: {{n: 1, L: 2.0, N: 256}}
weight: {{kind: power, alpha: [0.5], rotation: {{kind: none}}}}
family: {{kind: gaussian_bumps, count: 4, d: 1, center_range: [-0.4, 0.4],
         width_range: [0.2, 0.4]}}
task: {{name: net, epsilon: 0.2, route: {route}}}
"""
        assert main(["run", str(write_scenario(tmp_path, scenario))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: freshly built {route} net failed its own certificate")

    @pytest.mark.parametrize("task, route", [("net", "dyadic"), ("net", "average"),
                                             ("certify", "dyadic")])
    def test_each_net_certified_once(self, tmp_path, monkeypatch, task, route):
        from mwlp import compactness

        calls = []
        original = compactness.certify_net

        def counted(family, net, space):
            calls.append(net)
            return original(family, net, space)

        monkeypatch.setattr(compactness, "certify_net", counted)
        scenario = f"""\
seed: 11
grid: {{n: 1, L: 2.0, N: 256}}
weight: {{kind: power, alpha: [0.5], rotation: {{kind: none}}}}
family: {{kind: gaussian_bumps, count: 4, d: 1, center_range: [-0.4, 0.4],
         width_range: [0.2, 0.4]}}
task: {{name: {task}, epsilon: 0.2, route: {route}}}
"""
        out = tmp_path / "r.json"
        assert main(["run", str(write_scenario(tmp_path, scenario)), "--out", str(out)]) == 0
        assert len(calls) == 1
        rep = json.loads(out.read_text())["outputs"]
        assert rep["certificate"] == calls[0].certificate.as_dict()

    def test_certify_honours_notion(self, tmp_path, monkeypatch):
        from mwlp import compactness

        notions = []
        original = compactness.build_net_dyadic

        def recording(*args, **kwargs):
            notions.append(kwargs.get("notion"))
            return original(*args, **kwargs)

        monkeypatch.setattr(compactness, "build_net_dyadic", recording)
        scenario = """\
seed: 11
grid: {n: 1, L: 2.0, N: 256}
weight: {kind: power, alpha: [0.5, 0.25], rotation: {kind: linear, rate: 1.0}}
family: {kind: gaussian_bumps, count: 4, d: 2, center_range: [-0.4, 0.4],
         width_range: [0.2, 0.4]}
task: {name: certify, epsilon: 0.2, route: dyadic, notion: twisted}
"""
        assert main(["run", str(write_scenario(tmp_path, scenario))]) == 0
        assert notions == ["twisted"]

    @pytest.mark.parametrize("task", [
        "{name: net, route: dyadic}", "{name: net, route: average}",
        "{name: certify}", "{name: necessity}", "{name: moduli, notion: twisted}"])
    def test_variable_exponent_needs_constant_exponent(self, tmp_path, capsys, task):
        g = Grid(1, 2.0, 64)
        exponent = tmp_path / "exponent.txt"
        fieldio.save_field(exponent, ExponentField(g, 1.5 + 0.5 * np.abs(g.points[:, 0])))
        scenario = f"""\
seed: 11
grid: {{n: 1, L: 2.0, N: 64}}
weight: {{kind: power, alpha: [0.5]}}
exponent: {{kind: file, path: '{exponent}'}}
family: {{kind: gaussian_bumps, count: 3, d: 1, center_range: [-0.4, 0.4],
         width_range: [0.2, 0.4]}}
task: {task}
"""
        assert main(["run", str(write_scenario(tmp_path, scenario))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "exponent" in err[0]

    @pytest.mark.parametrize("task", ["{name: net, epsilon: 0.2, route: average}",
                                      "{name: necessity}"])
    def test_space_label_names_the_density(self, tmp_path, task):
        g = Grid(1, 2.0, 256)
        density = tmp_path / "density.txt"
        fieldio.save_field(density, MeasureDensity(g, 1.0 + g.points[:, 0] ** 2 / 2))
        labels = []
        for measure in ("{kind: lebesgue}", f"{{kind: file, path: '{density}'}}"):
            scenario = f"""\
seed: 11
grid: {{n: 1, L: 2.0, N: 256}}
weight: {{kind: power, alpha: [0.5], rotation: {{kind: none}}}}
measure: {measure}
family: {{kind: gaussian_bumps, count: 4, d: 1, center_range: [-0.4, 0.4],
         width_range: [0.2, 0.4]}}
task: {task}
"""
            out = tmp_path / "r.json"
            assert main(["run", str(write_scenario(tmp_path, scenario)), "--out", str(out)]) == 0
            labels.append(json.loads(out.read_text())["outputs"]["space"])
        assert labels == ["L^2.0(W)", "L^2.0(W, mu)"]

    def test_truncated_center_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "center.txt"
        fieldio.save_field(path, SampledVectorField.zero(Grid(1, 8.0, 64), 2))
        path.write_text("\n".join(path.read_text().splitlines()[:-5]) + "\n")
        assert main(["certify", "--centers", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: expected 64 rows, found 59"]

    def test_verify_lemmas_count_zero_empty_pass(self, tmp_path):
        out = tmp_path / "vl.json"
        code = main(["verify-lemmas", "--count", "0", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["outputs"]["suites"] == []
        assert rep["outputs"]["passed"] is True

    def test_corrupted_weight_file_surfaces_not_psd(self, tmp_path):
        # hand-write a field file with a negative eigenvalue
        g = Grid(1, 1.0, 8)
        lines = ["mwfield 1", "kind matrix", "n 1", "L 1.0", "N 8", "d 1",
                 "invertible 0"] + ["-1.0 0.0"] * 8
        bad = tmp_path / "bad_weight.txt"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "vl.json"
        code = main(["verify-lemmas", "--count", "0", "--weight-file", str(bad),
                     "--out", str(out)])
        assert code == 0  # failures of the file check are report content
        rep = json.loads(out.read_text())
        check = rep["outputs"]["weight_file_check"]
        assert check["loaded"] is False
        assert "NotPSD" in check["error"]

    def test_moduli_csv_export(self, tmp_path):
        scenario = """\
seed: 3
grid: {n: 1, L: 2.0, N: 256}
weight: {kind: power, alpha: [0.5]}
family: {kind: gaussian_bumps, count: 4, d: 1, center_range: [-0.4, 0.4],
         width_range: [0.2, 0.4]}
task: {name: moduli, notion: translation}
"""
        out = tmp_path / "moduli.json"
        code = main(["run", str(write_scenario(tmp_path, scenario)), "--out", str(out)])
        assert code == 0
        csvs = sorted(tmp_path.glob("moduli.*.csv"))
        assert len(csvs) == 2  # tail and equicontinuity curves
        header = csvs[0].read_text().splitlines()[0]
        assert header == "scale,value"

    def test_timings_flag_embeds_wall_clock(self, tmp_path):
        path = write_scenario(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "r.json"
        main(["run", str(path), "--out", str(out), "--timings"])
        rep = json.loads(out.read_text())
        assert rep["timings"]["wall_seconds"] > 0

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 1
        assert "error" in capsys.readouterr().err


    def test_verify_lemmas_small_count_passes(self, tmp_path):
        out = tmp_path / "vl.json"
        assert main(["verify-lemmas", "--count", "3", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["outputs"]["passed"] is True
        assert len(rep["outputs"]["suites"]) == 8

    def test_default_net_shorthand(self, tmp_path):
        # the documented default scenario: the 40-bump family
        out = tmp_path / "net.json"
        code = main(["net", "--epsilon", "0.1", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["outputs"]["net_size"] <= 40
        assert rep["outputs"]["certificate"]["passed"]


class TestExitCodes:
    """The README's exit codes: 2 when the check a command decides on fails,
    1 with a one-line `error:` message when a net fails its own certificate."""

    NECESSITY = """\
seed: 11
grid: {n: 1, L: 2.0, N: 256}
weight: {kind: power, alpha: [0.5], rotation: {kind: none}}
family: {kind: gaussian_bumps, count: 4, d: 1, center_range: [-0.4, 0.4],
         width_range: [0.2, 0.4]}
task: {name: necessity, epsilons: [0.2]}
"""

    def _outputs(self, out):
        return json.loads(out.read_text())["outputs"]

    def test_necessity_failure_exits_two(self, tmp_path, monkeypatch):
        import dataclasses

        from mwlp import compactness

        original = compactness.necessity_check
        monkeypatch.setattr(compactness, "necessity_check", lambda *args, **kwargs:
                            dataclasses.replace(original(*args, **kwargs), passed=False))
        out = tmp_path / "necessity.json"
        path = write_scenario(tmp_path, self.NECESSITY)
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert self._outputs(out)["passed"] is False

    def test_verify_lemmas_failure_exits_two(self, tmp_path, monkeypatch):
        from mwlp import verify

        monkeypatch.setattr(verify, "SUITES", (lambda rng, count: {"name": "forced",
                                                                   "passed": False},))
        out = tmp_path / "vl.json"
        assert main(["verify-lemmas", "--count", "1", "--out", str(out)]) == 2
        assert self._outputs(out)["suites"] == [{"name": "forced", "passed": False}]

    def test_john_sandwich_failure_exits_two(self, tmp_path, monkeypatch):
        from mwlp import spaces

        # half the fitted ellipsoid: |W v| >= rho(v) fails on every test vector
        original = spaces.john_ellipsoid
        monkeypatch.setattr(spaces, "john_ellipsoid",
                            lambda *args, **kwargs: 0.5 * original(*args, **kwargs))
        out = tmp_path / "john.json"
        assert main(["john", "--out", str(out)]) == 2
        rep = self._outputs(out)
        assert rep["passed"] is False
        assert rep["left_ratio_min"] < 1.0

    TASK = "{name: necessity, epsilons: [0.2]}"

    @pytest.mark.parametrize("old, new, field", [
        (TASK, "{name: net, notion: bogus}", "task.notion"),
        (TASK, "{name: moduli, notion: bogus}", "task.notion"),
        (TASK, "{name: net, route: bogus}", "task.route"),
        ("count: 4", "count: 0", "family.count"),
        (TASK, "{name: net, epsilonn: 0.3}", "task.epsilonn"),
        (TASK, "{name: net, epsilon: abc}", "task.epsilon"),
        (TASK, "{name: necessity, epsilons: 0.1}", "task.epsilons"),
        (TASK, "{name: necessity, epsilons: []}", "task.epsilons"),
        (TASK, "{name: ap-constant, cubes: dens}", "task.cubes"),
        (TASK, "{name: ap-constant, p: 0}", "task.p"),
        (TASK, "{name: john, d: 0}", "task.d"),
        (TASK, "{name: john, test_vectors: 0}", "task.test_vectors"),
        (TASK, "{name: john, norm: {kind: lq, q: 0}}", "task.norm.q"),
        (TASK, "{name: verify-lemmas, count: -1}", "task.count"),
        (TASK, "{name: moduli, extra: 1}", "task.extra"),
        (TASK, "{name: certify, centers: c0.txt}", "task.centers"),
    ], ids=["net-notion", "moduli-notion", "net-route", "family-count", "net-unknown-key",
            "net-epsilon-text", "necessity-epsilons-scalar", "necessity-epsilons-empty",
            "ap-cubes", "ap-p-zero", "john-d-zero", "john-test-vectors-zero", "john-q-zero",
            "verify-lemmas-count-negative", "moduli-unknown-key", "certify-centers-text"])
    def test_invalid_scenario_value_exits_one(self, tmp_path, capsys, old, new, field):
        path = write_scenario(tmp_path, self.NECESSITY.replace(old, new))
        assert main(["run", str(path)]) == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("error: ") and f"{field}:" in err

    @pytest.mark.parametrize("p, task", [(0.5, "{name: net, route: average}"),
                                         (1.0, "{name: necessity}")])
    def test_exponent_out_of_range_exits_one(self, tmp_path, capsys, p, task):
        text = self.NECESSITY.replace(self.TASK, task) + f"exponent: {{kind: constant, p: {p}}}\n"
        assert main(["run", str(write_scenario(tmp_path, text))]) == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("error: ") and "needs p" in err

    def test_self_certification_failure_in_certify_exits_one(self, tmp_path, capsys,
                                                             monkeypatch):
        from mwlp import compactness
        from mwlp.errors import SelfCertificationFailed

        def failing(*args, **kwargs):
            raise SelfCertificationFailed("freshly built dyadic net failed its own certificate")

        monkeypatch.setattr(compactness, "build_net_dyadic", failing)
        path = write_scenario(tmp_path, self.NECESSITY.replace(
            "{name: necessity, epsilons: [0.2]}", "{name: certify, epsilon: 0.2}"))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: freshly built dyadic net failed its own certificate"]


class TestShorthandFlags:
    """Each shorthand flag sets exactly the scenario path it names."""

    # (argv, scenario path, value) per flag; every shorthand also takes --seed.
    FLAGS = {
        "ap-constant": [(["--p", "0.5"], "task.p", 0.5),
                        (["--alpha", "0.5", "0.25"], "weight.alpha", [0.5, 0.25]),
                        (["--cubes", "dense"], "task.cubes", "dense"),
                        (["--N", "512"], "grid.N", 512)],
        "john": [(["--d", "3"], "task.d", 3), (["--q", "2"], "task.norm.q", 2.0),
                 (["--q", "-1"], "task.norm.q", float("inf"))],
        "norm": [(["--p", "1.5"], "exponent.p", 1.5)],
        "moduli": [(["--notion", "twisted"], "task.notion", "twisted")],
        "net": [(["--epsilon", "0.2"], "task.epsilon", 0.2),
                (["--route", "average"], "task.route", "average"),
                (["--save-centers", "centers"], "task.save_centers", "centers")],
        "certify": [(["--epsilon", "0.2"], "task.epsilon", 0.2),
                    (["--route", "average"], "task.route", "average"),
                    (["--centers", "c0.txt", "c1.txt"], "task.centers", ["c0.txt", "c1.txt"]),
                    (["--c-net", "2"], "task.c_net", 2.0)],
        "necessity": [(["--epsilons", "0.3", "0.1"], "task.epsilons", [0.3, 0.1])],
        "verify-lemmas": [(["--count", "3"], "task.count", 3),
                          (["--weight-file", "w.txt"], "task.weight_file", "w.txt")],
    }
    CASES = [(command, argv, path, value) for command, flags in FLAGS.items()
             for argv, path, value in flags + [(["--seed", "7"], "seed", 7)]]

    @staticmethod
    def scenario(argv):
        return cli._scenario(cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize("command", SHORTHANDS)
    def test_no_flags_echo_the_default_scenario(self, command):
        assert self.scenario([command]).raw == default_scenario(command)

    @pytest.mark.parametrize("command, argv, path, value", CASES,
                             ids=[f"{c}{' '.join([''] + a)}" for c, a, _, _ in CASES])
    def test_flag_sets_only_its_path(self, command, argv, path, value):
        expected = default_scenario(command)
        *sections, key = path.split(".")
        node = expected
        for section in sections:
            node = node[section]
        node[key] = value
        assert self.scenario([command, *argv]).raw == expected

    def test_seed_flag_sets_the_file_seed(self, tmp_path):
        path = write_scenario(tmp_path, SMALL_SCENARIO)
        sc = self.scenario(["run", str(path), "--seed", "9"])
        assert sc.raw == dict(from_file(path).raw, seed=9) and sc.seed == 9

    def test_every_flag_is_listed(self):
        [sub] = [a for a in cli._build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        for command in SHORTHANDS:
            paths = {a.dest for a in sub.choices[command]._actions
                     if a.option_strings and a.dest not in ("help", "out", "timings")}
            assert paths == {path for _, path, _ in self.FLAGS[command]} | {"seed"}

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line")[1].split("```sh")[1].split("```")[0]
        lines = [line for line in block.splitlines() if line.startswith("mwlp ")]
        assert len(lines) >= 8
        parser = cli._build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])
