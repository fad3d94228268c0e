"""Scenario schema, report determinism and CLI exit codes."""

import argparse
import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from mwlp import cli, fieldio, report
from mwlp.cli import main
from mwlp.errors import SchemaError
from mwlp.grids import Grid
from mwlp.scenario import (SECTION_PARAMS, build_family, build_grid, default_scenario, from_file,
                           validate)
from mwlp.spaces import ExponentField, SampledVectorField
from mwlp.weight_fields import MatrixWeightField, MeasureDensity

from conftest import zero_field

ROOT = Path(__file__).resolve().parents[1]

SHORTHANDS = ("ap-constant", "john", "norm", "moduli", "net", "certify", "necessity",
              "verify-lemmas")

SMALL_SCENARIO = """\
seed: 7
grid: {n: 1, L: 1.0, N: 256}
weight: {kind: power, alpha: [0.5]}
task: {name: ap-constant, p: 2.0, cubes: default}
"""


# anchors, aliases, a merge key and flow collections (not a valid scenario:
# extra_grid is not a section)
ANCHORED_SCENARIO = """\
seed: 11
grid: &grid {n: 1, L: 2.0, N: 64}
weight:
  kind: power
  alpha: [0.5, 0.25]
  rotation: {kind: linear, rate: 0.5}
family:
  kind: gaussian_bumps
  count: 3
  d: 2
  center_range: &range [0.5, 1.0]
  width_range: *range
task: {name: net, epsilon: 0.3}
extra_grid: {<<: *grid, N: 128}
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

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_c_and_python_loaders_give_equal_mappings(self, tmp_path):
        assert cli.scenario._LOADER is yaml.CSafeLoader
        texts = [yaml.safe_dump(default_scenario(name)) for name in SHORTHANDS]
        texts.append(ANCHORED_SCENARIO)
        for i, text in enumerate(texts):
            loaded = cli.scenario.load(write_scenario(tmp_path, text, f"s{i}.yaml"))
            assert loaded == yaml.load(text, Loader=yaml.CSafeLoader)
            assert loaded == yaml.load(text, Loader=yaml.SafeLoader)
            if i < len(SHORTHANDS):
                assert loaded == default_scenario(SHORTHANDS[i])
        # the anchored scenario, loaded last
        assert loaded["family"]["width_range"] == loaded["family"]["center_range"] == [0.5, 1.0]
        assert loaded["extra_grid"] == {"n": 1, "L": 2.0, "N": 128}

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

    def test_default_sections(self):
        # the other sections each shorthand's report echoes, and its provenance grid;
        # JSON text tells 8.0 from 8
        base = {"seed": 20260810, "grid": {"n": 1, "L": 8.0, "N": 4096},
                "weight": {"kind": "power", "alpha": [0.5, 0.3333333333333333],
                           "rotation": {"kind": "linear", "rate": 1.0}},
                "measure": {"kind": "lebesgue"}, "exponent": {"kind": "constant", "p": 2.0},
                "family": {"kind": "gaussian_bumps", "count": 40, "d": 2,
                           "center_range": [-1.0, 1.0], "width_range": [0.5, 1.0],
                           "amplitude_range": [0.3, 1.0]}}
        expected = dict.fromkeys(("norm", "moduli", "net", "certify", "necessity"), base)
        expected.update({"john": {"seed": 20260810}, "verify-lemmas": {"seed": 20260810},
                         "ap-constant": {"seed": 20260810, "grid": {"n": 1, "L": 1.0, "N": 4096},
                                         "weight": {"kind": "power", "alpha": [0.5]}}})
        for name in SHORTHANDS:
            raw = default_scenario(name)
            echo = {key: value for key, value in raw.items() if key != "task"}
            assert json.dumps(echo, sort_keys=True) == json.dumps(expected[name], sort_keys=True)
            grid = report.assemble(validate(raw), {}, "v")["provenance"]["grid"]
            assert json.dumps(grid) == json.dumps(expected[name].get("grid"))

    def test_provenance_grid_length_is_a_float(self):
        raw = dict(default_scenario("norm"), grid={"n": 1, "L": 8, "N": 4096})
        rep = report.assemble(validate(raw), {}, "v")
        assert json.dumps(rep["provenance"]["grid"], sort_keys=True) == \
            '{"L": 8.0, "N": 4096, "n": 1}'
        assert json.dumps(rep["scenario"]["grid"]) == '{"n": 1, "L": 8, "N": 4096}'

    def test_integer_family_ranges_keep_their_metadata(self):
        raw = dict(default_scenario("norm"), grid={"n": 1, "L": 2.0, "N": 64},
                   family={"kind": "gaussian_bumps", "count": 2, "d": 1,
                           "center_range": [-1, 1], "width_range": [1, 2]})
        sc = validate(raw)
        family = build_family(sc, build_grid(sc), np.random.default_rng(0))
        assert family.metadata == ("Gaussian bumps, 2 members, d=1, centers in [-1, 1], "
                                   "widths in [1, 2], amplitudes in [0.3, 1.0]")

    def test_readme_section_table_names_every_key(self):
        # rows of README's section table: (section, kind, key), blank cells continuing
        # the row above; a kind without keys has one row with no key
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("## Scenario schema")[1].split("| section |")[1].split("\n\n")[0]
        named, section, kind = set(), None, None
        for line in table.splitlines()[2:]:
            cells = [cell.strip().strip("`") for cell in line.split("|")[1:4]]
            if cells[0]:
                section, kind = cells[0], None
            kind = cells[1] or kind
            named.add((section, kind, cells[2] or None))
        assert named == {(section, kind, key) for section, kinds in SECTION_PARAMS.items()
                         for kind, params in kinds.items() for key in params or [None]}

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

    def test_john_above_the_matrix_dimension_limit(self, tmp_path):
        # the fit takes its square root from the batched kernel, which has no
        # MAX_DIM check, so d = 9 runs like any other dimension
        out = tmp_path / "john.json"
        assert main(["john", "--d", "9", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())["outputs"]
        assert rep["d"] == 9 and rep["passed"] is True

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
        fieldio.save_field(fpath, zero_field(g, 1))
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
        fieldio.save_field(zero, zero_field(g, 1))
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
                                           threshold=0.5, per_member_distance=[1.0])

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
        assert rep["certificate"] == dataclasses.asdict(calls[0].certificate)

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
        fieldio.save_field(path, zero_field(Grid(1, 8.0, 64), 2))
        path.write_text("\n".join(path.read_text().splitlines()[:-5]) + "\n")
        assert main(["certify", "--centers", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: task.centers[0]: {path}: expected 64 rows, found 59"]

    @pytest.mark.parametrize("field, message", [
        (MatrixWeightField.constant(Grid(1, 8.0, 4096), np.eye(2), invertible=True),
         "{path} does not contain a SampledVectorField"),
        (MeasureDensity.lebesgue(Grid(1, 8.0, 4096)),
         "{path} does not contain a SampledVectorField"),
        (zero_field(Grid(1, 8.0, 64), 2),
         "the grid of {path} does not match the scenario grid"),
        (zero_field(Grid(1, 8.0, 4096), 3),
         "{path} has dimension 3, the family 2"),
    ], ids=["matrix", "density", "another-grid", "another-d"])
    def test_center_file_of_another_kind_exits_one(self, tmp_path, capsys, field, message):
        """Each center file is checked where it enters: one error line naming it."""
        path = tmp_path / "center.txt"
        fieldio.save_field(path, field)
        assert main(["certify", "--centers", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: task.centers[0]: {message.format(path=path)}"]

    def test_overflowing_distance_writes_one_error_line(self, tmp_path):
        """Finite member and center files whose difference overflows: stderr
        holds the one error line and no numpy warning.  Run in a fresh
        interpreter, since pytest records warnings instead of printing them."""
        g = Grid(1, 2.0, 64)
        member, center = tmp_path / "member.txt", tmp_path / "center.txt"
        fieldio.save_field(member, SampledVectorField(g, np.full((64, 2), 1e308)))
        fieldio.save_field(center, SampledVectorField(g, np.full((64, 2), -1e308)))
        path = write_scenario(tmp_path, f"""\
seed: 1
grid: {{n: 1, L: 2.0, N: 64}}
weight: {{kind: power, alpha: [0.5, 0.25]}}
family: {{kind: files, paths: ['{member}']}}
task: {{name: certify, epsilon: 0.2, centers: ['{center}']}}
""")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONWARNINGS", None)
        run = subprocess.run([sys.executable, "-m", "mwlp.cli", "run", str(path)],
                             capture_output=True, text=True, env=env, cwd=tmp_path)
        assert run.returncode == 1
        assert run.stderr.splitlines() == ["error: a measured size is nan: the values overflow"]

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
    WEIGHT = "{kind: power, alpha: [0.5], rotation: {kind: none}}"
    FAMILY = """{kind: gaussian_bumps, count: 4, d: 1, center_range: [-0.4, 0.4],
         width_range: [0.2, 0.4]}"""

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
        (WEIGHT, "{kind: identity, d: 0}", "weight.d"),
        (WEIGHT, "{kind: constant, entries: [[1, 2], [3]]}", "weight.entries"),
        (WEIGHT, "{kind: power, alpha: [0.5], invertible: maybe}", "weight.invertible"),
        (WEIGHT, "{kind: file, path: 3}", "weight.path"),
        (WEIGHT, "{kind: power, alpha: [0.5], rotaton: {kind: none}}", "weight.rotaton"),
        ("width_range: [0.2, 0.4]", "width_range: abc", "family.width_range"),
        ("center_range: [-0.4, 0.4]", "center_range: [1.0, -1.0]", "family.center_range"),
        ("center_range: [-0.4, 0.4]", "center_range: [1.0]", "family.center_range"),
        ("width_range: [0.2, 0.4]", "widht_range: [0.2, 0.4]", "family.widht_range"),
        (FAMILY, "{kind: files, paths: [1]}", "family.paths[0]"),
        ("seed: 11", "seed: 11\nmeasure: {kind: file, path: 2}", "measure.path"),
        ("N: 256}", "N: 256, M: 3}", "grid.M"),
        ("L: 2.0", "L: .inf", "grid.L"),
        ("seed: 11", "seed: -1", "seed"),
        (WEIGHT, "{kind: identity, d: 9}", "weight.d"),
        (WEIGHT, "{kind: constant, entries: [[.inf]]}", "weight.entries[0][0]"),
        (WEIGHT, "{kind: power, alpha: [0.5], rotation: {kind: linear}}", "weight.rotation"),
        (WEIGHT, "{kind: constant, entries: [[1, 2], [0, 1]]}", "weight.entries"),
        (WEIGHT, "{kind: constant, entries: [[1, 0], [0, -1]]}", "weight.entries"),
        (WEIGHT, "{kind: constant, entries: [[1, 0], [0, 0]]}", "weight.entries"),
        ("count: 4, d: 1", "count: 4, d: 3", "family.d"),
    ], ids=["net-notion", "moduli-notion", "net-route", "family-count", "net-unknown-key",
            "net-epsilon-text", "necessity-epsilons-scalar", "necessity-epsilons-empty",
            "ap-cubes", "ap-p-zero", "john-d-zero", "john-test-vectors-zero", "john-q-zero",
            "verify-lemmas-count-negative", "moduli-unknown-key", "certify-centers-text",
            "identity-d-zero", "constant-entries-ragged", "invertible-text", "weight-path-number",
            "weight-rotation-misspelled", "width-range-text", "center-range-reversed",
            "center-range-one-number", "width-range-misspelled", "family-paths-number",
            "measure-path-number", "grid-unknown-key", "grid-length-infinite", "seed-negative",
            "identity-d-above-max", "constant-entries-infinite", "rotation-one-exponent",
            "constant-entries-not-hermitian", "constant-entries-not-psd",
            "constant-entries-singular", "family-d-not-weight-d"])
    def test_invalid_scenario_value_exits_one(self, tmp_path, capsys, old, new, field):
        path = write_scenario(tmp_path, self.NECESSITY.replace(old, new))
        assert main(["run", str(path)]) == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("error: ") and f"{field}:" in err

    @pytest.mark.parametrize("task", ["{name: necessity}", "{name: moduli}", "{name: net}"])
    @pytest.mark.parametrize("files", [False, True], ids=["bumps", "files"])
    def test_family_dimension_not_the_weights_exits_one(self, tmp_path, capsys, task, files):
        family = "{kind: gaussian_bumps, count: 4, d: 3}"
        if files:
            member = tmp_path / "member.txt"
            fieldio.save_field(member, SampledVectorField(Grid(1, 2.0, 256), np.ones((256, 1))))
            family = f"{{kind: files, paths: ['{member}']}}"
        text = (self.NECESSITY.replace(self.TASK, task)
                .replace(self.WEIGHT, "{kind: power, alpha: [0.5, 0.25]}")
                .replace(self.FAMILY, family))
        assert main(["run", str(write_scenario(tmp_path, text))]) == 1
        [err] = capsys.readouterr().err.splitlines()
        key = "family.paths" if files else "family.d"
        assert err.startswith(f"error: {key}: ")

    @pytest.mark.parametrize("task", ["{name: ap-constant}", "{name: norm}"])
    def test_weight_file_on_another_grid_exits_one(self, tmp_path, capsys, task):
        weight = tmp_path / "weight.txt"
        field = MatrixWeightField.constant(Grid(1, 2.0, 64), [[1.0]], invertible=True)
        fieldio.save_field(weight, field)
        text = self.NECESSITY.replace(self.WEIGHT, f"{{kind: file, path: '{weight}'}}")
        assert main(["run", str(write_scenario(tmp_path, text.replace(self.TASK, task)))]) == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("error: weight.path: the grid of ")

    @pytest.mark.parametrize("section, kind, samples, message", [
        ("weight", "matrix", "-1.0 0.0", "eigenvalue -1.000e+00 below the PSD clamp band"),
        ("measure", "density", "-1.0", "density must be finite and non-negative"),
        ("weight", "matrix", "1.0 0.0 2.0", "every row must hold 2 numbers")])
    def test_rejected_field_file_names_its_field_and_file(self, tmp_path, capsys, section,
                                                          kind, samples, message):
        path = tmp_path / "field.txt"
        header = f"mwfield 1\nkind {kind}\nn 1\nL 2.0\nN 256\nd 1\ninvertible 0\n"
        path.write_text(header + f"{samples}\n" * 256)
        spec = f"{{kind: file, path: '{path}'}}"
        text = (self.NECESSITY.replace(self.WEIGHT, spec) if section == "weight"
                else self.NECESSITY + f"{section}: {spec}\n")
        assert main(["run", str(write_scenario(tmp_path, text))]) == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err == f"error: {section}.path: {path}: {message}"

    def test_dense_cubes_on_a_2d_grid_exits_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "{seed: 1, grid: {n: 2, L: 1.0, N: 16}, "
                                        "weight: {kind: power, alpha: [0.5]}, "
                                        "task: {name: ap-constant, cubes: dense}}\n")
        assert main(["run", str(path)]) == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err == "error: task.cubes: dense_dyadic scan is defined for n=1 grids"

    # a vector field file parses, but it holds no weight
    @pytest.mark.parametrize("kind, sample, error", [("matrix", "nan 0.0", "NonFinite"),
                                                     ("matrix", "-1.0 0.0", "NotPSD"),
                                                     ("matrix", "1.0", "MalformedField"),
                                                     ("vector", "1.0 0.0", "MalformedField")],
                             ids=["nan 0.0-NonFinite", "-1.0 0.0-NotPSD", "1.0-MalformedField",
                                  "vector-MalformedField"])
    def test_weight_file_check_names_the_rejecting_error(self, tmp_path, kind, sample, error):
        path = tmp_path / "w.txt"
        header = f"mwfield 1\nkind {kind}\nn 1\nL 2.0\nN 8\nd 1\ninvertible 0\n"
        path.write_text(header + f"{sample}\n" * 8)
        out = tmp_path / "vl.json"
        argv = ["verify-lemmas", "--count", "0", "--weight-file", str(path), "--out", str(out)]
        assert main(argv) == 0
        check = self._outputs(out)["weight_file_check"]
        assert not check["loaded"] and check["kind"] is None
        # every rejection names the file, the constructor's ones included
        assert check["error"].startswith(f"{error}: {path}")

    @pytest.mark.parametrize("kind, sample", [("matrix", "nan 0.0"), ("matrix", "-1.0 0.0"),
                                              ("matrix", "1.0"), ("vector", "1.0 0.0")],
                             ids=["non-finite", "not-psd", "short-row", "vector"])
    def test_weight_path_and_weight_file_give_one_message(self, tmp_path, capsys, kind, sample):
        """fieldio.load_field decides both: the scenario prefixes its field path,
        verify-lemmas the error class, and the message body is the same."""
        path = tmp_path / "w.txt"
        header = f"mwfield 1\nkind {kind}\nn 1\nL 2.0\nN 256\nd 1\ninvertible 0\n"
        path.write_text(header + f"{sample}\n" * 256)
        text = self.NECESSITY.replace(self.WEIGHT, f"{{kind: file, path: '{path}'}}")
        assert main(["run", str(write_scenario(tmp_path, text))]) == 1
        [err] = capsys.readouterr().err.splitlines()
        out = tmp_path / "vl.json"
        argv = ["verify-lemmas", "--count", "0", "--weight-file", str(path), "--out", str(out)]
        assert main(argv) == 0
        error_class, body = self._outputs(out)["weight_file_check"]["error"].split(": ", 1)
        assert body.startswith(str(path))
        assert err == f"error: weight.path: {body}"
        assert error_class in ("NonFinite", "NotPSD", "MalformedField")

    @pytest.mark.parametrize("argv, message", [
        (["net", "--epsilon", "abc"], "mwlp net: argument --epsilon: invalid float value: 'abc'"),
        (["net", "--bogus", "1"], "mwlp: unrecognized arguments: --bogus 1"),
        ([], "mwlp: the following arguments are required: command"),
    ], ids=["bad-value", "unknown-flag", "no-command"])
    def test_command_line_error_exits_one(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

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

    def test_reused_parser_keeps_no_state(self, tmp_path):
        """The parser is built once per process; a second in-process run sees
        none of the first run's flags, and --help still exits 0."""
        assert cli._build_parser() is cli._build_parser()
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["moduli", "--notion", "twisted", "--seed", "3", "--out", str(first)]) == 0
        assert main(["moduli", "--out", str(second)]) == 0
        assert json.loads(first.read_text())["scenario"]["task"]["notion"] == "twisted"
        echo = json.loads(second.read_text())["scenario"]
        assert echo["seed"] == default_scenario("moduli")["seed"] == 20260810
        assert echo["task"] == {"name": "moduli", "notion": "translation"}
        for argv in (["--help"], ["moduli", "--help"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 0

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line")[1].split("```sh")[1].split("```")[0]
        lines = [line for line in block.splitlines() if line.startswith("mwlp ")]
        assert len(lines) >= 8
        parser = cli._build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])
