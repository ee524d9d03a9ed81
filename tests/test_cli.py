"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import ExperimentSpec, optimum_total


def _write_spec(path, **fields):
    path.write_text(json.dumps(
        {"app": "hotelreservation", "workload": 400.0, "n_steps": 8,
         **fields}
    ))
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["describe", "--app", "nope"])

    def test_defaults(self):
        args = build_parser().parse_args(["describe"])
        assert args.app == "sockshop"
        assert args.plan is None

    def test_only_spec_era_commands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "{apps,describe,experiment,sweep,trace,serve,registry}" in out
        for retired in ("run", "optimum", "compare"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([retired])


class TestCommands:
    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("sockshop", "trainticket", "hotelreservation"):
            assert name in out

    def test_compare(self, tmp_path, capsys):
        """A Fig. 15 cell: ``experiment --compare`` on a PEMA spec."""
        spec = _write_spec(tmp_path / "cell.json")
        assert main(["experiment", "--spec", str(spec), "--compare"]) == 0
        out = capsys.readouterr().out
        assert "# hotelreservation @ 400 rps" in out
        for line in ("OPTM :", "PEMA :", "RULE :"):
            assert line in out
        assert "saves" in out

    def test_experiment_compare_rejects_non_pema(self, tmp_path, capsys):
        spec = _write_spec(tmp_path / "rule.json", autoscaler={"kind": "rule"})
        assert main(["experiment", "--spec", str(spec), "--compare"]) == 2
        assert "--compare needs a pema spec" in capsys.readouterr().err

    def test_optimum(self, tmp_path, capsys):
        """An OPTM allocation: a spec whose autoscaler kind is optimum."""
        spec = _write_spec(
            tmp_path / "optm.json", autoscaler={"kind": "optimum"}
        )
        out_file = tmp_path / "optm.artifact.json"
        assert main(
            ["experiment", "--spec", str(spec), "--out", str(out_file)]
        ) == 0
        assert "x optimum (analytical engine" in capsys.readouterr().out
        final = json.loads(out_file.read_text())["results"][0]["records"][-1]
        assert final["total_cpu"] == optimum_total("hotelreservation", 400.0)
        assert final["allocation"][0][0] == "frontend"

    def test_run(self, tmp_path, capsys):
        """A PEMA trajectory: ``experiment --out``, then ``trace --in``."""
        spec = _write_spec(
            tmp_path / "pema.json", capture=["decision_trace"]
        )
        out_file = tmp_path / "pema.artifact.json"
        assert main(
            ["experiment", "--spec", str(spec), "--out", str(out_file)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "--in", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# 8/8 decision record(s)")


class TestBadSpecFiles:
    """A spec file that does not load or run ends in an ``error:`` line."""

    @pytest.mark.parametrize(
        "rps, reason",
        [("NaN", "non-finite number NaN"),
         ("-Infinity", "non-finite number -Infinity"),
         ("1e999", "non-finite number 1e999"),
         ("-5", "rps must be >= 0"),
         ('"x"', "not supported between")],
    )
    @pytest.mark.parametrize("command", ["experiment", "serve"])
    def test_bad_rate_is_an_error_line(
        self, tmp_path, capsys, command, rps, reason
    ):
        spec = tmp_path / "bad.json"
        spec.write_text(
            '{"app": "hotelreservation", "n_steps": 4, "workload": '
            '{"kind": "constant", "params": {"rps": %s}}}' % rps
        )
        argv = [command, "--spec", str(spec)]
        if command == "serve":
            argv += ["--no-http"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: ")
        assert reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "rps, reason",
        [("NaN", "non-finite number NaN"), ("-5", "rps must be >= 0"),
         ("600.0", None)],
    )
    @pytest.mark.parametrize("worker", [False, True])
    def test_sweep_grid(self, tmp_path, capsys, rps, reason, worker):
        grid = tmp_path / "grid.json"
        grid.write_text(
            '{"name": "g", "base": {"app": "sockshop", "n_steps": 4, '
            '"workload": {"kind": "constant", "params": {"rps": 700.0}}}, '
            '"axes": [{"name": "rps", "path": "workload.params.rps", '
            '"values": [700.0, %s]}]}' % rps
        )
        argv = ["sweep", "--grid", str(grid)]
        if worker:
            argv += ["--cache", str(tmp_path / "cache"), "--worker"]
        status = main(argv)
        err = capsys.readouterr().err
        if reason is None:
            assert (status, err) == (0, "")
        else:
            assert status == 2
            assert err.startswith(f"error: {grid}: ")
            assert reason in err

    def test_nan_written_by_to_json_is_rejected_on_read(self):
        # A NaN spec is rejected where it is built, so to_json never
        # writes one; the text json.dumps would write is rejected on read.
        with pytest.raises(ValueError, match="workload.params.rps must be finite"):
            ExperimentSpec(app="sockshop", workload=float("nan"), n_steps=2)
        text = json.dumps(
            {"app": "sockshop", "workload": float("nan"), "n_steps": 2}
        )
        with pytest.raises(ValueError, match="non-finite number NaN"):
            ExperimentSpec.from_json(text)


class TestExperimentSpecs:
    @pytest.fixture
    def spec_dir(self, tmp_path):
        specs = tmp_path / "specs"
        specs.mkdir()
        for i, wl in enumerate((600.0, 700.0)):
            spec = ExperimentSpec(
                name=f"s{i}", app="sockshop", workload=wl, n_steps=4
            )
            (specs / f"s{i}.json").write_text(spec.to_json())
        return specs

    def test_single_file(self, spec_dir, tmp_path, capsys):
        out = tmp_path / "artifact.json"
        assert main(
            ["experiment", "--spec", str(spec_dir / "s0.json"),
             "--out", str(out)]
        ) == 0
        assert "# experiment s0" in capsys.readouterr().out
        assert json.loads(out.read_text())["spec"]["name"] == "s0"

    def test_directory_runs_every_spec(self, spec_dir, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(
            ["experiment", "--spec", str(spec_dir), "--out", str(out_dir)]
        ) == 0
        output = capsys.readouterr().out
        assert "# experiment s0" in output and "# experiment s1" in output
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "s0.artifact.json", "s1.artifact.json"
        ]

    def test_glob(self, spec_dir, capsys):
        assert main(["experiment", "--spec", str(spec_dir / "s*.json")]) == 0
        output = capsys.readouterr().out
        assert "# experiment s0" in output and "# experiment s1" in output

    def test_recursive_glob(self, spec_dir, tmp_path, capsys):
        nested = spec_dir / "deeper" / "down"
        nested.mkdir(parents=True)
        (spec_dir / "s0.json").rename(nested / "s0.json")
        assert main(
            ["experiment", "--spec", str(spec_dir / "**" / "*.json")]
        ) == 0
        output = capsys.readouterr().out
        assert "# experiment s0" in output and "# experiment s1" in output

    def test_out_stem_collisions_disambiguated(self, tmp_path, capsys):
        for sub, wl in (("a", 600.0), ("b", 700.0)):
            d = tmp_path / sub
            d.mkdir()
            spec = ExperimentSpec(
                name=sub, app="sockshop", workload=wl, n_steps=4
            )
            (d / "spec.json").write_text(spec.to_json())
        out_dir = tmp_path / "artifacts"
        assert main(
            ["experiment", "--spec", str(tmp_path / "*" / "spec.json"),
             "--out", str(out_dir)]
        ) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "spec-2.artifact.json", "spec.artifact.json"
        ]

    def test_out_conflicting_with_file_is_an_error(
        self, spec_dir, tmp_path, capsys
    ):
        clash = tmp_path / "summary.json"
        clash.write_text("{}")
        assert main(
            ["experiment", "--spec", str(spec_dir), "--out", str(clash)]
        ) == 2
        assert "must be a directory" in capsys.readouterr().err

    def test_no_match_is_an_error(self, spec_dir, capsys):
        assert main(
            ["experiment", "--spec", str(spec_dir / "nope*.json")]
        ) == 2
        assert "no spec files match" in capsys.readouterr().err

    def test_bad_spec_names_offending_file(self, spec_dir, capsys):
        (spec_dir / "s2.json").write_text('{"app": "sockshop"}')
        assert main(["experiment", "--spec", str(spec_dir)]) == 2
        err = capsys.readouterr().err
        assert "s2.json" in err


class TestRegistryCommand:
    def test_lists_every_registry_with_descriptions(self, capsys):
        assert main(["registry"]) == 0
        out = capsys.readouterr().out
        for group in ("engines", "autoscalers", "workloads", "hooks",
                      "drivers", "state-stores"):
            assert group in out
        for kind in ("analytical", "pema", "replay", "wikipedia", "set_slo",
                     "constant", "memory", "directory"):
            assert kind in out
        # Every entry carries a non-empty one-line description.
        from repro.experiments import AUTOSCALERS, ENGINES, HOOKS, WORKLOADS
        from repro.service import LOAD_DRIVERS, STATE_STORES

        for registry in (ENGINES, AUTOSCALERS, WORKLOADS, HOOKS,
                         LOAD_DRIVERS, STATE_STORES):
            for name, description in registry.entries():
                assert description, f"{registry.label}:{name} lacks a description"
                assert "\n" not in description
                assert description in out

    def test_kind_filter(self, capsys):
        assert main(["registry", "--kind", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "replay" in out
        assert "autoscalers" not in out

    def test_json_output(self, capsys):
        assert main(["registry", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workloads"]["replay"]
        assert data["autoscalers"]["workload_aware_pema"]
