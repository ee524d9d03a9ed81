"""Declarative experiment API: spec round-trip, registries, runner, hooks."""

import json
import re
from pathlib import Path

import pytest

from repro.experiments import (
    AUTOSCALERS,
    ENGINES,
    HOOKS,
    WORKLOADS,
    AutoscalerSpec,
    EngineSpec,
    ExperimentArtifact,
    ExperimentSpec,
    HookSpec,
    Registry,
    WorkloadSpec,
    derive_rule_spec,
    run_comparison,
    run_experiment,
    run_unit,
)
from repro.cli import main
from repro.sweeps import SweepGrid, SweepStore, run_sweep_cached
from repro.sweeps.store import canonical_key


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="t", app="sockshop", workload=700.0, n_steps=8, seed=0, repeats=2
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpec:
    def test_workload_shorthand(self):
        spec = small_spec()
        assert spec.workload == WorkloadSpec("constant", {"rps": 700.0})

    def test_mapping_coercion(self):
        spec = small_spec(
            workload={"kind": "constant", "params": {"rps": 5.0}},
            autoscaler={"kind": "rule"},
            engine={"kind": "analytical", "seed_offset": 7},
            hooks=[{"kind": "set_slo", "params": {"at": 2, "slo": 0.2}}],
        )
        assert spec.autoscaler == AutoscalerSpec("rule")
        assert spec.engine.seed_offset == 7
        assert spec.hooks == (HookSpec("set_slo", {"at": 2, "slo": 0.2}),)

    def test_json_round_trip(self):
        spec = small_spec(
            slo=0.3,
            hooks=(HookSpec("set_slo", {"at": 3, "slo": 0.2}),),
            autoscaler=AutoscalerSpec("pema", {"alpha": 0.4}),
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_dict_round_trip_defaults(self):
        spec = ExperimentSpec.from_dict(
            {"app": "sockshop", "workload": 10.0, "n_steps": 5}
        )
        assert spec.repeats == 1
        assert spec.engine == EngineSpec()
        assert spec.to_dict() == ExperimentSpec.from_dict(spec.to_dict()).to_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ExperimentSpec fields"):
            ExperimentSpec.from_dict(
                {"app": "sockshop", "workload": 1.0, "n_steps": 5, "nope": 1}
            )

    def test_missing_required_field(self):
        with pytest.raises(ValueError, match="needs 'n_steps'"):
            ExperimentSpec.from_dict({"app": "sockshop", "workload": 1.0})

    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(n_steps=0)
        with pytest.raises(ValueError):
            small_spec(repeats=0)
        with pytest.raises(ValueError):
            small_spec(interval=0.0)
        with pytest.raises(KeyError, match="unknown app"):
            small_spec(app="nope").validate()
        with pytest.raises(KeyError, match="unknown engine backend"):
            small_spec(engine=EngineSpec(kind="quantum")).validate()

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"workload": {"kind": "constant", "params": {"rps": float("nan")}}},
             "workload.params.rps"),
            ({"interval": float("inf")}, "interval"),
            ({"slo": float("nan")}, "slo"),
            ({"headroom": float("inf")}, "headroom"),
            ({"autoscaler": {"kind": "pema", "params": {"alpha": float("nan")}}},
             "autoscaler.params.alpha"),
            ({"engine": {"params": {"noise": {"sigma": float("-inf")}}}},
             "engine.params.noise.sigma"),
            ({"hooks": [{"kind": "set_slo",
                         "params": {"at": 2, "slo": float("nan")}}]},
             "hooks[0].params.slo"),
            ({"workload": {"kind": "replay", "params": {"segments": [
                {"hours": float("inf")}]}}},
             "workload.params.segments[0].hours"),
        ],
    )
    def test_non_finite_rejected(self, change, field):
        data = {"app": "sockshop", "workload": 700.0, "n_steps": 5, **change}
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be finite"):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"n_steps": "5"}, "n_steps"),
            ({"n_steps": True}, "n_steps"),
            ({"n_steps": 5.5}, "n_steps"),
            ({"seed": 1.5}, "seed"),
            ({"seed": "1"}, "seed"),
            ({"repeats": 1.5}, "repeats"),
            ({"repeats": False}, "repeats"),
            ({"engine": {"seed_offset": 2.5}}, "engine.seed_offset"),
            ({"engine": {"seed_offset": "2"}}, "engine.seed_offset"),
        ],
    )
    def test_integer_fields_not_truncated(self, change, field):
        data = {"app": "sockshop", "workload": 700.0, "n_steps": 5, **change}
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be an integer"):
            ExperimentSpec.from_dict(data)

    def test_integral_numbers_keep_their_key(self):
        plain = ExperimentSpec.from_dict(
            {"app": "sockshop", "workload": 700, "n_steps": 5, "interval": 60}
        )
        floats = ExperimentSpec.from_dict(
            {"app": "sockshop", "workload": 700.0, "n_steps": 5.0, "seed": 0.0,
             "repeats": 1.0, "interval": 60.0,
             "engine": {"seed_offset": 1000.0}}
        )
        assert plain.to_json() == floats.to_json()
        assert type(floats.n_steps) is int and type(floats.interval) is float
        assert type(floats.engine.seed_offset) is int
        assert canonical_key(SweepStore.unit_key(plain, 0)) == canonical_key(
            SweepStore.unit_key(floats, 0)
        )

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"interval": "60"}, "interval"),
            ({"interval": False}, "interval"),
            ({"headroom": True}, "headroom"),
            ({"headroom": "2"}, "headroom"),
            ({"slo": "0.2"}, "slo"),
            ({"slo": [0.2]}, "slo"),
        ],
    )
    def test_real_fields_reject_bool_and_str(self, change, field):
        data = {"app": "sockshop", "workload": 700.0, "n_steps": 5, **change}
        with pytest.raises(ValueError, match=rf"^{field} must be a real number"):
            ExperimentSpec.from_dict(data)
        with pytest.raises(ValueError, match=rf"^{field} must be a real number"):
            small_spec(**change)

    def test_real_fields_are_floats_with_one_key(self):
        """A Python-built spec with integral ``interval``, ``headroom`` and
        ``slo`` is the spec its JSON form decodes to: same floats, same
        canonical unit key."""
        built = ExperimentSpec(
            app="sockshop", workload=700.0, n_steps=5,
            interval=60, headroom=2, slo=1,
        )
        decoded = ExperimentSpec.from_json(
            '{"app": "sockshop", "workload": 700.0, "n_steps": 5, '
            '"interval": 60, "headroom": 2, "slo": 1}'
        )
        for spec in (built, decoded):
            assert (spec.interval, spec.headroom, spec.slo) == (60.0, 2.0, 1.0)
            assert {type(spec.interval), type(spec.headroom), type(spec.slo)} == {
                float
            }
        assert built == decoded
        assert canonical_key(SweepStore.unit_key(built, 0)) == canonical_key(
            SweepStore.unit_key(decoded, 0)
        )
        assert small_spec().slo is None

    def test_with_rechecks(self):
        with pytest.raises(ValueError, match="^interval must be finite"):
            small_spec().with_(interval=float("nan"))
        with pytest.raises(ValueError, match="^seed must be an integer"):
            small_spec().with_(seed=0.5)

    def test_cli_sweep_rejects_truncated_grid_before_any_entry(
        self, tmp_path, capsys
    ):
        grid = json.loads(Path("benchmarks/grids/ci_smoke.json").read_text())
        grid["base"]["n_steps"] = "5"
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        cache = tmp_path / "cache"
        messages = []
        for extra in (["--cache", str(cache)], []):
            assert main(["sweep", "--grid", str(path), *extra]) == 2
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1]
        assert "n_steps must be an integer: '5'" in messages[0]
        assert not cache.exists()

    def test_shipped_grid_cell_keys(self):
        """Unit keys of shipped cells, recorded before the spec checks."""
        expected = {
            "robustness_smoke": (
                24,
                "f0dccb23af58067ea6e84b86e296fee8b388c8dddaaffa4bd333f916d3a8b2a5",
            ),
            "fig20_dynamic_slo": (
                0,
                "5c4959d4783e4cdbda2c72e89c1e44106243f374d748541be9e292dbfae5820c",
            ),
        }
        for name, (index, key) in expected.items():
            spec = SweepGrid.read(f"benchmarks/grids/{name}.json").cells()[index].spec
            assert canonical_key(SweepStore.unit_key(spec, 0)) == key

    def test_with_derives_cells(self):
        base = small_spec()
        cell = base.with_(seed=5, workload=WorkloadSpec.constant(900.0))
        assert cell.seed == 5
        assert base.seed == 0
        assert cell.app == base.app


class TestRegistry:
    def test_unknown_key_lists_alternatives(self):
        with pytest.raises(KeyError, match="constant"):
            WORKLOADS.build("nope")
        for reg in (ENGINES, AUTOSCALERS, HOOKS):
            with pytest.raises(KeyError, match="unknown"):
                reg.get("definitely-not-registered")

    def test_duplicate_registration_rejected(self):
        reg = Registry("thing")
        reg.register("a", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", lambda: 2)

    def test_names_sorted_and_contains(self):
        assert WORKLOADS.names() == tuple(sorted(WORKLOADS.names()))
        assert "constant" in WORKLOADS
        assert "des" in ENGINES and "analytical" in ENGINES
        assert {"pema", "rule", "static"} <= set(AUTOSCALERS.names())

    def test_decorator_registration(self):
        reg = Registry("thing")

        @reg.register("x")
        def make_x():
            return 42

        assert reg.build("x") == 42

    def test_workload_builders(self):
        assert WORKLOADS.build("constant", rps=5.0).rate(0.0) == 5.0
        step = WORKLOADS.build("step", steps=[[0.0, 1.0], [10.0, 3.0]])
        assert step.rate(11.0) == 3.0
        noisy = WORKLOADS.build(
            "noisy",
            base={"kind": "constant", "params": {"rps": 100.0}},
            sigma=0.0,
        )
        assert noisy.rate(0.0) == 100.0

    def test_phased_workload_builder(self):
        trace = WORKLOADS.build(
            "phased",
            phases=[
                {"duration": 60.0,
                 "base": {"kind": "constant", "params": {"rps": 5.0}}},
                {"base": {"kind": "ramp",
                          "params": {"start_rps": 10.0, "end_rps": 20.0,
                                     "duration": 100.0}}},
            ],
        )
        assert trace.rate(30.0) == 5.0
        assert trace.rate(60.0) == 10.0  # phase clock restarts
        with pytest.raises(TypeError, match="unknown phased"):
            WORKLOADS.build("phased", phases=[], bogus=1)

    def test_analytical_noise_override(self):
        from repro.apps import build_app

        app = build_app("sockshop")
        engine = ENGINES.build(
            "analytical", app, seed=0,
            noise={"sigma": 0.0, "anomaly_prob": 0.0},
        )
        alloc = app.generous_allocation(700.0)
        metrics = engine.observe(alloc, 700.0)
        # noise factor is exactly 1.0: observed == noiseless
        assert metrics.latency_p95 == engine.noiseless_latency(alloc, 700.0)

    def test_static_bottleneck_params(self):
        from repro.apps import build_app
        from repro.sim import AnalyticalEngine

        app = build_app("sockshop")
        scaler = AUTOSCALERS.build(
            "static", app, app.generous_allocation(400.0), app.slo,
            bottleneck_rps=1000.0, scale=1.15,
        )
        expected = AnalyticalEngine(app).bottleneck_allocation(1000.0)
        assert scaler.allocation == expected.scale(1.15)
        with pytest.raises(TypeError, match="needs 'bottleneck_rps'"):
            AUTOSCALERS.build(
                "static", app, app.generous_allocation(400.0), app.slo,
                scale=1.15,
            )
        with pytest.raises(TypeError, match="unknown static"):
            AUTOSCALERS.build(
                "static", app, app.generous_allocation(400.0), app.slo,
                bogus=1,
            )

    def test_workload_aware_pema_builder(self):
        from repro.apps import build_app
        from repro.core import WorkloadAwarePEMA

        app = build_app("sockshop")
        manager = AUTOSCALERS.build(
            "workload_aware_pema", app, app.generous_allocation(400.0),
            app.slo, seed=51, start_rps=800.0, workload_low=300.0,
            workload_high=800.0, min_range_width=62.5, split_after=8,
            slope_samples=5,
        )
        assert isinstance(manager, WorkloadAwarePEMA)
        assert manager.allocation == app.generous_allocation(800.0)


class TestRunner:
    def test_artifact_shape(self):
        art = run_experiment(small_spec())
        assert len(art.results) == 2
        assert all(len(r) == 8 for r in art.results)
        summary = art.summary()
        assert summary["repeats"] == 2
        assert len(summary["settled_total_per_seed"]) == 2

    def test_same_spec_is_deterministic(self):
        spec = small_spec()
        assert (
            run_experiment(spec).to_json() == run_experiment(spec).to_json()
        )

    def test_parallel_sweep_byte_identical_to_serial(self):
        specs = [small_spec(), small_spec(seed=9, repeats=1)]
        serial, _ = run_sweep_cached(specs, parallel=1)
        fanned, _ = run_sweep_cached(specs, parallel=2)
        assert [a.summary_json() for a in serial] == [
            a.summary_json() for a in fanned
        ]
        assert [a.to_json() for a in serial] == [a.to_json() for a in fanned]

    def test_artifact_json_round_trip(self):
        art = run_experiment(small_spec(repeats=1))
        back = ExperimentArtifact.from_json(art.to_json())
        assert back.to_json() == art.to_json()
        assert back.summary_json() == art.summary_json()

    def test_artifact_write_read(self, tmp_path):
        art = run_experiment(small_spec(repeats=1))
        path = art.write(tmp_path / "artifact.json")
        assert ExperimentArtifact.read(path).to_json() == art.to_json()

    def test_repeats_use_distinct_seeds(self):
        art = run_experiment(small_spec(n_steps=12))
        a, b = art.settled_totals()
        assert a != b

    def test_des_backend(self):
        spec = small_spec(
            n_steps=2,
            repeats=1,
            engine=EngineSpec(
                kind="des",
                params={"sim_seconds": 2.0, "warmup_seconds": 0.5},
            ),
        )
        art = run_experiment(spec)
        assert len(art.results[0]) == 2

    def test_static_autoscaler_holds(self):
        spec = small_spec(
            repeats=1, n_steps=4, autoscaler=AutoscalerSpec("static")
        )
        art = run_experiment(spec)
        totals = art.results[0].total_cpu
        assert totals.min() == totals.max()


class TestHooks:
    def test_dynamic_slo_dispatch(self):
        spec = small_spec(
            repeats=1,
            n_steps=8,
            hooks=(HookSpec("set_slo", {"at": 4, "slo": 0.150}),),
        )
        records = run_experiment(spec).results[0].records
        assert records[3].slo == pytest.approx(0.250)
        assert records[5].slo == pytest.approx(0.150)

    def test_cpu_speed_dispatch(self):
        spec = small_spec(repeats=1, n_steps=6)
        slow = spec.with_(
            hooks=(HookSpec("set_cpu_speed", {"at": 2, "speed": 0.5}),)
        )
        base = run_experiment(spec).results[0]
        slowed = run_experiment(slow).results[0]
        # Halving the clock mid-run must raise observed latency.
        assert slowed.responses[3:].mean() > base.responses[3:].mean()

    def test_extra_on_step_composes_with_hooks(self):
        seen = []
        spec = small_spec(
            repeats=1,
            n_steps=4,
            hooks=(HookSpec("set_slo", {"at": 2, "slo": 0.2}),),
        )
        unit = run_unit(spec, on_step=lambda step, loop: seen.append(step))
        assert seen == [0, 1, 2, 3]
        assert unit.result.records[-1].slo == pytest.approx(0.2)


class TestComparison:
    def test_comparison_single_code_path(self):
        spec = ExperimentSpec(app="sockshop", workload=700.0, n_steps=10)
        cell = run_comparison(spec, rule_steps=12)
        assert cell["rule_total"] == run_experiment(
            derive_rule_spec(spec, n_steps=12)
        ).mean_settled_total()
        assert cell["pema_total"] == run_experiment(spec).mean_settled_total()
        assert cell["pema_savings_vs_rule"] == pytest.approx(
            1.0 - cell["pema_total"] / cell["rule_total"]
        )
        # RULE's fixed point over-provisions the optimum.
        assert cell["rule_total"] > cell["optm_total"]

    def test_derive_rule_spec(self):
        spec = ExperimentSpec(
            app="sockshop", workload=700.0, n_steps=10, seed=42
        )
        rule = derive_rule_spec(spec, n_steps=12)
        assert rule.autoscaler.kind == "rule"
        assert rule.engine.seed_offset == 2000
        assert rule.seed == 0
        assert rule.repeats == 1
        assert rule.workload == spec.workload


class TestCLIExperiment:
    def test_experiment_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(small_spec(repeats=1).to_json())
        out_file = tmp_path / "artifact.json"
        assert main(
            ["experiment", "--spec", str(spec_file), "--out", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "settled_total_mean" in out
        artifact = ExperimentArtifact.read(out_file)
        assert artifact.summary() == json.loads(out_file.read_text())["summary"]

    def test_experiment_cli_matches_python_api(self, tmp_path, capsys):
        from repro.cli import main

        spec = small_spec(repeats=1)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())
        out_file = tmp_path / "artifact.json"
        assert main(
            ["experiment", "--spec", str(spec_file), "--out", str(out_file)]
        ) == 0
        capsys.readouterr()
        assert (
            ExperimentArtifact.read(out_file).to_json()
            == run_experiment(spec).to_json()
        )

    def test_experiment_bad_spec_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"app": "sockshop", "workload": 1.0, "n_steps": 4,
             "engine": {"kind": "quantum"}}
        ))
        assert main(["experiment", "--spec", str(bad)]) == 2
        assert "unknown engine backend" in capsys.readouterr().err

    def test_experiment_wrongly_typed_spec_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"app": "sockshop", "workload": 1.0, "n_steps": None}
        ))
        assert main(["experiment", "--spec", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_experiment_component_missing_kind_names_component(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"app": "sockshop", "workload": {"params": {"rps": 1.0}},
             "n_steps": 4}
        ))
        assert main(["experiment", "--spec", str(bad)]) == 2
        assert "WorkloadSpec needs 'kind'" in capsys.readouterr().err

    def test_experiment_unsatisfiable_slo_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            small_spec(repeats=1, n_steps=3, slo=0.0001).to_json()
        )
        assert main(["experiment", "--spec", str(spec_file)]) == 1
        assert "no SLO-satisfying interval" in capsys.readouterr().err

    def test_experiment_compare_rejects_non_pema_before_running(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            small_spec(repeats=1, autoscaler=AutoscalerSpec("rule")).to_json()
        )
        assert main(
            ["experiment", "--spec", str(spec_file), "--compare"]
        ) == 2
        captured = capsys.readouterr()
        assert "needs a pema spec" in captured.err
        assert "settled_total_mean" not in captured.out  # rejected pre-run
