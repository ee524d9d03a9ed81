"""Batched sweep execution: bit-exact equivalence with the scalar path.

The whole value of ``repro.sweeps.batched`` rests on one property: a
batched unit is *byte-identical* to the same unit run through the scalar
worker — same JSON payload, same cache entry, same aggregates.  These
tests enforce that property at every layer (engine observation, full
unit runs, the scheduler's ``batch=True`` path, mixed grids with
un-batchable cells) plus the grouping/fallback/progress mechanics.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_app
from repro.experiments import ExperimentSpec
from repro.experiments.runner import _run_unit_worker
from repro.sim import AnalyticalEngine, Allocation, BatchedAnalyticalEngine
from repro.sim.latency import end_to_end_latency, end_to_end_latency_batch
from repro.sweeps import (
    SweepGrid,
    SweepStore,
    classify_unit,
    grid_summary_json,
    run_grid,
    run_sweep_cached,
    run_units_batched,
)
from repro.sweeps.scheduler import _partition_chunk
from tests.conftest import make_sweep_spec as spec


def scalar_payload(s: ExperimentSpec, repeat: int = 0) -> dict:
    return _run_unit_worker(s.to_dict(), repeat)


def assert_units_byte_identical(units: list[tuple[ExperimentSpec, int]]):
    """Batched payloads must serialize to the scalar payloads' bytes."""
    groups: dict[tuple, list[tuple[ExperimentSpec, int]]] = {}
    for unit in units:
        key = classify_unit(unit[0])[0]
        assert key is not None, f"{unit[0]} unexpectedly un-batchable"
        groups.setdefault(key, []).append(unit)
    for group in groups.values():
        batched = [u.to_payload() for u in run_units_batched(group)]
        for (s, repeat), payload in zip(group, batched):
            expected = scalar_payload(s, repeat)
            assert json.dumps(payload, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            ), f"{s.name or s.app} repeat {repeat} diverged"


class TestBatchedEngine:
    def test_observation_matches_scalar_per_cell(self, sockshop_app):
        seeds = [7, 1000, 4242]
        speeds = [1.0, 0.889, 1.111]
        workloads = np.array([300.0, 700.0, 1100.0])
        intervals = np.array([120.0, 60.0, 120.0])
        rng = np.random.default_rng(3)
        alloc = rng.uniform(0.1, 5.0, (3, sockshop_app.n_services))

        batch = BatchedAnalyticalEngine(sockshop_app, seeds)
        scalars = [AnalyticalEngine(sockshop_app, seed=s) for s in seeds]
        for i, speed in enumerate(speeds):
            batch.set_cpu_speed(i, speed)
            scalars[i].set_cpu_speed(speed)

        for _ in range(3):  # several intervals: RNG streams must track
            obs = batch.observe(alloc, workloads, intervals)
            for i, engine in enumerate(scalars):
                metrics = engine.observe(
                    Allocation.from_array(
                        sockshop_app.service_names, alloc[i]
                    ),
                    float(workloads[i]),
                    float(intervals[i]),
                )
                assert obs.latency_p95[i] == metrics.latency_p95
                for j, name in enumerate(sockshop_app.service_names):
                    svc = metrics.services[name]
                    assert obs.utilization[i, j] == svc.utilization
                    assert obs.throttle_seconds[i, j] == svc.throttle_seconds
                    assert obs.usage_cores[i, j] == svc.usage_cores
                    assert obs.usage_p90_cores[i, j] == svc.usage_p90_cores
            alloc = alloc * 0.9

    def test_end_to_end_latency_batch_rows_match_scalar(self, tiny_app):
        rng = np.random.default_rng(11)
        per_visit = rng.uniform(0.001, 0.5, (5, tiny_app.n_services))
        batched = end_to_end_latency_batch(tiny_app, per_visit)
        for i in range(5):
            assert batched[i] == end_to_end_latency(tiny_app, per_visit[i])

    def test_input_validation(self, sockshop_app):
        engine = BatchedAnalyticalEngine(sockshop_app, [0, 1])
        alloc = np.ones((2, sockshop_app.n_services))
        with pytest.raises(ValueError, match="workload"):
            engine.observe(alloc, np.array([-1.0, 1.0]), np.array([120.0, 120.0]))
        with pytest.raises(ValueError, match="interval"):
            engine.observe(alloc, np.array([1.0, 1.0]), np.array([0.0, 120.0]))
        with pytest.raises(ValueError, match="speed"):
            engine.set_cpu_speed(0, 0.0)


class TestUnitEquivalence:
    def test_pema_cells_heterogeneous_params(self):
        units = [
            (spec(workload=600.0, seed=3), 0),
            (spec(workload=700.0,
                  autoscaler={"kind": "pema", "params": {"alpha": 0.4}},
                  seed=1, repeats=2), 1),
            (spec(workload=900.0, slo=0.4, headroom=3.0, interval=60.0), 0),
            (spec(workload=650.0,
                  autoscaler={"kind": "pema",
                              "params": {"beta": 0.5,
                                         "moving_average_window": 9,
                                         "use_bottleneck_filter": False}}),
             0),
            (spec(workload=750.0,
                  autoscaler={"kind": "pema",
                              "params": {"use_dynamic_thresholds": False,
                                         "rollback_severity_gain": 2.0}}),
             0),
        ]
        assert_units_byte_identical(units)

    def test_rule_and_vpa_cells(self):
        units = [
            (spec(autoscaler={"kind": "rule"},
                  engine={"kind": "analytical", "seed_offset": 2000}), 0),
            (spec(workload=500.0,
                  autoscaler={"kind": "rule", "params": {"mode": "vpa"}}), 0),
            (spec(workload=800.0,
                  autoscaler={"kind": "rule",
                              "params": {"target_utilization": 0.2,
                                         "scale_down_limit": 0.3}}), 0),
        ]
        assert_units_byte_identical(units)

    def test_static_cells(self):
        units = [
            (spec(autoscaler={"kind": "static"}), 0),
            (spec(workload=300.0, autoscaler={"kind": "static"}, seed=9), 0),
        ]
        assert_units_byte_identical(units)

    def test_hooked_cells_slo_and_cpu_speed(self):
        units = [
            (spec(n_steps=8,
                  hooks=[{"kind": "set_slo",
                          "params": {"at": 4, "slo": 0.2}}]), 0),
            (spec(n_steps=8, workload=500.0,
                  hooks=[{"kind": "set_cpu_speed",
                          "params": {"at": 3, "speed": 0.889}}]), 0),
            (spec(n_steps=8, workload=600.0, autoscaler={"kind": "rule"},
                  hooks=[{"kind": "set_cpu_speed",
                          "params": {"at": 2, "speed": 1.111}}]), 0),
        ]
        assert_units_byte_identical(units)

    def test_violation_rollback_path(self):
        # A tight SLO forces violations, exercising taint + rollback +
        # the emergency 1.25x inflation (no safe record on early steps).
        units = [
            (spec(workload=1100.0, slo=0.05, n_steps=6, seed=s), 0)
            for s in range(3)
        ]
        assert_units_byte_identical(units)

    def test_different_workload_kinds_in_one_batch(self):
        units = [
            (spec(), 0),
            (spec(workload={"kind": "ramp",
                            "params": {"start_rps": 500.0, "end_rps": 800.0,
                                       "duration": 480.0}}), 0),
            (spec(workload={"kind": "sinusoid",
                            "params": {"low": 500.0, "high": 700.0,
                                       "period": 600.0}}), 0),
        ]
        assert_units_byte_identical(units)

    def test_mismatched_group_rejected(self):
        with pytest.raises(ValueError, match="compatible"):
            run_units_batched([(spec(), 0), (spec(n_steps=5), 0)])
        with pytest.raises(ValueError, match="compatible"):
            run_units_batched([(spec(), 0), (spec(app="trainticket"), 0)])


class TestBatchKey:
    def test_groups_by_app_autoscaler_horizon(self):
        assert classify_unit(spec())[0] == ("sockshop", "pema", 4, None)
        assert classify_unit(spec(app="trainticket", workload=225.0))[0] == (
            "trainticket", "pema", 4, None
        )
        assert classify_unit(spec(autoscaler={"kind": "rule"}))[0] == (
            "sockshop", "rule", 4, None
        )
        # Workload/seed/interval/slo/params differences stay in-group.
        assert classify_unit(spec(workload=600.0, seed=9, interval=60.0))[0] == \
            classify_unit(spec(slo=0.3, headroom=4.0))[0]

    def test_noise_override_batches_by_model(self):
        # A noise engine override joins a batch group keyed by its model;
        # different models (or the default) stay in separate groups.
        noisy = spec(
            engine={"kind": "analytical", "params": {"noise": {"sigma": 0.0}}}
        )
        key, reason = classify_unit(noisy)
        assert reason is None
        assert key[:3] == ("sockshop", "pema", 4)
        assert key == classify_unit(
            spec(engine={"kind": "analytical",
                         "params": {"noise": {"sigma": 0.0}}},
                 workload=600.0)
        )[0]
        assert key != classify_unit(spec())[0]
        # Static cells with a pinned bottleneck allocation batch too.
        pinned = spec(
            autoscaler={"kind": "static",
                        "params": {"bottleneck_rps": 500.0, "scale": 1.2}}
        )
        assert classify_unit(pinned)[0] == ("sockshop", "static", 4, None)

    def test_unbatchable_kinds_fall_back(self):
        assert classify_unit(spec(engine={"kind": "des"}))[0] is None
        assert classify_unit(
            spec(engine={"kind": "analytical", "params": {"p_crit": 0.9}})
        )[0] is None
        assert classify_unit(
            spec(autoscaler={"kind": "rule", "params": {"mode": "nope"}})
        )[0] is None
        assert classify_unit(
            spec(autoscaler={"kind": "static", "params": {"x": 1}})
        )[0] is None
        # set_slo drives PEMAController.set_slo — a rule cell would crash
        # the scalar path too, so it must not enter a batch.
        assert classify_unit(
            spec(autoscaler={"kind": "rule"},
                 hooks=[{"kind": "set_slo", "params": {"at": 1, "slo": 0.2}}])
        )[0] is None
        assert classify_unit(
            spec(hooks=[{"kind": "set_slo", "params": {"at": 1}}])
        )[0] is None  # invalid hook params: probe fails, scalar raises

    def test_fallback_reason_slugs(self):
        assert classify_unit(spec())[1] is None
        assert classify_unit(
            spec(engine={"kind": "des"})
        )[1] == "engine:des"
        assert classify_unit(
            spec(engine={"kind": "analytical", "params": {"p_crit": 0.9}})
        )[1] == "engine_params"
        assert classify_unit(
            spec(autoscaler={"kind": "fast_pema"})
        )[1] == "autoscaler:fast_pema"
        assert classify_unit(
            spec(autoscaler={"kind": "rule", "params": {"mode": "nope"}})
        )[1] == "autoscaler_params:rule"
        assert classify_unit(
            spec(autoscaler={"kind": "rule"},
                 hooks=[{"kind": "set_slo", "params": {"at": 1, "slo": 0.2}}])
        )[1] == "set_slo_without_pema"
        assert classify_unit(
            spec(hooks=[{"kind": "set_slo", "params": {"at": 1}}])
        )[1] == "hook_params:set_slo"
        assert classify_unit(
            spec(n_steps=100_001)
        )[1] == "pema_horizon"
        assert classify_unit(
            spec(engine={"kind": "analytical",
                         "params": {"noise": {"sigma": -1.0}}})
        )[1] == "engine_params:noise"
        assert classify_unit(
            spec(autoscaler={"kind": "static", "params": {"scale": 0.5}})
        )[1] == "autoscaler_params:static"  # scale needs bottleneck_rps

    def test_classify_is_key_plus_reason(self):
        for s in (spec(), spec(engine={"kind": "des"})):
            key, reason = classify_unit(s)
            assert classify_unit(s) == (key, reason)
            assert (key is None) == (reason is not None)


class TestClassificationMatchesScalar:
    """A spec batches exactly when the scalar worker accepts it.

    The first three cases once drifted: hand-written probes rejected a
    float ``restarts`` the optimum factory accepts, and batched static
    params the static factory rejects.  The rest are one rejected-params
    case per family.
    """

    @pytest.mark.parametrize("autoscaler", [
        {"kind": "optimum", "params": {"restarts": 2.0}},
        {"kind": "static", "params": {"bottleneck_rps": -5.0}},
        {"kind": "static", "params": {"bottleneck_rps": 500.0, "scale": "2"}},
        {"kind": "pema", "params": {"alpha": "0.5"}},
        {"kind": "rule", "params": {"mode": "nope"}},
        {"kind": "static", "params": {"x": 1}},
        {"kind": "optimum", "params": {"restarts": 0}},
        {"kind": "pid", "params": {"max_step": -1.0}},
        {"kind": "brownout", "params": {"gain": 0.0}},
        {"kind": "workload_aware_pema", "params": {"config": {"alpha": 2.0}}},
    ])
    def test_batches_iff_scalar_accepts(self, autoscaler):
        s = spec(autoscaler=autoscaler)
        key, reason = classify_unit(s)
        try:
            expected = scalar_payload(s)
        except (TypeError, ValueError):
            assert key is None
            assert reason == f"autoscaler_params:{autoscaler['kind']}"
            return
        assert key is not None, reason
        (payload,) = [u.to_payload() for u in run_units_batched([(s, 0)])]
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )


class TestSchedulerBatchPath:
    def grid(self) -> SweepGrid:
        return SweepGrid(
            name="mix",
            base=spec(n_steps=3, repeats=2).to_dict(),
            axes=(
                {"name": "workload", "path": "workload",
                 "values": [600.0, 700.0]},
                {"name": "autoscaler", "values": [
                    {"label": "pema"},
                    {"label": "rule",
                     "autoscaler": {"kind": "rule"},
                     "engine.seed_offset": 2000, "repeats": 1},
                ]},
            ),
        )

    def test_batch_run_byte_identical_artifacts_and_store(self, tmp_path):
        grid = self.grid()
        scalar_store = SweepStore(tmp_path / "scalar")
        batched_store = SweepStore(tmp_path / "batched")
        scalar = run_grid(grid, store=scalar_store, batch=False)
        batched = run_grid(grid, store=batched_store, batch=True)
        assert [a.to_json() for a in scalar.artifacts] == [
            a.to_json() for a in batched.artifacts
        ]
        assert grid_summary_json(scalar) == grid_summary_json(batched)
        scalar_bytes = sorted(p.read_bytes() for p in scalar_store.entry_paths())
        batched_bytes = sorted(p.read_bytes() for p in batched_store.entry_paths())
        assert scalar_bytes == batched_bytes
        assert batched.report.batched_units == batched.report.computed
        assert scalar.report.batched_units == 0

    def test_cross_mode_cache_reuse(self, tmp_path):
        # Entries written by a batched run satisfy a scalar run and back.
        grid = self.grid()
        store = SweepStore(tmp_path)
        cold = run_grid(grid, store=store, batch=True)
        warm = run_grid(grid, store=store, batch=False)
        assert warm.report.cache_hits == warm.report.units
        assert warm.report.computed == 0
        assert grid_summary_json(cold) == grid_summary_json(warm)

    def test_mixed_batchable_and_fallback_cells(self, tmp_path):
        # p_crit engine params are un-batchable: they run scalar inside a
        # batch=True sweep, and the result is still byte-identical.
        specs = [
            spec(n_steps=3, workload=600.0),
            spec(n_steps=3, workload=650.0,
                 engine={"kind": "analytical", "params": {"p_crit": 0.9}}),
            spec(n_steps=3, workload=700.0),
        ]
        scalar_arts, _ = run_sweep_cached(specs, batch=False)
        batched_arts, report = run_sweep_cached(specs, batch=True)
        assert [a.to_json() for a in scalar_arts] == [
            a.to_json() for a in batched_arts
        ]
        assert report.batched_units == 2
        assert report.scalar_units == 1
        assert report.fallbacks == {"engine_params": 1}
        assert report.to_dict()["fallbacks"] == {"engine_params": 1}
        # Batching off: nothing fell back, because nothing batched.
        _, scalar_report = run_sweep_cached(specs, batch=False)
        assert scalar_report.fallbacks == {}

    def test_partition_chunk_groups_and_caps(self):
        units = [
            (0, spec(workload=600.0), 0),
            (1, spec(app="trainticket", workload=125.0), 0),
            (2, spec(workload=700.0), 0),
            (3, spec(engine={"kind": "des"}), 0),
            (4, spec(workload=800.0), 0),
        ]
        tasks = _partition_chunk(units, batch=True, parallel=1)
        # One scalar fallback (DES), one trainticket group, one sockshop
        # group holding all three compatible cells.
        scalar_tasks = [t for t in tasks if not t[0]]
        batch_tasks = [t for t in tasks if t[0]]
        assert len(scalar_tasks) == 1
        assert scalar_tasks[0][1][0][0] == 3
        assert sorted(len(t[1]) for t in batch_tasks) == [1, 3]
        # parallel=3 caps group size so every worker gets a share.
        tasks3 = _partition_chunk(units, batch=True, parallel=3)
        assert max(len(t[1]) for t in tasks3 if t[0]) <= 2
        # scalar mode: strictly one unit per task.
        assert all(
            len(t[1]) == 1 and not t[0]
            for t in _partition_chunk(units, batch=False, parallel=4)
        )

    def test_progress_reports_exact_units_and_cells_on_partial_chunk(self):
        # 3 specs x 2 repeats = 6 units, chunk_size 4 -> chunks of 4 and 2.
        specs = [
            spec(n_steps=2, repeats=2, workload=w)
            for w in (600.0, 650.0, 700.0)
        ]
        for batch in (False, True):
            snapshots = []
            run_sweep_cached(
                specs, chunk_size=4, batch=batch,
                on_progress=snapshots.append,
            )
            assert [s.completed for s in snapshots] == [0, 4, 6]
            assert [s.computed for s in snapshots] == [0, 4, 6]
            assert snapshots[-1].done
            assert [s.cells_total for s in snapshots] == [3, 3, 3]
            # After the first (partial-coverage) chunk exactly two specs
            # have both repeats done; the partial last chunk closes the
            # third — exact cell counts, not chunk counts.
            assert [s.cells_completed for s in snapshots] == [0, 2, 3]

    def test_batch_parallel_matches_serial(self):
        specs = [spec(n_steps=3, workload=w, repeats=2)
                 for w in (600.0, 700.0)]
        serial, _ = run_sweep_cached(specs, batch=True, parallel=1)
        parallel, _ = run_sweep_cached(
            specs, batch=True, parallel=2, chunk_size=2
        )
        assert [a.to_json() for a in serial] == [
            a.to_json() for a in parallel
        ]


class TestGridEquivalence:
    def test_ci_smoke_grid_byte_identical(self):
        grid = SweepGrid.read("benchmarks/grids/ci_smoke.json")
        scalar = run_grid(grid, batch=False)
        batched = run_grid(grid, batch=True)
        assert [a.to_json() for a in scalar.artifacts] == [
            a.to_json() for a in batched.artifacts
        ]
        assert grid_summary_json(scalar) == grid_summary_json(batched)

    def test_ported_figure_grids_validate_and_partition(self):
        # Every shipped grid batches — including fig10, whose cells carry
        # static bottleneck params + engine noise overrides (batched by
        # noise model since the noise-aware key).
        for name in (
            "fig10_workload_response",
            "fig11_pema_sockshop",
            "fig18_burst",
        ):
            grid = SweepGrid.read(f"benchmarks/grids/{name}.json")
            grid.validate()
            keys = {classify_unit(cell.spec)[0] for cell in grid.cells()}
            assert None not in keys, name

    def test_fig10_noise_and_static_grid_byte_identical(self):
        # fig10 exercises both new batch paths at once: noise-model
        # engine overrides and pinned static bottleneck allocations.
        grid = SweepGrid.read("benchmarks/grids/fig10_workload_response.json")
        scalar = run_grid(grid, batch=False)
        batched = run_grid(grid, batch=True)
        assert [a.to_json() for a in scalar.artifacts] == [
            a.to_json() for a in batched.artifacts
        ]
        assert batched.report.fallbacks == {}

    def test_fig18_workload_aware_grid_byte_identical(self):
        # The workload-aware manager batches through the scalar-manager
        # bank: engine vectorized, per-cell decisions byte-equal.
        grid = SweepGrid.read("benchmarks/grids/fig18_burst.json")
        scalar = run_grid(grid, batch=False)
        batched = run_grid(grid, batch=True)
        assert [a.to_json() for a in scalar.artifacts] == [
            a.to_json() for a in batched.artifacts
        ]
        assert grid_summary_json(scalar) == grid_summary_json(batched)
        assert batched.report.batched_units == batched.report.units

    @pytest.mark.slow
    def test_fig15_grid_byte_identical(self):
        # The acceptance-criterion grid: three apps, PEMA (3 repeats) and
        # RULE (30-step) cells — six batch groups.
        grid = SweepGrid.read("benchmarks/grids/fig15_comparison.json")
        scalar = run_grid(grid, batch=False)
        batched = run_grid(grid, batch=True)
        assert [a.to_json() for a in scalar.artifacts] == [
            a.to_json() for a in batched.artifacts
        ]
        assert grid_summary_json(scalar) == grid_summary_json(batched)
        assert batched.report.batched_units == batched.report.units


@st.composite
def mini_grid_units(draw):
    """A randomized mixed bag of batchable and un-batchable units."""
    units = []
    n = draw(st.integers(min_value=2, max_value=6))
    for index in range(n):
        app = draw(st.sampled_from(["sockshop", "trainticket"]))
        workload = {"sockshop": 600.0, "trainticket": 150.0}[app] * draw(
            st.sampled_from([0.8, 1.0, 1.2])
        )
        kind = draw(st.sampled_from(["pema", "pema", "rule", "static"]))
        autoscaler: dict = {"kind": kind}
        if kind == "pema" and draw(st.booleans()):
            autoscaler["params"] = {
                "alpha": draw(st.sampled_from([0.3, 0.5, 0.7])),
                "beta": draw(st.sampled_from([0.2, 0.3])),
            }
        engine: dict = {"kind": "analytical"}
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            engine["params"] = {"p_crit": 0.9}  # forces scalar fallback
        units.append(
            (
                spec(
                    app=app,
                    workload=workload,
                    n_steps=draw(st.sampled_from([2, 3])),
                    seed=draw(st.integers(min_value=0, max_value=50)),
                    autoscaler=autoscaler,
                    engine=engine,
                    repeats=draw(st.sampled_from([1, 2])),
                ),
                0,
            )
        )
    return [s for s, _ in units]


@pytest.mark.slow
class TestPropertyEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(specs=mini_grid_units())
    def test_randomized_mixed_grid_byte_identical(self, specs):
        scalar_arts, scalar_report = run_sweep_cached(specs, batch=False)
        batched_arts, batched_report = run_sweep_cached(specs, batch=True)
        assert [a.to_json() for a in scalar_arts] == [
            a.to_json() for a in batched_arts
        ]
        assert scalar_report.units == batched_report.units
        assert (
            batched_report.batched_units + batched_report.scalar_units
            == batched_report.computed
        )
