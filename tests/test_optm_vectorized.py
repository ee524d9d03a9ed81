"""Vectorized OPTM: frontier search, batch driver, allocator, sweep units.

The contract under test everywhere: the frontier-vectorized optimum
search — single-cell ``find``, lockstep ``OptimumBatch``, and the
``"optimum"`` sweep units — is *bit-identical* to the scalar reference
search (allocations, total CPU, evaluation counts, latencies, store
entries), at every configuration.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_app
from repro.baselines import (
    OptimumAllocator,
    OptimumBatch,
    OptimumRequest,
    OptimumSearch,
)
from repro.experiments import (
    ExperimentSpec,
    clear_optimum_cache,
    optimum_cache_info,
    optimum_result,
    optimum_results,
    optimum_store,
    optimum_total,
    run_unit,
)
from repro.sim import AnalyticalEngine, Allocation, NoiseModel
from repro.sim.latency import NoiselessLatencyKernel, end_to_end_latency_batch
from repro.sweeps import SweepStore, run_sweep_cached
from repro.sweeps.batched import batch_key, run_units_batched
from tests.conftest import build_tiny_app


def result_tuple(result):
    return (
        tuple(result.allocation.items()),
        result.total_cpu,
        result.evaluations,
        result.latency,
    )


@pytest.fixture(autouse=True)
def _clean_cache():
    clear_optimum_cache()
    yield
    clear_optimum_cache()


class TestKernelEquivalence:
    def test_cell_kernel_matches_dense_kernel_and_engine(self, tiny_app):
        engine = AnalyticalEngine(tiny_app)
        kernel = engine.noiseless_kernel
        rng = np.random.default_rng(3)
        rows = rng.uniform(0.05, 4.0, size=(17, tiny_app.n_services))
        for workload in (60.0, 140.0):
            cell = kernel.cell(workload)
            dense = kernel.latency(rows, np.full(len(rows), workload))
            memoized = cell.latency(rows)
            assert np.array_equal(dense, memoized)
            # warm memo: identical again
            assert np.array_equal(cell.latency(rows), dense)
            for row, value in zip(rows, dense):
                alloc = Allocation.from_array(tiny_app.service_names, row)
                assert engine.noiseless_latency(alloc, workload) == value

    def test_cell_kernel_respects_cpu_speed(self, tiny_app):
        engine = AnalyticalEngine(tiny_app)
        engine.set_cpu_speed(0.8)
        cell = engine.noiseless_kernel.cell(100.0, engine.cpu_speed)
        alloc = tiny_app.generous_allocation(100.0)
        row = alloc.as_array(tiny_app.service_names)[None, :]
        assert cell.latency(row)[0] == engine.noiseless_latency(alloc, 100.0)

    def test_aggregation_plan_matches_walk(self):
        rng = np.random.default_rng(0)
        for name in ("sockshop", "trainticket", "hotelreservation"):
            app = build_app(name)
            kernel = NoiselessLatencyKernel(app)
            per_visit = rng.uniform(
                1e-4, 5.0, size=(23, len(app.service_names))
            )
            assert np.array_equal(
                kernel._plan.aggregate(per_visit),
                end_to_end_latency_batch(app, per_visit),
            )


class TestFindEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        workload=st.floats(min_value=40.0, max_value=320.0),
        restarts=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=50),
        deep=st.booleans(),
    )
    def test_find_matches_reference(self, workload, restarts, seed, deep):
        app = build_tiny_app()
        engine = AnalyticalEngine(app, noise=NoiseModel.none())
        search = OptimumSearch(
            engine, restarts=restarts, seed=seed, deep=deep
        )
        assert result_tuple(search.find(workload)) == result_tuple(
            search.find_reference(workload)
        )

    @pytest.mark.parametrize(
        "app_name,workload",
        [("sockshop", 700.0), ("hotelreservation", 600.0),
         ("trainticket", 125.0)],
    )
    def test_find_matches_reference_real_apps(self, app_name, workload):
        engine = AnalyticalEngine(build_app(app_name))
        search = OptimumSearch(engine, restarts=2)
        assert result_tuple(search.find(workload)) == result_tuple(
            search.find_reference(workload)
        )

    def test_explicit_start_and_custom_step(self, tiny_app):
        engine = AnalyticalEngine(tiny_app)
        start = tiny_app.generous_allocation(150.0, headroom=3.0)
        search = OptimumSearch(engine, step=0.05, min_cpu=0.1, restarts=2)
        assert result_tuple(search.find(150.0, start=start)) == result_tuple(
            search.find_reference(150.0, start=start)
        )

    def test_infeasible_start_raises_like_reference(self, tiny_app):
        engine = AnalyticalEngine(tiny_app)
        starved = tiny_app.uniform_allocation(0.05)
        search = OptimumSearch(engine, restarts=1)
        with pytest.raises(ValueError):
            search.find(300.0, start=starved)
        with pytest.raises(ValueError):
            search.find_reference(300.0, start=starved)


class TestOptimumBatch:
    def test_matches_per_cell_loop(self, tiny_app):
        engine = AnalyticalEngine(tiny_app)
        batch = OptimumBatch(engine)
        requests = [
            OptimumRequest(80.0, restarts=2),
            OptimumRequest(140.0, restarts=1, seed=3),
            OptimumRequest(220.0, restarts=3, deep=True),
            OptimumRequest(80.0, restarts=2),  # duplicate -> alias path
        ]
        results = batch.find_many(requests)
        for request, result in zip(requests, results):
            search = OptimumSearch(
                engine,
                restarts=request.restarts,
                seed=request.seed,
                deep=request.deep,
            )
            assert result_tuple(result) == result_tuple(
                search.find(request.workload)
            )
        assert result_tuple(results[0]) == result_tuple(results[3])

    def test_empty(self, tiny_app):
        assert OptimumBatch(AnalyticalEngine(tiny_app)).find_many([]) == []


class TestOptimumRouting:
    def test_optimum_result_payload(self):
        payload = optimum_result("sockshop", 700.0)
        engine = AnalyticalEngine(build_app("sockshop"))
        ref = OptimumSearch(engine, restarts=2).find(700.0)
        assert payload["total_cpu"] == ref.total_cpu
        assert payload["evaluations"] == ref.evaluations
        assert payload["latency"] == ref.latency
        assert dict(payload["allocation"]) == dict(ref.allocation)
        # keys in app service order (what the batched records expect)
        assert [n for n, _ in payload["allocation"]] == list(
            build_app("sockshop").service_names
        )
        assert optimum_total("sockshop", 700.0) == ref.total_cpu
        info = optimum_cache_info()
        assert info["solved"] == 1 and info["hits"] == 1

    def test_optimum_results_batches_misses(self):
        payloads = optimum_results(
            "sockshop", [(700.0, 2), (300.0, 2), (700.0, 2)]
        )
        assert payloads[0]["total_cpu"] == payloads[2]["total_cpu"]
        info = optimum_cache_info()
        # the duplicate is a cache hit, not a third solve
        assert info["solved"] == 2 and info["hits"] == 1

    def test_total_only_store_entry_is_a_miss_rewritten_in_full(
        self, tmp_path
    ):
        store = SweepStore(tmp_path)
        key = store.optimum_key("sockshop", 700.0, 2)
        store.put_raw(key, {"total_cpu": 9.25})
        engine = AnalyticalEngine(build_app("sockshop"))
        ref = OptimumSearch(engine, restarts=2).find(700.0)
        with optimum_store(store):
            assert optimum_total("sockshop", 700.0) == ref.total_cpu
            info = optimum_cache_info()
            assert (info["store_hits"], info["misses"], info["solved"]) == (
                0, 1, 1
            )
        rewritten = store.get_raw(key)
        assert rewritten["total_cpu"] == ref.total_cpu
        assert dict(rewritten["allocation"]) == dict(ref.allocation)


class TestOptimumAllocator:
    def test_pins_and_resolves_on_workload_change(self, monkeypatch):
        app = build_app("sockshop")
        start = app.generous_allocation(700.0)
        allocator = OptimumAllocator(app, start, restarts=2)
        assert allocator.allocation == start

        calls = []

        def fake_result(app_name, workload, *, restarts):
            calls.append((app_name, workload, restarts))
            return {
                "total_cpu": 2.0,
                "allocation": [[n, 2.0 / app.n_services]
                               for n in app.service_names],
            }

        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "optimum_result", fake_result)
        from tests.conftest import make_metrics

        metrics = make_metrics(0.1, workload=700.0)
        first = allocator.decide(metrics)
        assert allocator.decide(metrics) is first  # same workload: pinned
        allocator.decide(make_metrics(0.1, workload=900.0))
        assert calls == [("sockshop", 700.0, 2), ("sockshop", 900.0, 2)]

    def test_validation(self):
        app = build_app("sockshop")
        with pytest.raises(ValueError):
            OptimumAllocator(app, app.generous_allocation(100.0), restarts=0)

    def test_registry_unit_settles_at_optimum(self):
        spec = ExperimentSpec(
            app="sockshop",
            workload=700.0,
            n_steps=3,
            autoscaler={"kind": "optimum", "params": {"restarts": 2}},
        )
        unit = run_unit(spec)
        optimum = optimum_total("sockshop", 700.0)
        assert unit.result.records[-1].total_cpu == optimum
        # first interval still observes the generous start
        assert unit.result.records[0].total_cpu > optimum


class TestOptimumSweepUnits:
    def specs(self, points=None):
        if points is None:
            points = [("sockshop", 700.0), ("sockshop", 300.0),
                      ("trainticket", 125.0)]
        return [
            ExperimentSpec(
                app=app,
                workload=rps,
                n_steps=2,
                autoscaler={"kind": "optimum", "params": {"restarts": 2}},
                name=f"optm-{app}-{rps:g}",
            )
            for app, rps in points
        ]

    @staticmethod
    def fig15_points():
        from repro.sweeps import SweepGrid

        grid = SweepGrid.read("benchmarks/grids/fig15_comparison.json")
        points = []
        for cell in grid.cells():
            point = (cell.spec.app, float(cell.spec.workload.params["rps"]))
            if point not in points:
                points.append(point)
        return points

    def test_batch_key_groups_optimum(self):
        specs = self.specs()
        key = batch_key(specs[0])
        assert key == ("sockshop", "optimum", 2, None)
        assert batch_key(specs[1]) == key
        assert batch_key(specs[2]) == ("trainticket", "optimum", 2, None)
        bad = specs[0].with_(
            autoscaler={"kind": "optimum", "params": {"bogus": 1}}
        )
        assert batch_key(bad) is None

    def test_group_runner_matches_scalar_worker(self):
        from repro.experiments.runner import _run_unit_worker

        specs = [s for s in self.specs() if s.app == "sockshop"]
        clear_optimum_cache()
        batched = [
            u.to_payload() for u in run_units_batched([(s, 0) for s in specs])
        ]
        clear_optimum_cache()
        scalar = [
            _run_unit_worker(spec.to_dict(), 0) for spec in specs
        ]
        assert batched == scalar

    def test_cross_mode_store_and_artifacts_identical_fig15(self, tmp_path):
        # The acceptance-criterion check: OPTM units over every fig. 15
        # (app, workload) point, scalar vs batched — byte-identical unit
        # payloads AND optimum_store entries.
        points = self.fig15_points()
        specs = self.specs(points)
        stores = {}
        payload_bytes = {}
        reports = {}
        for mode, batch in (("scalar", False), ("batched", True)):
            store = stores[mode] = SweepStore(tmp_path / mode)
            clear_optimum_cache()
            with optimum_store(store):
                _, report = run_sweep_cached(specs, store=store, batch=batch)
            reports[mode] = report
            payload_bytes[mode] = sorted(
                path.read_bytes() for path in store.entry_paths()
            )
        # unit entries AND optimum entries, byte for byte
        assert payload_bytes["scalar"] == payload_bytes["batched"]
        # one unit entry plus one optimum entry per (app, workload) point
        assert len(stores["scalar"].entry_paths()) == 2 * len(points)
        assert reports["batched"].batched_units == len(points)
        assert reports["batched"].optimum["solved"] == len(points)
        assert reports["scalar"].optimum["solved"] == len(points)

    def test_optimum_units_reuse_sweep_cache(self, tmp_path):
        specs = self.specs()
        store = SweepStore(tmp_path)
        with optimum_store(store):
            _, cold = run_sweep_cached(specs, store=store, batch=True)
            clear_optimum_cache()
            _, warm = run_sweep_cached(specs, store=store, batch=True)
        assert cold.computed == 3 and warm.cache_hits == 3
        assert warm.computed == 0 and warm.optimum["solved"] == 0
