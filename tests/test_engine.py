"""Analytical engine: Environment protocol, monotonicity, operating knobs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.spec import AppSpec, RequestClass, ServiceSpec, Stage
from repro.sim import AnalyticalEngine, Allocation, BatchedAnalyticalEngine, NoiseModel
from repro.sim.environment import Environment
from repro.sim.latency import end_to_end_latency, visit_latency
from repro.sim.types import IntervalMetrics, ServiceMetrics

from tests.conftest import build_tiny_app

_APP = build_tiny_app()
_ENGINE = AnalyticalEngine(_APP, noise=NoiseModel.none(), seed=0)


class TestProtocol:
    def test_implements_environment(self, tiny_engine):
        assert isinstance(tiny_engine, Environment)

    def test_observe_structure(self, tiny_app, tiny_engine):
        alloc = tiny_app.generous_allocation(100.0)
        m = tiny_engine.observe(alloc, 100.0)
        assert m.latency_p95 > 0
        assert m.workload_rps == 100.0
        assert set(m.services) == set(tiny_app.service_names)
        for svc in m.services.values():
            assert 0.0 <= svc.utilization <= 1.0
            assert svc.throttle_seconds >= 0.0
            assert svc.usage_cores >= 0.0

    def test_negative_workload_rejected(self, tiny_engine, tiny_app):
        with pytest.raises(ValueError):
            tiny_engine.observe(tiny_app.generous_allocation(100.0), -5.0)

    def test_bad_scalar_inputs_are_named(self, tiny_engine, tiny_app):
        alloc = tiny_app.generous_allocation(100.0)
        with pytest.raises(ValueError, match=r"^workload must be >= 0: -5.0$"):
            tiny_engine.observe(alloc, -5.0)
        with pytest.raises(ValueError, match=r"^interval must be positive: 0.0$"):
            tiny_engine.observe(alloc, 100.0, 0.0)
        with pytest.raises(ValueError, match=r"^workload must be >= 0: -1$"):
            tiny_engine.bottleneck_allocation(-1)

    def test_invalid_p_crit(self, tiny_app):
        with pytest.raises(ValueError):
            AnalyticalEngine(tiny_app, p_crit=1.5)


class TestDeterminism:
    def test_noiseless_is_deterministic(self, tiny_app):
        e1 = AnalyticalEngine(tiny_app, seed=1)
        e2 = AnalyticalEngine(tiny_app, seed=999)
        alloc = tiny_app.generous_allocation(100.0)
        assert e1.noiseless_latency(alloc, 100.0) == pytest.approx(
            e2.noiseless_latency(alloc, 100.0)
        )

    def test_same_seed_same_observations(self, tiny_app):
        alloc = tiny_app.generous_allocation(100.0)
        a = AnalyticalEngine(tiny_app, seed=5).observe(alloc, 100.0)
        b = AnalyticalEngine(tiny_app, seed=5).observe(alloc, 100.0)
        assert a.latency_p95 == pytest.approx(b.latency_p95)

    def test_noise_none_matches_noiseless(self, tiny_app):
        engine = AnalyticalEngine(tiny_app, noise=NoiseModel.none(), seed=3)
        alloc = tiny_app.generous_allocation(100.0)
        assert engine.observe(alloc, 100.0).latency_p95 == pytest.approx(
            engine.noiseless_latency(alloc, 100.0)
        )


class TestMonotonicity:
    """The paper's key observation: monotone reduction => monotone latency."""

    @given(
        service_idx=st.integers(min_value=0, max_value=3),
        factor=st.floats(min_value=0.3, max_value=0.95),
        workload=st.floats(min_value=20.0, max_value=300.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_service_reduction_never_helps(
        self, service_idx, factor, workload
    ):
        base = _APP.generous_allocation(workload)
        name = _APP.service_names[service_idx]
        reduced = base.with_value(name, base[name] * factor)
        lat_base = _ENGINE.noiseless_latency(base, workload)
        lat_reduced = _ENGINE.noiseless_latency(reduced, workload)
        assert lat_reduced >= lat_base - 1e-12

    @given(
        factors=st.lists(
            st.floats(min_value=0.4, max_value=1.0), min_size=4, max_size=4
        ),
        workload=st.floats(min_value=20.0, max_value=300.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_multi_service_monotone(self, factors, workload):
        base = _APP.generous_allocation(workload)
        reduced = Allocation(
            {n: base[n] * f for n, f in zip(_APP.service_names, factors)}
        )
        assert reduced.monotone_le(base)
        assert _ENGINE.noiseless_latency(
            reduced, workload
        ) >= _ENGINE.noiseless_latency(base, workload) - 1e-12

    def test_latency_increases_with_workload(self, tiny_app, tiny_engine):
        alloc = tiny_app.generous_allocation(150.0)
        lats = [
            tiny_engine.noiseless_latency(alloc, wl) for wl in (50, 100, 150, 250)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(lats, lats[1:]))


class TestOperatingConditions:
    def test_cpu_speed_changes_latency(self, tiny_app):
        engine = AnalyticalEngine(tiny_app, noise=NoiseModel.none())
        alloc = tiny_app.generous_allocation(100.0)
        base = engine.noiseless_latency(alloc, 100.0)
        engine.set_cpu_speed(0.8)  # slower clock
        slow = engine.noiseless_latency(alloc, 100.0)
        engine.set_cpu_speed(1.2)  # faster clock
        fast = engine.noiseless_latency(alloc, 100.0)
        assert slow > base > fast

    def test_invalid_speed(self, tiny_engine):
        with pytest.raises(ValueError):
            tiny_engine.set_cpu_speed(0.0)

    def test_bottleneck_allocation_has_min_floor(self, tiny_app, tiny_engine):
        b = tiny_engine.bottleneck_allocation(100.0)
        assert all(b[n] >= 0.05 for n in b)

    def test_bottleneck_scales_with_workload(self, tiny_engine):
        b_low = tiny_engine.bottleneck_allocation(50.0)
        b_high = tiny_engine.bottleneck_allocation(400.0)
        assert b_high.total() > b_low.total()

    def test_speed_change_invalidates_cache(self, tiny_app):
        engine = AnalyticalEngine(tiny_app, noise=NoiseModel.none())
        b1 = engine.bottleneck_allocation(100.0).total()
        engine.set_cpu_speed(0.5)
        b2 = engine.bottleneck_allocation(100.0).total()
        assert b2 > b1  # slower CPU needs more cores


def _idle_service_app() -> AppSpec:
    """The tiny app plus a zero-demand, zero-baseline service.

    The idle service's Gamma shape is 0 at every workload, so every
    evaluation takes the masked (degenerate-service) Gamma path.
    """
    tiny = build_tiny_app()
    idle = ServiceSpec("idle", cpu_demand=0.0, latency_floor=0.001,
                       burstiness=2.0, baseline_cores=0.0)
    read, write = tiny.request_classes
    read = RequestClass(read.name, read.weight, read.stages + (Stage.seq("idle"),))
    return AppSpec(
        name="tiny-idle",
        services=tiny.services + (idle,),
        request_classes=(read, write),
        slo=tiny.slo,
        hop_latency=tiny.hop_latency,
        reference_workload=tiny.reference_workload,
    )


def _assert_same_as_batched(app, steps, seed=7):
    """Scalar ``observe`` equals a 1-row batched observation, field by field.

    ``steps`` are ``(allocation row, workload, interval, action)`` tuples;
    ``action`` is ``None`` or a ``(method, args)`` operating-condition
    change applied to both engines before that step.
    """
    scalar = AnalyticalEngine(app, seed=seed)
    batch = BatchedAnalyticalEngine(app, [seed])
    for row, workload, interval, action in steps:
        if action is not None:
            method, args = action
            getattr(scalar, method)(*args)
            getattr(batch, method)(0, *args)
        m = scalar.observe(
            Allocation.from_array(app.service_names, row), workload, interval
        )
        obs = batch.observe(
            row[None, :], np.array([workload]), np.array([interval])
        )
        assert m.latency_p95 == obs.latency_p95[0]
        assert m.latency_mean == obs.latency_p95[0] / 1.6
        assert m.workload_rps == obs.workload_rps[0]
        assert list(m.services) == list(app.service_names)
        for j, svc in enumerate(m.services.values()):
            assert svc.utilization == obs.utilization[0, j]
            assert svc.throttle_seconds == obs.throttle_seconds[0, j]
            assert svc.usage_cores == obs.usage_cores[0, j]
            assert svc.usage_p90_cores == obs.usage_p90_cores[0, j]


class TestKernelParity:
    """The scalar step runs the shared kernel on a 1-row batch."""

    def test_idle_service_takes_masked_path(self):
        app = _idle_service_app()
        rng = np.random.default_rng(0)
        steps = [
            (rng.uniform(0.05, 2.0, app.n_services), w, 120.0, None)
            for w in (0.0, 50.0, 100.0, 333.3, 0.0, 700.0)
        ]
        _assert_same_as_batched(app, steps)

    def test_idle_service_matches_reference_chain(self):
        """Noise-free latency and p90 equal the closed-form oracle chain."""
        app = _idle_service_app()
        engine = AnalyticalEngine(app, noise=NoiseModel.none(), seed=1)
        alloc = np.linspace(0.2, 1.5, app.n_services)
        for workload in (0.0, 80.0, 250.0):
            model = engine._concurrency(workload)
            assert model.shape[-1] == 0.0
            per_visit = visit_latency(
                app.floor_array(),
                model.overload(alloc),
                model.exceed_probability(alloc),
                engine.latency_params,
            )
            m = engine.observe(
                Allocation.from_array(app.service_names, alloc), workload
            )
            assert m.latency_p95 == end_to_end_latency(app, per_visit)
            p90 = model.usage_p90(alloc)
            assert [s.usage_p90_cores for s in m.services.values()] == p90.tolist()
            assert m.services["idle"].throttle_seconds == 0.0

    def test_faults_and_cpu_speed(self, sockshop_app):
        app = sockshop_app
        rng = np.random.default_rng(1)
        names = app.service_names
        actions = {
            1: ("set_cpu_speed", (1.25,)),
            2: ("set_capacity_scale", (0.3, names[2])),
            3: ("set_demand_scale", (1.8, names[-1])),
            4: ("set_service_level", (0.7,)),
            5: ("set_capacity_scale", (0.0,)),
            6: ("set_cpu_speed", (0.8,)),
            7: ("set_demand_scale", (0.5,)),
        }
        steps = []
        for t in range(10):
            row = rng.uniform(0.1, 4.0, app.n_services)
            workload = float(rng.uniform(100.0, 900.0))
            steps.append((row, workload, 60.0 if t % 2 else 120.0, actions.get(t)))
            steps.append((row, workload, 120.0, None))  # same key after a change
        _assert_same_as_batched(app, steps)

    def test_first_seen_workload_of_a_rounding_key(self, tiny_app):
        """Workloads equal to 9 decimals share the first one's model."""
        w1 = 123.4567890123
        w2 = float(np.nextafter(w1, np.inf))
        assert w1 != w2 and round(w1, 9) == round(w2, 9)
        row = np.array([0.6, 0.3, 0.5, 0.2])
        steps = [(row, w1, 120.0, None), (row, w2, 120.0, None),
                 (row, w2, 120.0, ("set_cpu_speed", (1.0,))),
                 (row, w1, 120.0, None)]
        _assert_same_as_batched(tiny_app, steps)
        # The collapse is observable: w2 after w1 evaluates w1's model,
        # while a fresh engine evaluates w2's own (one ulp of workload
        # moves this latency).
        alloc = Allocation.from_array(tiny_app.service_names, row)
        quiet = NoiseModel.none()
        shared = AnalyticalEngine(tiny_app, noise=quiet)
        first = shared.observe(alloc, w1).latency_p95
        collapsed = shared.observe(alloc, w2)
        assert collapsed.latency_p95 == first
        assert collapsed.workload_rps == w2
        fresh = AnalyticalEngine(tiny_app, noise=quiet).observe(alloc, w2)
        assert fresh.latency_p95 != first


class TestIntervalMetricsFromArrays:
    def test_same_as_per_value_construction(self):
        names = ("a", "b", "c")
        rng = np.random.default_rng(2)
        util, thr, usage, p90 = rng.random((4, 3))
        built = IntervalMetrics.from_arrays(
            names, np.float64(0.25), 300, util, thr, usage, p90,
            latency_mean=0.25 / 1.6,
        )
        expected = IntervalMetrics(
            latency_p95=0.25,
            workload_rps=300.0,
            services={
                n: ServiceMetrics(
                    float(util[j]), float(thr[j]), float(usage[j]), float(p90[j])
                )
                for j, n in enumerate(names)
            },
            latency_mean=0.25 / 1.6,
        )
        assert built == expected
        assert type(built.latency_p95) is float
        assert type(built.workload_rps) is float
        assert all(type(s.utilization) is float for s in built.services.values())
