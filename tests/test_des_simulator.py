"""End-to-end DES behaviour: conservation, throttling signatures, tracing."""

import numpy as np
import pytest

from repro.apps import build_app
from repro.sim.des import DESEngine, MicroserviceSimulator, SimConfig
from repro.sim.types import Allocation


def run_sim(tiny_app, alloc, rps=150.0, duration=4.0, seed=0, **cfg):
    config = SimConfig(**cfg) if cfg else SimConfig()
    sim = MicroserviceSimulator(tiny_app, alloc, rps, config=config, seed=seed)
    metrics = sim.run(duration)
    return sim, metrics


class TestConservation:
    def test_requests_conserved(self, tiny_app):
        alloc = tiny_app.generous_allocation(150.0)
        sim, _ = run_sim(tiny_app, alloc)
        assert sim.window.started == sim.window.completed + sim.in_flight
        assert sim.window.completed > 0

    def test_throughput_matches_offered_load_poisson(self, tiny_app):
        alloc = tiny_app.generous_allocation(150.0)
        sim, m = run_sim(
            tiny_app, alloc, rps=150.0, duration=6.0, arrivals="poisson"
        )
        assert sim.window.started / 6.0 == pytest.approx(150.0, rel=0.1)

    def test_throughput_matches_offered_load_mmpp(self, tiny_app):
        """MMPP preserves the mean rate, averaged across seeds."""
        alloc = tiny_app.generous_allocation(150.0)
        rates = []
        for seed in range(4):
            sim, _ = run_sim(tiny_app, alloc, rps=150.0, duration=6.0, seed=seed)
            rates.append(sim.window.started / 6.0)
        assert np.mean(rates) == pytest.approx(150.0, rel=0.2)

    def test_deterministic_by_seed(self, tiny_app):
        alloc = tiny_app.generous_allocation(150.0)
        _, m1 = run_sim(tiny_app, alloc, seed=42)
        _, m2 = run_sim(tiny_app, alloc, seed=42)
        assert m1.latency_p95 == pytest.approx(m2.latency_p95)
        _, m3 = run_sim(tiny_app, alloc, seed=43)
        assert m1.latency_p95 != pytest.approx(m3.latency_p95)


class TestThrottlingSignatures:
    def test_no_throttle_with_ample_cpu(self, tiny_app):
        alloc = tiny_app.uniform_allocation(8.0)
        _, m = run_sim(tiny_app, alloc)
        assert all(s.throttle_seconds == 0.0 for s in m.services.values())

    def test_squeezed_service_throttles(self, tiny_app):
        alloc = tiny_app.generous_allocation(150.0).with_value("front", 0.05)
        _, m = run_sim(tiny_app, alloc)
        assert m.services["front"].throttle_seconds > 0.0

    def test_latency_monotone_in_allocation(self, tiny_app):
        """Squeezing the front service can only hurt p95 (statistically)."""
        generous = tiny_app.generous_allocation(150.0)
        squeezed = generous.with_value("front", 0.08)
        _, m_gen = run_sim(tiny_app, generous, duration=6.0, seed=7)
        _, m_sq = run_sim(tiny_app, squeezed, duration=6.0, seed=7)
        assert m_sq.latency_p95 > m_gen.latency_p95

    def test_utilization_rises_when_squeezed(self, tiny_app):
        generous = tiny_app.generous_allocation(150.0)
        squeezed = generous.with_value("front", generous["front"] / 8)
        _, m_gen = run_sim(tiny_app, generous, seed=3)
        _, m_sq = run_sim(tiny_app, squeezed, seed=3)
        assert (
            m_sq.services["front"].utilization
            > m_gen.services["front"].utilization
        )

    def test_usage_p90_within_alloc(self, tiny_app):
        alloc = tiny_app.generous_allocation(150.0)
        _, m = run_sim(tiny_app, alloc)
        for name, svc in m.services.items():
            assert svc.usage_p90_cores <= alloc[name] + 1e-9


class TestWarmup:
    def test_warmup_resets_measurement(self, tiny_app):
        alloc = tiny_app.generous_allocation(150.0)
        cfg = SimConfig(arrivals="poisson")
        sim = MicroserviceSimulator(tiny_app, alloc, 150.0, config=cfg, seed=1)
        sim.run(4.0, warmup=2.0)
        # Roughly 4 seconds of completions, not 6.
        assert sim.window.completed / 4.0 == pytest.approx(150.0, rel=0.2)

    def test_validation(self, tiny_app):
        alloc = tiny_app.generous_allocation(150.0)
        sim = MicroserviceSimulator(tiny_app, alloc, 150.0)
        with pytest.raises(ValueError):
            sim.run(0.0)
        with pytest.raises(ValueError):
            sim.run(1.0, warmup=-1.0)
        with pytest.raises(ValueError):
            MicroserviceSimulator(tiny_app, alloc, 0.0)


class TestTracing:
    def test_spans_recorded_when_enabled(self, tiny_app):
        alloc = tiny_app.generous_allocation(150.0)
        sim, _ = run_sim(tiny_app, alloc, trace=True)
        assert sim.traces is not None
        assert len(sim.traces.spans) > 0
        span = sim.traces.spans[0]
        assert span.duration >= span.cpu_time - 1e-9
        assert span.queue_wait >= 0.0

    def test_spans_cover_planned_services(self, tiny_app):
        alloc = tiny_app.generous_allocation(150.0)
        sim, _ = run_sim(tiny_app, alloc, trace=True, seed=5)
        services = {s.service for s in sim.traces.spans}
        assert "front" in services
        assert "db" in services

    def test_tracing_off_by_default(self, tiny_app):
        alloc = tiny_app.generous_allocation(150.0)
        sim, _ = run_sim(tiny_app, alloc)
        assert sim.traces is None


class TestDESEngine:
    def test_environment_protocol(self, tiny_app):
        engine = DESEngine(tiny_app, sim_seconds=3.0, warmup_seconds=1.0, seed=0)
        alloc = tiny_app.generous_allocation(150.0)
        m = engine.observe(alloc, 150.0, interval=120.0)
        assert m.latency_p95 > 0
        assert set(m.services) == set(tiny_app.service_names)

    def test_zero_workload_silent(self, tiny_app):
        engine = DESEngine(tiny_app)
        m = engine.observe(tiny_app.uniform_allocation(1.0), 0.0)
        assert m.latency_p95 == 0.0
        assert all(s.utilization == 0.0 for s in m.services.values())

    def test_throttle_scaled_to_interval(self, tiny_app):
        alloc = tiny_app.generous_allocation(200.0).with_value("front", 0.05)
        short = DESEngine(tiny_app, sim_seconds=3.0, warmup_seconds=0.5, seed=1)
        m = short.observe(alloc, 200.0, interval=120.0)
        m2 = short.observe(alloc, 200.0, interval=240.0)
        # Same sim length; throttle scaled by interval ratio (statistically).
        assert m2.services["front"].throttle_seconds > 0
        assert m.services["front"].throttle_seconds > 0

    def test_speed_knob(self, tiny_app):
        engine = DESEngine(tiny_app, sim_seconds=3.0, seed=2)
        engine.set_cpu_speed(0.5)
        assert engine.cpu_speed == 0.5
        with pytest.raises(ValueError):
            engine.set_cpu_speed(0.0)

    def test_validation(self, tiny_app):
        with pytest.raises(ValueError):
            DESEngine(tiny_app, sim_seconds=0.0)


class TestBackgroundLoad:
    def test_background_consumes_cpu_without_requests(self):
        """A baseline-bearing app shows usage even at negligible traffic."""
        app = build_app("sockshop")
        alloc = app.generous_allocation(100.0)
        cfg = SimConfig(arrivals="poisson")
        sim = MicroserviceSimulator(app, alloc, 1.0, config=cfg, seed=3)
        m = sim.run(4.0)
        usage = sum(s.usage_cores for s in m.services.values())
        baseline_total = float(app.baseline_array().sum())
        # Usage is in the ballpark of the configured baseline demand.
        assert usage > baseline_total * 0.5

    def test_background_off(self):
        app = build_app("sockshop")
        alloc = app.generous_allocation(100.0)
        cfg = SimConfig(arrivals="poisson", background=False)
        sim = MicroserviceSimulator(app, alloc, 1.0, config=cfg, seed=3)
        m = sim.run(4.0)
        usage = sum(s.usage_cores for s in m.services.values())
        baseline_total = float(app.baseline_array().sum())
        assert usage < baseline_total * 0.5

    def test_baseline_starvation_throttles(self):
        """Squeezing a service below its baseline demand throttles it even
        with no request traffic at all."""
        app = build_app("trainticket")
        alloc = app.generous_allocation(50.0).with_value("seat", 0.02)
        cfg = SimConfig(arrivals="poisson")
        sim = MicroserviceSimulator(app, alloc, 1.0, config=cfg, seed=4)
        m = sim.run(4.0)
        assert m.services["seat"].throttle_seconds > 0.0

    def test_request_conservation_with_background(self, tiny_app):
        """Background jobs never leak into request accounting."""
        app = build_app("sockshop")
        alloc = app.generous_allocation(150.0)
        sim = MicroserviceSimulator(app, alloc, 150.0, seed=5)
        sim.run(4.0)
        assert sim.window.started == sim.window.completed + sim.in_flight

    def test_background_interval_validation(self):
        with pytest.raises(ValueError):
            SimConfig(background_interval=0.0)


_FLOAT_FIELDS = [
    "period",
    "burst_factor",
    "burst_fraction",
    "demand_cv",
    "wait_jitter",
    "cpu_speed",
    "background_interval",
]


class TestNonFiniteTunables:
    """NaN/inf tunables fail at construction with a ValueError, before any
    run: unchecked they hang ``run()``, return a zero p95, or end in
    ZeroDivisionError/IndexError deep inside the event loop."""

    @pytest.fixture(autouse=True)
    def _no_runs(self, monkeypatch):
        from repro.sim.des.simulator import _SimCore

        def run(*args, **kwargs):
            pytest.fail("a simulation started")

        monkeypatch.setattr(_SimCore, "run", run)

    def test_float_fields_are_the_dataclass_floats(self):
        from dataclasses import fields

        assert _FLOAT_FIELDS == [
            f.name for f in fields(SimConfig) if f.type == "float"
        ]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", _FLOAT_FIELDS)
    def test_sim_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", _FLOAT_FIELDS)
    def test_registry_engine_rejects(self, tiny_app, field, value):
        from repro.experiments import ENGINES

        with pytest.raises(ValueError, match=field):
            ENGINES.build("des", tiny_app, config={field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("param", ["sim_seconds", "warmup_seconds"])
    def test_engine_rejects_non_finite_durations(self, tiny_app, param, value):
        from repro.experiments import ENGINES

        with pytest.raises(ValueError, match="finite"):
            ENGINES.build("des", tiny_app, **{param: value})
        with pytest.raises(ValueError, match="finite"):
            DESEngine(tiny_app, **{param: value})

    @pytest.mark.parametrize(
        "cfg", [{"burst_factor": 0.5}, {"burst_fraction": 0.0},
                {"burst_fraction": 1.0}]
    )
    def test_burst_pair_checked_for_poisson_too(self, cfg):
        with pytest.raises(ValueError, match="burst"):
            SimConfig(arrivals="poisson", **cfg)
