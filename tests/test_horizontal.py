"""Horizontal scaling extension (§6 trade-off)."""

import pytest

from repro.apps import build_app
from repro.baselines.horizontal import (
    HorizontalRuleAutoscaler,
    ReplicaAllocator,
)
from repro.core import ControlLoop
from repro.sim import AnalyticalEngine
from repro.workload import ConstantWorkload
from tests.conftest import make_metrics


@pytest.fixture
def allocator(tiny_app) -> ReplicaAllocator:
    return ReplicaAllocator(tiny_app, pod_cpu=0.5, max_replicas=8)


class TestReplicaAllocator:
    def test_effective_cpu_single_replica(self, tiny_app, allocator):
        # One replica: the full pod (baselines are 0 in the tiny app).
        assert allocator.effective_cpu("front", 1) == pytest.approx(0.5)

    def test_overhead_per_extra_replica(self):
        app = build_app("trainticket")
        alloc = ReplicaAllocator(app, pod_cpu=1.0)
        baseline = app.service("seat").baseline_cores
        one = alloc.effective_cpu("seat", 1)
        three = alloc.effective_cpu("seat", 3)
        assert one == pytest.approx(1.0)
        assert three == pytest.approx(3.0 - 2 * baseline)
        assert three < 3 * one  # scale-out is sub-linear: the trade-off

    def test_replicas_for_covers_target(self):
        app = build_app("trainticket")
        alloc = ReplicaAllocator(app, pod_cpu=1.0, max_replicas=10)
        n = alloc.replicas_for("seat", 2.5)
        assert alloc.effective_cpu("seat", n) >= 2.5
        if n > 1:
            assert alloc.effective_cpu("seat", n - 1) < 2.5

    def test_replicas_for_clamps(self):
        app = build_app("trainticket")
        alloc = ReplicaAllocator(app, pod_cpu=1.0, max_replicas=4)
        assert alloc.replicas_for("seat", 0.0) == 1
        assert alloc.replicas_for("seat", 1e9) == 4

    def test_raw_total(self, tiny_app, allocator):
        replicas = {name: 2 for name in tiny_app.service_names}
        assert allocator.raw_total(replicas) == pytest.approx(2 * 0.5 * 4)

    def test_validation(self, tiny_app):
        with pytest.raises(ValueError):
            ReplicaAllocator(tiny_app, pod_cpu=0.5, max_replicas=0)
        with pytest.raises(ValueError):
            ReplicaAllocator(tiny_app, pod_cpu={"front": 1.0})  # missing
        app = build_app("trainticket")
        with pytest.raises(ValueError):
            # Pod smaller than the per-replica baseline is nonsense.
            ReplicaAllocator(app, pod_cpu=0.01)
        alloc = ReplicaAllocator(tiny_app, pod_cpu=0.5)
        with pytest.raises(ValueError):
            alloc.effective_cpu("front", 0)


class TestHorizontalRuleAutoscaler:
    def test_scale_up_on_high_usage(self, tiny_app, allocator):
        hpa = HorizontalRuleAutoscaler(
            allocator, target_utilization=0.5, initial_replicas=1
        )
        m = make_metrics(0.05, utils={"front": 2.0})  # usage 2.0 cores
        hpa.decide(m)
        assert hpa.replicas["front"] > 1

    def test_scale_down_damped(self, tiny_app, allocator):
        hpa = HorizontalRuleAutoscaler(
            allocator, target_utilization=0.5, initial_replicas=6,
            scale_down_limit=1,
        )
        m = make_metrics(0.05, utils={s: 0.0 for s in tiny_app.service_names})
        hpa.decide(m)
        assert hpa.replicas["front"] == 5  # one step at a time

    def test_allocation_protocol(self, tiny_app, allocator):
        hpa = HorizontalRuleAutoscaler(allocator, initial_replicas=2)
        assert hpa.allocation.total() > 0
        out = hpa.decide(make_metrics(0.05))
        assert out == hpa.allocation

    def test_validation(self, allocator):
        with pytest.raises(ValueError):
            HorizontalRuleAutoscaler(allocator, target_utilization=0.0)
        with pytest.raises(ValueError):
            HorizontalRuleAutoscaler(allocator, scale_down_limit=0)

    def test_end_to_end_satisfies_slo(self):
        """HPA keeps QoS but provisions more raw CPU than vertical RULE
        (the per-replica overhead) — §6's trade-off, measured."""
        app = build_app("sockshop")
        wl = 700.0
        allocator = ReplicaAllocator(app, pod_cpu=1.0, max_replicas=16)
        hpa = HorizontalRuleAutoscaler(
            allocator, target_utilization=0.10, initial_replicas=4
        )
        engine = AnalyticalEngine(app, seed=19)
        result = ControlLoop(
            engine, hpa, ConstantWorkload(wl), slo=app.slo
        ).run(25)
        assert result.violation_rate() < 0.2
        assert hpa.raw_total() >= hpa.allocation.total()
