"""Deep property-based suites: fuzzing the controller, tree partitions,
allocation algebra, and engine continuity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PEMAConfig, PEMAController
from repro.core.workload_range import RangeTree
from repro.sim import AnalyticalEngine, Allocation, NoiseModel
from repro.sim.types import IntervalMetrics
from tests.conftest import build_tiny_app

pytestmark = pytest.mark.slow

SERVICES = ("a", "b", "c")

_APP = build_tiny_app()
_ENGINE = AnalyticalEngine(_APP, noise=NoiseModel.none())


@st.composite
def metric_sequences(draw):
    """Random but valid sequences of interval observations."""
    n = draw(st.integers(min_value=1, max_value=25))
    seq = []
    for _ in range(n):
        latency = draw(st.floats(min_value=0.0, max_value=1.0))
        utils = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in SERVICES]
        throttles = [
            draw(st.floats(min_value=0.0, max_value=20.0)) for _ in SERVICES
        ]
        seq.append(
            IntervalMetrics(
                SERVICES,
                latency_p95=latency,
                workload_rps=100.0,
                utilizations=utils,
                throttles=throttles,
                usages=utils,
                usages_p90=utils,
            )
        )
    return seq


class TestControllerFuzz:
    @given(seq=metric_sequences(), seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=60, deadline=None)
    def test_never_crashes_and_respects_floor(self, seq, seed):
        """Any valid metric stream: no exceptions, allocations stay finite
        and above the CPU floor, and the RHDb grows one row per step."""
        c = PEMAController(
            SERVICES,
            0.25,
            Allocation({s: 2.0 for s in SERVICES}),
            PEMAConfig(),
            seed=seed,
        )
        for i, metrics in enumerate(seq, start=1):
            result = c.step(metrics)
            values = result.allocation.as_array()
            assert np.all(np.isfinite(values))
            assert np.all(values >= c.config.min_cpu - 1e-12)
            assert len(c.rhdb) == i

    @given(seq=metric_sequences())
    @settings(max_examples=40, deadline=None)
    def test_rollback_restores_historical_allocation(self, seq):
        """Every ROLLBACK lands on a previously-logged allocation or the
        emergency inflate of the current one."""
        c = PEMAController(
            SERVICES,
            0.25,
            Allocation({s: 2.0 for s in SERVICES}),
            PEMAConfig(explore_a=0.0, explore_b=0.0),
            seed=0,
        )
        for metrics in seq:
            before = c.allocation
            logged = {r.allocation for r in c.rhdb} | {before}
            result = c.step(metrics)
            if result.violated:
                assert (
                    result.allocation in logged
                    or result.allocation == before.scale(1.25)
                )

    @given(
        latencies=st.lists(
            st.floats(min_value=0.0, max_value=0.24), min_size=3, max_size=20
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_no_violation_means_monotone_totals_without_exploration(
        self, latencies
    ):
        """With exploration off and no violations, total CPU never grows."""
        c = PEMAController(
            SERVICES,
            0.25,
            Allocation({s: 2.0 for s in SERVICES}),
            PEMAConfig(explore_a=0.0, explore_b=0.0),
            seed=1,
        )
        prev_total = c.allocation.total()
        for latency in latencies:
            ones = [0.1] * len(SERVICES)
            metrics = IntervalMetrics(
                SERVICES, latency, 100.0, ones, [0.0] * len(SERVICES), ones, ones
            )
            result = c.step(metrics)
            assert result.allocation.total() <= prev_total + 1e-9
            prev_total = result.allocation.total()


class TestRangeTreePartition:
    @given(
        steps=st.lists(
            st.floats(min_value=100.0, max_value=499.0), min_size=1,
            max_size=60,
        ),
        split_after=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_leaves_always_partition_the_band(self, steps, split_after):
        """No gaps, no overlaps, full coverage — after any step sequence."""
        controller = PEMAController(
            SERVICES, 0.25, Allocation({s: 2.0 for s in SERVICES}),
            PEMAConfig(explore_a=0.0, explore_b=0.0), seed=0,
        )
        tree = RangeTree.initial(
            100.0, 500.0, controller, min_width=25.0, split_after=split_after
        )
        rng = np.random.default_rng(0)
        for rps in steps:
            leaf = tree.find(rps)
            tree.note_step(leaf, rng)
            ordered = sorted(tree.leaves, key=lambda l: l.low)
            assert ordered[0].low == pytest.approx(100.0)
            assert ordered[-1].high == pytest.approx(500.0)
            for left, right in zip(ordered, ordered[1:]):
                assert left.high == pytest.approx(right.low)
            assert all(l.width >= 25.0 - 1e-9 for l in ordered)


class TestAllocationAlgebra:
    @given(
        values=st.lists(
            st.floats(min_value=0.1, max_value=10.0), min_size=3, max_size=3
        ),
        f1=st.floats(min_value=0.0, max_value=0.5),
        f2=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduce_composition(self, values, f1, f2):
        """Two successive reductions equal one combined reduction (up to the
        floor clamp)."""
        a = Allocation(dict(zip(SERVICES, values)))
        twice = a.reduce(SERVICES, f1, floor=1e-9).reduce(
            SERVICES, f2, floor=1e-9
        )
        combined = a.reduce(SERVICES, 1 - (1 - f1) * (1 - f2), floor=1e-9)
        np.testing.assert_allclose(
            twice.as_array(), combined.as_array(), rtol=1e-10
        )

    @given(
        values=st.lists(
            st.floats(min_value=0.1, max_value=10.0), min_size=3, max_size=3
        ),
        factor=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_preserves_proportions(self, values, factor):
        a = Allocation(dict(zip(SERVICES, values)))
        scaled = a.scale(factor)
        assert scaled.total() == pytest.approx(a.total() * factor)
        np.testing.assert_allclose(
            scaled.as_array() / a.as_array(), factor
        )


class TestEngineContinuity:
    @given(
        scale=st.floats(min_value=0.5, max_value=2.0),
        eps=st.floats(min_value=1e-4, max_value=5e-3),
        workload=st.floats(min_value=50.0, max_value=250.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_small_changes_small_effects(self, scale, eps, workload):
        """The latency surface has no jumps: nearby allocations give
        nearby latencies (relative continuity)."""
        base = _APP.generous_allocation(workload).scale(scale)
        nearby = base.scale(1.0 + eps)
        l1 = _ENGINE.noiseless_latency(base, workload)
        l2 = _ENGINE.noiseless_latency(nearby, workload)
        assert abs(l2 - l1) / l1 < 0.3

    @given(workload=st.floats(min_value=10.0, max_value=400.0))
    @settings(max_examples=40, deadline=None)
    def test_latency_positive_and_finite(self, workload):
        alloc = _APP.generous_allocation(max(workload, 1.0))
        latency = _ENGINE.noiseless_latency(alloc, workload)
        assert np.isfinite(latency)
        assert latency > 0
