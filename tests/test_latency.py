"""Visit-latency model and end-to-end aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import build_app
from repro.sim.concurrency import (
    gamma_quantile,
    gamma_sf,
    nondegenerate_gamma,
    tail_expectation,
)
from repro.sim.latency import (
    LatencyParams,
    _AggregationPlan,
    end_to_end_latency,
    visit_latency,
)


class TestLatencyParams:
    def test_defaults_valid(self):
        LatencyParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_gain": -1.0},
            {"throttle_gain": -0.1},
            {"frac_critical": 0.0},
            {"frac_critical": 1.0},
            {"saturation": 0.0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            LatencyParams(**kwargs)


class TestVisitLatency:
    def test_floor_when_idle(self):
        p = LatencyParams()
        floors = np.array([0.01, 0.02])
        lat = visit_latency(floors, np.zeros(2), np.zeros(2), p)
        np.testing.assert_allclose(lat, floors)

    def test_overload_inflates(self):
        p = LatencyParams(queue_gain=3.0)
        lat = visit_latency(
            np.array([0.01]), np.array([0.5]), np.array([0.0]), p
        )
        assert lat[0] == pytest.approx(0.01 * 2.5)

    def test_throttle_term_at_critical_fraction(self):
        p = LatencyParams(queue_gain=0.0, throttle_gain=5.0, frac_critical=0.05)
        at_crit = visit_latency(
            np.array([0.01]), np.zeros(1), np.array([0.05]), p
        )[0]
        assert at_crit == pytest.approx(0.01 * 6.0)  # 1 + 5 * 1^power

    def test_throttle_power_steepens_below_knee(self):
        shallow = LatencyParams(queue_gain=0.0, throttle_gain=5.0,
                                throttle_power=2.0)
        steep = LatencyParams(queue_gain=0.0, throttle_gain=5.0,
                              throttle_power=3.0)
        frac = np.array([0.15])  # ratio = 3
        lo = visit_latency(np.array([0.01]), np.zeros(1), frac, shallow)[0]
        hi = visit_latency(np.array([0.01]), np.zeros(1), frac, steep)[0]
        assert hi > lo

    def test_saturation_caps_throttle(self):
        p = LatencyParams(queue_gain=0.0, throttle_gain=5.0, saturation=6.0,
                          throttle_power=2.0)
        huge = visit_latency(np.array([0.01]), np.zeros(1), np.array([1.0]), p)[0]
        assert huge == pytest.approx(0.01 * (1 + 5 * 36.0))

    def test_power_validation(self):
        with pytest.raises(ValueError):
            LatencyParams(throttle_power=0.5)

    @given(
        floor=st.floats(min_value=1e-4, max_value=0.5),
        o1=st.floats(min_value=0.0, max_value=5.0),
        o2=st.floats(min_value=0.0, max_value=5.0),
        t1=st.floats(min_value=0.0, max_value=1.0),
        t2=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_pressure(self, floor, o1, o2, t1, t2):
        """More overload / throttling never reduces visit latency."""
        p = LatencyParams()
        lo = visit_latency(
            np.array([floor]),
            np.array([min(o1, o2)]),
            np.array([min(t1, t2)]),
            p,
        )[0]
        hi = visit_latency(
            np.array([floor]),
            np.array([max(o1, o2)]),
            np.array([max(t1, t2)]),
            p,
        )[0]
        assert hi >= lo - 1e-12


class TestEndToEnd:
    def test_hand_computed(self, tiny_app):
        per_visit = {"front": 0.010, "logic": 0.008, "db": 0.006, "cache": 0.002}
        # read (w=0.7): front + max(logic, 0.8*cache) + db + 3 hops
        read = 0.010 + max(0.008, 0.8 * 0.002) + 0.006 + 3 * 0.0005
        # write (w=0.3): front + logic + 2*db + 3 hops
        write = 0.010 + 0.008 + 2 * 0.006 + 3 * 0.0005
        expected = 0.7 * read + 0.3 * write
        got = end_to_end_latency(tiny_app, per_visit)
        assert got == pytest.approx(expected)

    def test_accepts_array_input(self, tiny_app):
        arr = np.array([0.010, 0.008, 0.006, 0.002])
        as_map = {n: v for n, v in zip(tiny_app.service_names, arr)}
        assert end_to_end_latency(tiny_app, arr) == pytest.approx(
            end_to_end_latency(tiny_app, as_map)
        )

    def test_parallel_stage_takes_max(self, tiny_app):
        fast = {"front": 0.01, "logic": 0.001, "db": 0.001, "cache": 0.001}
        slow_cache = dict(fast, cache=1.0)
        # cache appears only in the read class's parallel stage (0.8 visits)
        base = end_to_end_latency(tiny_app, fast)
        slowed = end_to_end_latency(tiny_app, slow_cache)
        assert slowed > base
        assert slowed == pytest.approx(base + 0.7 * (0.8 * 1.0 - 0.001), rel=1e-6)


class TestKernelPaths:
    """The kernel's fast paths equal the masked wrappers and the walk."""

    @given(
        x=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_nondegenerate_gamma_matches_wrappers(self, x, seed):
        rng = np.random.default_rng(seed)
        x = np.asarray(x)
        mean = rng.uniform(1e-6, 30.0, x.shape)
        scale = rng.uniform(0.5, 6.0, x.shape)
        shape = mean / scale
        sf, excess, p90 = nondegenerate_gamma(x, mean, shape, scale, 0.90)
        ref_sf = gamma_sf(x, shape, scale)
        assert sf.tobytes() == ref_sf.tobytes()
        assert excess.tobytes() == tail_expectation(x, mean, shape, scale).tobytes()
        assert p90.tobytes() == gamma_quantile(0.90, shape, scale).tobytes()
        assert nondegenerate_gamma(x, mean, shape, scale)[2] is None

    @pytest.mark.parametrize("name", ["sockshop", "hotelreservation", "trainticket"])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_aggregation_plan_rows_match_walk(self, name, batch):
        app = build_app(name)
        plan = _AggregationPlan(app)
        rng = np.random.default_rng(batch)
        per_visit = rng.uniform(0.001, 0.5, (batch, app.n_services))
        total = plan.aggregate(per_visit)
        for i in range(batch):
            assert total[i] == end_to_end_latency(app, per_visit[i])
