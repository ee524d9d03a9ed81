"""Bottleneck-avoiding selection: Eqn. (5) and Alg. 1 lines 8-10."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.selection import (
    eligible_positions,
    position_probabilities,
    select_targets,
)
from repro.core import PEMAConfig, PEMAController
from repro.core.thresholds import ThresholdTracker
from repro.sim import Allocation, IntervalMetrics
from tests.conftest import make_metrics

SERVICES = ("front", "logic", "db", "cache")
FRONT, LOGIC, DB, CACHE = range(4)  # column positions of SERVICES


def tracker(**updates) -> ThresholdTracker:
    t = ThresholdTracker(SERVICES)
    if updates:
        t.update(make_metrics(0.1, **updates))
    return t


class TestEligibility:
    def test_all_eligible_when_no_throttle(self):
        m = make_metrics(0.1)
        assert eligible_positions(m, tracker()) == [FRONT, LOGIC, DB, CACHE]

    def test_throttled_service_filtered(self):
        m = make_metrics(0.1, throttles={"db": 5.0})
        assert eligible_positions(m, tracker()) == [FRONT, LOGIC, CACHE]

    def test_threshold_learning_restores_eligibility(self):
        t = tracker(throttles={"db": 5.0})  # threshold learned at 5.0
        m = make_metrics(0.1, throttles={"db": 4.0})
        assert DB in eligible_positions(m, t)


class TestInclusionProbabilities:
    def test_empty_eligible(self):
        assert position_probabilities(make_metrics(0.1), tracker(), []) == []

    def test_eqn5_extremes(self):
        # front at its threshold (u* = 1) -> p = 0; cache coolest -> p = 1.
        t = tracker(utils={"front": 0.50, "logic": 0.30, "db": 0.30,
                           "cache": 0.20})
        m = make_metrics(
            0.1, utils={"front": 0.50, "logic": 0.15, "db": 0.15, "cache": 0.05}
        )
        probs = position_probabilities(m, t, [FRONT, LOGIC, DB, CACHE])
        assert probs[FRONT] == pytest.approx(0.0)
        assert probs[CACHE] == pytest.approx(1.0)
        assert 0.0 < probs[LOGIC] < 1.0

    def test_all_at_threshold_ties_as_coolest(self):
        # Degenerate 0/0 in Eqn. (5): everyone at threshold means everyone
        # ties as the coolest service, so each keeps probability 1.
        t = tracker(utils={s: 0.30 for s in SERVICES})
        m = make_metrics(0.1, utils={s: 0.30 for s in SERVICES})
        probs = position_probabilities(m, t, [FRONT, LOGIC, DB, CACHE])
        assert all(p == pytest.approx(1.0) for p in probs)

    def test_uniform_utilization_gives_probability_one(self):
        # Everyone equally cool: all are the minimum -> all p = 1.
        m = make_metrics(0.1, utils={s: 0.05 for s in SERVICES})
        probs = position_probabilities(m, tracker(), [FRONT, LOGIC, DB, CACHE])
        assert all(p == pytest.approx(1.0) for p in probs)

    @given(
        utils=st.lists(
            st.floats(min_value=0.0, max_value=0.15), min_size=4, max_size=4
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_probabilities_bounded(self, utils):
        m = make_metrics(0.1, utils=dict(zip(SERVICES, utils)))
        probs = position_probabilities(
            m, ThresholdTracker(SERVICES), [FRONT, LOGIC, DB, CACHE]
        )
        assert all(0.0 <= p <= 1.0 for p in probs)
        # The coolest service always has probability exactly 1.
        assert max(probs) == pytest.approx(1.0)


class TestSelectTargets:
    def test_zero_targets(self, rng):
        assert select_targets({"a": 1.0}, 0, rng) == ()

    def test_cuts_to_n(self, rng):
        probs = {s: 1.0 for s in SERVICES}
        targets = select_targets(probs, 2, rng)
        assert len(targets) == 2
        assert set(targets) <= set(SERVICES)

    def test_takes_all_when_fewer_included(self, rng):
        probs = {"front": 1.0, "logic": 0.0, "db": 0.0, "cache": 0.0}
        targets = select_targets(probs, 3, rng)
        assert targets == ("front",)

    def test_zero_probabilities_select_nothing(self, rng):
        probs = {s: 0.0 for s in SERVICES}
        assert select_targets(probs, 4, rng) == ()

    def test_negative_n_rejected(self, rng):
        with pytest.raises(ValueError):
            select_targets({"a": 1.0}, -1, rng)

    def test_statistical_bias_toward_cool_services(self):
        rng = np.random.default_rng(0)
        probs = {"hot": 0.1, "cool": 0.9}
        picks = {"hot": 0, "cool": 0}
        for _ in range(2000):
            for name in select_targets(probs, 2, rng):
                picks[name] += 1
        assert picks["cool"] > picks["hot"] * 3


# -- closed form on three services -------------------------------------------
# One observation fed to a tracker (Eqns. 6-7) or to selection (Eqn. 5).
# Every value is a dyadic rational, so each expected figure below is
# exact and computed by hand from the equations, not by the code.
@dataclass
class Interval:
    utilization: tuple[float, float, float]
    throttle: tuple[float, float, float]


THREE = ("a", "b", "c")


def interval_metrics(interval: Interval, latency: float = 0.01) -> IntervalMetrics:
    u, h = interval.utilization, interval.throttle
    return IntervalMetrics(THREE, latency, 100.0, u, h, u, (0.0, 0.0, 0.0))


# ratchets a fresh tracker (U_th = 1/8, H_th = 0) through the intervals.
def call_tracker(intervals: list[Interval]) -> ThresholdTracker:
    tracker = ThresholdTracker(THREE, init_util=0.125, init_throttle=0.0)
    for interval in intervals:
        tracker.update(interval_metrics(interval))
    return tracker


RATCHET = [
    Interval((0.25, 0.0625, 0.5), (0.0, 0.5, 0.0)),
    Interval((0.125, 0.375, 0.25), (1.0, 0.25, 0.0)),
]


class TestClosedForm:
    def test_eqns_6_7_running_max(self):
        tracker = call_tracker(RATCHET)
        # U_th_i = max(1/8, u_i over both intervals)
        assert tracker.u_th == [0.25, 0.375, 0.5]
        # H_th_i = max(0, h_i over both intervals)
        assert tracker.h_th == [1.0, 0.5, 0.0]
        assert tracker.snapshot() == (
            {"a": 0.25, "b": 0.375, "c": 0.5},
            {"a": 1.0, "b": 0.5, "c": 0.0},
        )

    def test_eqn_5_with_throttle_filter(self):
        tracker = call_tracker(RATCHET)
        m = interval_metrics(Interval((0.125, 0.1875, 0.375), (0.75, 0.75, 0.0)))
        # h <= H_th: a (0.75 <= 1), c (0 <= 0); b is throttled (0.75 > 0.5).
        assert eligible_positions(m, tracker) == [0, 2]
        # u* = (1/8)/(1/4) = 1/2 for a, (3/8)/(1/2) = 3/4 for c; min 1/2,
        # so p_a = 1 and p_c = 1 - (3/4 - 1/2)/(1 - 1/2) = 1/2.
        assert position_probabilities(m, tracker, [0, 2]) == [1.0, 0.5]

    def test_eqn_5_all_eligible(self):
        tracker = call_tracker(RATCHET)
        m = interval_metrics(Interval((0.125, 0.1875, 0.375), (0.0, 0.0, 0.0)))
        # u*_b = (3/16)/(3/8) = 1/2 ties with a as the coolest.
        assert position_probabilities(m, tracker, [0, 1, 2]) == [1.0, 1.0, 0.5]

    def test_controller_step_uses_the_same_closed_form(self):
        # No exploration and a response far under the SLO: signal = 1,
        # so n_t = 3 and the step selects with the Eqn-5 probabilities of
        # the filtered test above, then ratchets Eqns. 6-7 last.
        start = Allocation({"a": 1.0, "b": 1.0, "c": 1.0})
        config = PEMAConfig(explore_a=0.0, explore_b=0.0, init_util_threshold=0.125)
        ctl = PEMAController(THREE, 1.0, start, config, seed=3)
        ctl.thresholds.restore(*call_tracker(RATCHET).snapshot())
        selected = Interval((0.125, 0.1875, 0.375), (0.75, 0.75, 0.0))
        result = ctl.step(interval_metrics(selected))
        assert result.n_targets == 3
        assert result.probabilities == (("a", 1.0), ("c", 0.5))
        assert "b" not in result.targets
        assert ctl.thresholds.u_th == [0.25, 0.375, 0.5]
        assert ctl.thresholds.h_th == [1.0, 0.75, 0.0]
