"""Reduction sizing: Eqns. (3), (4), (10), (11)."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reduction import num_targets, reduction_fraction, reduction_signal


class TestReductionSignal:
    def test_full_headroom_saturates(self):
        # r=0, alpha=0.5: (R - 0)/(0.5 R) = 2 -> clipped to 1
        assert reduction_signal(0.0, target=1.0, alpha=0.5) == 1.0

    def test_at_target_is_zero(self):
        assert reduction_signal(1.0, target=1.0, alpha=0.5) == 0.0

    def test_above_target_clamps_to_zero(self):
        assert reduction_signal(1.5, target=1.0, alpha=0.5) == 0.0

    def test_paper_example(self):
        # SLO 250ms: more reduction at r=150 than at r=200 (paper §3.1).
        fast = reduction_signal(0.150, target=0.250, alpha=0.5,
                                response_buffer=1.0)
        slow = reduction_signal(0.200, target=0.250, alpha=0.5,
                                response_buffer=1.0)
        assert fast > slow > 0.0
        assert fast == pytest.approx((0.250 - 0.150) / (0.5 * 0.250))

    def test_moving_average_input(self):
        # Eqn (10): the K recent responses are averaged.
        single = reduction_signal(0.15, target=0.25, alpha=0.5)
        averaged = reduction_signal([0.10, 0.15, 0.20], target=0.25, alpha=0.5)
        assert averaged == pytest.approx(single)

    def test_buffer_scales_target(self):
        with_buffer = reduction_signal(0.20, target=0.25, alpha=0.5,
                                       response_buffer=0.95)
        without = reduction_signal(0.20, target=0.25, alpha=0.5,
                                   response_buffer=1.0)
        assert with_buffer < without

    def test_alpha_aggressiveness(self):
        # Smaller alpha -> larger signal for the same headroom.
        aggressive = reduction_signal(0.20, target=0.25, alpha=0.1)
        conservative = reduction_signal(0.20, target=0.25, alpha=0.9)
        assert aggressive > conservative

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target": 0.0, "alpha": 0.5},
            {"target": 1.0, "alpha": 0.0},
            {"target": 1.0, "alpha": 1.5},
            {"target": 1.0, "alpha": 0.5, "response_buffer": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            reduction_signal(0.5, **kwargs)

    def test_negative_response_rejected(self):
        with pytest.raises(ValueError):
            reduction_signal(-0.1, target=1.0, alpha=0.5)

    @given(
        r=st.floats(min_value=0.0, max_value=2.0),
        alpha=st.floats(min_value=0.01, max_value=1.0),
        buffer=st.floats(min_value=0.5, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_always_in_unit_interval(self, r, alpha, buffer):
        s = reduction_signal(r, target=1.0, alpha=alpha, response_buffer=buffer)
        assert 0.0 <= s <= 1.0

    @given(
        window=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12),
        alpha=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_equals_numpy_mean_and_clip(self, window, alpha):
        """Plain-float sizing is bitwise NumPy's mean + clip."""
        raw = (0.9 * 0.25 - float(np.mean(tuple(window)))) / (alpha * 0.25)
        expected = float(np.clip(raw, 0.0, 1.0))
        for responses in (window, tuple(window), deque(window)):
            got = reduction_signal(
                responses, target=0.25, alpha=alpha, response_buffer=0.9
            )
            assert type(got) is float
            assert got.hex() == expected.hex()

    def test_nan_response_propagates(self):
        assert math.isnan(reduction_signal(float("nan"), target=1.0, alpha=0.5))
        assert math.isnan(reduction_signal([0.1, float("nan")], target=1.0, alpha=0.5))


class TestNumTargets:
    def test_eqn3_floor(self):
        assert num_targets(10, 0.55) == 5
        assert num_targets(41, 1.0) == 41
        assert num_targets(13, 0.0) == 0

    def test_small_signal_gives_zero(self):
        assert num_targets(4, 0.2) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            num_targets(0, 0.5)
        with pytest.raises(ValueError):
            num_targets(10, 1.5)


class TestReductionFraction:
    def test_eqn4(self):
        assert reduction_fraction(0.3, 0.5) == pytest.approx(0.15)
        assert reduction_fraction(0.3, 1.0) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            reduction_fraction(0.0, 0.5)
        with pytest.raises(ValueError):
            reduction_fraction(0.3, -0.1)

    @given(
        beta=st.floats(min_value=0.01, max_value=1.0),
        signal=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_beta(self, beta, signal):
        assert 0.0 <= reduction_fraction(beta, signal) <= beta
