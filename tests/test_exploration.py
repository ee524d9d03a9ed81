"""Exploration probability: Eqn. (8)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exploration import exploration_probability


class TestExplorationProbability:
    def test_floor_at_target(self):
        # r == R: signal 0 -> p_e == B.
        assert exploration_probability(0.25, 0.25, 0.5, 0.05, 0.005) == (
            pytest.approx(0.005)
        )

    def test_max_with_full_headroom(self):
        # r == 0: signal 1 -> p_e == A + B.
        assert exploration_probability(0.0, 0.25, 0.5, 0.05, 0.005) == (
            pytest.approx(0.055)
        )

    def test_decreases_toward_target(self):
        ps = [
            exploration_probability(r, 0.25, 0.5, 0.1, 0.01)
            for r in (0.05, 0.10, 0.15, 0.20, 0.25)
        ]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_above_target_stays_at_floor(self):
        assert exploration_probability(0.40, 0.25, 0.5, 0.1, 0.01) == (
            pytest.approx(0.01)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target": 0.0},
            {"alpha": 0.0},
            {"explore_a": 0.05, "explore_b": 0.1},  # B > A
            {"explore_a": 0.7, "explore_b": 0.5},  # A + B > 1
        ],
    )
    def test_validation(self, kwargs):
        defaults = dict(
            response=0.1, target=0.25, alpha=0.5, explore_a=0.1, explore_b=0.01
        )
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            exploration_probability(**defaults)

    def test_negative_response_rejected(self):
        with pytest.raises(ValueError):
            exploration_probability(-1.0, 0.25, 0.5, 0.1, 0.01)

    @given(
        response=st.floats(min_value=0.0, max_value=1.0),
        alpha=st.floats(min_value=0.05, max_value=1.0),
        a=st.floats(min_value=0.0, max_value=0.5),
        b_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_hold(self, response, alpha, a, b_frac):
        b = a * b_frac  # ensures B <= A and A + B <= 1 for a <= 0.5
        p = exploration_probability(response, 0.5, alpha, a, b)
        assert b - 1e-12 <= p <= a + b + 1e-12


@given(
    response=st.floats(min_value=0.0, max_value=2.0),
    alpha=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_plain_float_clip_equals_numpy(response, alpha):
    expected = 0.1 * float(np.clip((0.5 - response) / (alpha * 0.5), 0.0, 1.0)) + 0.01
    assert exploration_probability(response, 0.5, alpha, 0.1, 0.01) == expected


def test_nan_response_propagates():
    assert math.isnan(exploration_probability(float("nan"), 0.5, 0.5, 0.1, 0.01))
