"""CFS throttling closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cfs import CFSModel, DEFAULT_PERIOD


class TestCFSModel:
    def test_default_period_is_linux_default(self):
        assert DEFAULT_PERIOD == pytest.approx(0.1)

    def test_no_exceed_no_throttle(self):
        cfs = CFSModel()
        frac = cfs.throttled_fraction(
            np.array([0.0]), np.array([0.0]), np.array([1.0])
        )
        assert frac[0] == 0.0

    def test_fraction_bounded(self):
        cfs = CFSModel()
        frac = cfs.throttled_fraction(
            np.array([1.0]), np.array([100.0]), np.array([0.1])
        )
        assert 0.0 <= frac[0] <= 1.0

    def test_zero_floor_clips_tiny_readings(self):
        cfs = CFSModel(zero_floor=1e-3)
        seconds = cfs.throttle_seconds(
            np.array([1e-6]), np.array([1e-7]), np.array([1.0]), interval=120.0
        )
        assert seconds[0] == 0.0

    def test_seconds_scale_with_interval(self):
        cfs = CFSModel(zero_floor=0.0)
        args = (np.array([0.5]), np.array([1.0]), np.array([1.0]))
        short = cfs.throttle_seconds(*args, interval=60.0)
        long = cfs.throttle_seconds(*args, interval=120.0)
        assert long[0] == pytest.approx(2 * short[0])

    def test_interval_column_scales_each_row(self):
        # A (B, S) batch takes a (B, 1) column of per-cell intervals.
        cfs = CFSModel(zero_floor=0.0)
        row = (np.array([0.5, 0.2]), np.array([1.0, 0.3]), np.array([1.0, 2.0]))
        batch = tuple(np.stack([a, a]) for a in row)
        seconds = cfs.throttle_seconds(*batch, np.array([[60.0], [120.0]]))
        assert seconds[0].tolist() == cfs.throttle_seconds(*row, 60.0).tolist()
        assert seconds[1].tolist() == cfs.throttle_seconds(*row, 120.0).tolist()

    @given(
        exceed=st.floats(min_value=0.0, max_value=1.0),
        excess=st.floats(min_value=0.0, max_value=50.0),
        alloc=st.floats(min_value=0.05, max_value=20.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_fraction_always_a_probability(self, exceed, excess, alloc):
        cfs = CFSModel()
        frac = cfs.throttled_fraction(
            np.array([exceed]), np.array([excess]), np.array([alloc])
        )[0]
        assert 0.0 <= frac <= 1.0

    def test_severity_increases_with_excess(self):
        cfs = CFSModel()
        alloc = np.array([1.0])
        exceed = np.array([0.5])
        small = cfs.throttled_fraction(exceed, np.array([0.1]), alloc)[0]
        big = cfs.throttled_fraction(exceed, np.array([5.0]), alloc)[0]
        assert big > small
