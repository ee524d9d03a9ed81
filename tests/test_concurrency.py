"""Gamma concurrency model: distribution identities and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.sim.concurrency import (
    gamma_cdf,
    gamma_quantile,
    gamma_sf,
    gamma_shape,
    tail_expectation,
)


class TestGammaPrimitives:
    def test_cdf_sf_complement(self):
        shape, scale = np.array([2.0]), np.array([1.5])
        for x in (0.5, 1.0, 3.0, 10.0):
            total = gamma_cdf(np.array([x]), shape, scale) + gamma_sf(
                np.array([x]), shape, scale
            )
            assert total[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy(self):
        shape, scale = 0.7, 3.0
        x = np.linspace(0.1, 20, 25)
        ours = gamma_sf(x, np.full_like(x, shape), np.full_like(x, scale))
        ref = stats.gamma.sf(x, shape, scale=scale)
        np.testing.assert_allclose(ours, ref, rtol=1e-10)

    def test_quantile_inverts_cdf(self):
        shape, scale = np.array([1.2]), np.array([2.0])
        for p in (0.1, 0.5, 0.9, 0.97):
            q = gamma_quantile(p, shape, scale)
            assert gamma_cdf(q, shape, scale)[0] == pytest.approx(p, abs=1e-9)

    def test_quantile_level_validation(self):
        with pytest.raises(ValueError):
            gamma_quantile(1.5, np.array([1.0]), np.array([1.0]))

    def test_zero_demand_degenerate(self):
        zero = np.array([0.0])
        one = np.array([1.0])
        assert gamma_sf(one, zero, one)[0] == 0.0
        assert gamma_cdf(one, zero, one)[0] == 1.0
        assert gamma_quantile(0.97, zero, one)[0] == 0.0
        assert tail_expectation(one, zero, zero, one)[0] == 0.0

    def test_tail_expectation_matches_numeric(self):
        shape, scale = 1.5, 2.0
        mean = shape * scale
        x = 4.0
        grid = np.linspace(x, 200, 400_000)
        numeric = np.trapezoid(
            (grid - x) * stats.gamma.pdf(grid, shape, scale=scale), grid
        )
        ours = tail_expectation(
            np.array([x]), np.array([mean]), np.array([shape]), np.array([scale])
        )[0]
        assert ours == pytest.approx(numeric, rel=1e-3)

    @given(
        x=st.floats(min_value=0.0, max_value=50.0),
        mean=st.floats(min_value=0.01, max_value=20.0),
        burst=st.floats(min_value=1.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_tail_expectation_bounds(self, x, mean, burst):
        shape = np.array([mean / burst])
        scale = np.array([burst])
        e = tail_expectation(
            np.array([x]), np.array([mean]), shape, scale
        )[0]
        assert e >= max(mean - x, 0.0) - 1e-9  # Jensen lower bound
        assert e <= mean + 1e-9  # cannot exceed the mean


# One Gamma concurrency per service: mean rho_i, variance c_i * rho_i, so
# shape rho_i / c_i and scale c_i.  The third service has no demand.
MEAN = np.array([0.5, 2.0, 0.0])
BURST = np.array([4.0, 1.5, 2.0])
SHAPE = gamma_shape(MEAN, BURST)


def overload(alloc: np.ndarray) -> np.ndarray:
    """Dimensionless queueing pressure E[(N - x)+] / x, as the kernel forms it."""
    return tail_expectation(alloc, MEAN, SHAPE, BURST) / np.maximum(alloc, 1e-12)


class TestConcurrencyModel:
    def test_bottleneck_is_97th_percentile(self):
        b = gamma_quantile(0.97, SHAPE, BURST)
        exceed = gamma_sf(b, SHAPE, BURST)
        assert exceed[0] == pytest.approx(0.03, abs=1e-9)
        assert exceed[1] == pytest.approx(0.03, abs=1e-9)
        assert b[2] == 0.0  # zero-demand service has no bottleneck

    def test_exceed_monotone_in_alloc(self):
        lo = gamma_sf(np.array([0.5, 1.0, 0.1]), SHAPE, BURST)
        hi = gamma_sf(np.array([2.0, 4.0, 1.0]), SHAPE, BURST)
        assert np.all(hi <= lo + 1e-12)

    def test_overload_monotone_in_alloc(self):
        lo = overload(np.array([0.5, 1.0, 0.1]))
        hi = overload(np.array([2.0, 4.0, 1.0]))
        assert np.all(hi <= lo + 1e-12)
        assert lo[2] == 0.0

    def test_usage_p90_capped_by_alloc(self):
        alloc = np.array([0.2, 0.5, 1.0])
        p90 = np.minimum(alloc, gamma_quantile(0.90, SHAPE, BURST))
        assert np.all(p90 <= alloc + 1e-12)
        assert p90[0] == 0.2 and p90[2] == 0.0

    @given(
        mean=st.floats(min_value=0.05, max_value=10.0),
        burst=st.floats(min_value=1.0, max_value=8.0),
        p_lo=st.floats(min_value=0.5, max_value=0.9),
        p_hi=st.floats(min_value=0.91, max_value=0.995),
    )
    @settings(max_examples=50, deadline=None)
    def test_bottleneck_monotone_in_quantile(self, mean, burst, p_lo, p_hi):
        shape = gamma_shape(np.array([mean]), np.array([burst]))
        scale = np.array([burst])
        hi = gamma_quantile(p_hi, shape, scale)
        assert hi[0] >= gamma_quantile(p_lo, shape, scale)[0] - 1e-12
        # And the defining identity: SF(bottleneck) == 1 - p.
        assert gamma_sf(hi, shape, scale)[0] == pytest.approx(1 - p_hi, abs=1e-9)
