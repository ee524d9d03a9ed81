"""Analytical model of Linux CFS bandwidth-control throttling.

Kubernetes CPU limits are enforced by CFS bandwidth control: each container
gets a quota of ``x_i * period`` CPU-seconds per period (period = 100 ms by
default).  When the container's runnable threads exhaust the quota before
the period ends, *all* of them are frozen until the next period — that
frozen time is exported by cAdvisor as ``cpu_cfs_throttled_seconds_total``,
one of only two per-service signals PEMA consumes.

The discrete-event simulator (``repro.sim.des``) enforces quotas explicitly.
This module provides the matching closed forms for the analytical engine:

* a period throttles iff instantaneous concurrency ``N > x`` (demand above
  allocation exhausts the quota before the period ends);
* within a throttled period the container runs for ``x/N`` of the period and
  is frozen for the remaining ``1 - x/N``.

Expected throttled seconds per monitoring interval therefore combine the
exceed probability with the conditional severity ``E[1 - x/N | N > x]``,
which we approximate with the tail-expectation ratio (exact in the fluid
limit)::

    throttled_frac ≈ E[(N - x)+] / E[N | N > x] ≈ E[(N - x)+] / (E[(N-x)+] + x·P(N>x))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CFSModel", "DEFAULT_PERIOD"]

DEFAULT_PERIOD = 0.1
"""Default CFS bandwidth period in seconds (Linux default 100 ms)."""

_EPS = 1e-12


@dataclass(frozen=True)
class CFSModel:
    """Closed-form CFS throttling signals.

    ``period`` only matters for the DES; the analytical forms work on
    per-second fractions.  ``zero_floor`` clips negligible throttle readings
    to exactly 0.0, matching Prometheus counters that simply do not advance
    when no throttling happens (and matching the paper's assumption that an
    amply-provisioned service shows *zero* throttling).
    """

    period: float = DEFAULT_PERIOD
    zero_floor: float = 1e-3

    def throttled_fraction(
        self, exceed_prob: np.ndarray, excess: np.ndarray, alloc: np.ndarray
    ) -> np.ndarray:
        """Fraction of wall-clock time the container spends frozen.

        Parameters
        ----------
        exceed_prob:
            ``P(N > x)`` per service (:func:`~repro.sim.concurrency.gamma_sf`).
        excess:
            ``E[(N - x)+]`` per service.
        alloc:
            CPU allocation per service.
        """
        exceed_prob = np.asarray(exceed_prob, dtype=np.float64)
        excess = np.asarray(excess, dtype=np.float64)
        alloc = np.asarray(alloc, dtype=np.float64)
        denom = excess + np.maximum(alloc, _EPS) * exceed_prob
        frac = np.where(denom > _EPS, excess / np.maximum(denom, _EPS), 0.0)
        # The container can at most be frozen for the whole exceed time.
        return np.clip(frac, 0.0, 1.0) * np.clip(exceed_prob, 0.0, 1.0)

    def throttle_seconds(
        self,
        exceed_prob: np.ndarray,
        excess: np.ndarray,
        alloc: np.ndarray,
        interval: float | np.ndarray,
    ) -> np.ndarray:
        """Throttled seconds accumulated over a monitoring interval.

        ``interval`` (validated by the engines' ``observe``) is a scalar,
        or a ``(B, 1)`` column of per-cell intervals for a ``(B, S)`` batch.
        """
        frac = self.throttled_fraction(exceed_prob, excess, alloc)
        seconds = frac * interval
        seconds[seconds < self.zero_floor] = 0.0
        return seconds
