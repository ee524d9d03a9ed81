"""Bottleneck-avoiding candidate selection — Eqn. (5) and Alg. 1 lines 8-10.

Three stages per control step:

1. **Throttle filter** (Alg. 1 line 8): only services whose CPU throttling
   time is within their learned threshold are eligible —
   ``I_t = {i : h_i <= H_th_i}``.
2. **Utilization-guided inclusion** (Eqn. 5 / line 9): each eligible
   service enters the candidate set ``I*_t`` with probability

       p_i = 1 - (u*_i - min(u*)) / (1 - min(u*)),   u*_i = u_i / U_th_i

   so the coolest service is included with probability 1 and a service at
   its threshold with probability 0.  In the degenerate case where every
   eligible service sits at its threshold, all tie as the coolest and
   each keeps probability 1 (the limit of the formula).
3. **Uniform cut** (line 10): if more than ``n_t`` candidates were
   included, pick ``n_t`` uniformly at random; otherwise take them all.
"""

from __future__ import annotations

import numpy as np

from repro.core.thresholds import ThresholdTracker
from repro.sim.types import IntervalMetrics

__all__ = [
    "eligible_positions",
    "position_probabilities",
    "select_targets",
]

_EPS = 1e-9


def eligible_positions(
    metrics: IntervalMetrics, thresholds: ThresholdTracker
) -> list[int]:
    """I_t as column positions; ``metrics`` in the tracker's service order."""
    return [
        i
        for i, (h, h_th) in enumerate(zip(metrics.throttles, thresholds.h_th))
        if h <= h_th + _EPS
    ]


def position_probabilities(
    metrics: IntervalMetrics,
    thresholds: ThresholdTracker,
    positions: list[int],
) -> list[float]:
    """Eqn. (5) for the services at ``positions`` (same order as above).

    Normalized utilizations ``u*`` are guaranteed <= 1 because the
    thresholds were ratcheted (Eqn. 6) before selection.  The coolest
    eligible service always has probability 1 — including the degenerate
    case where every service sits exactly at its threshold (``u* = 1``
    for all), which makes Eqn. (5) a 0/0.  There every service ties as
    the coolest, so each one keeps probability 1, matching the limit of
    the formula as the utilizations approach each other.
    """
    if not positions:
        return []
    util, u_th = metrics.utilizations, thresholds.u_th
    u_star = [min(util[i] / max(u_th[i], _EPS), 1.0) for i in positions]
    u_min = min(u_star)
    denom = 1.0 - u_min
    if denom <= _EPS:
        # Zero range: everyone ties as the coolest service.
        return [1.0] * len(positions)
    return [min(max(1.0 - (u - u_min) / denom, 0.0), 1.0) for u in u_star]


def select_targets(
    probabilities: dict[str, float],
    n_targets: int,
    rng: np.random.Generator,
) -> tuple[str, ...]:
    """Build I*_t by Bernoulli inclusion, then cut uniformly to n_t."""
    if n_targets < 0:
        raise ValueError("n_targets must be >= 0")
    if n_targets == 0 or not probabilities:
        return ()
    names = list(probabilities)
    draws = rng.random(len(names)).tolist()
    included = [n for n, d in zip(names, draws) if d < probabilities[n]]
    if len(included) <= n_targets:
        return tuple(included)
    picked = rng.choice(len(included), size=n_targets, replace=False)
    return tuple(included[i] for i in sorted(picked))
