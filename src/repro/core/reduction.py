"""Reduction sizing — Eqns. (3), (4), (10), (11) of the paper.

The *reduction signal* is the normalized headroom between the response
target and the (moving-average) measured response::

    signal = clip( (R_buf - r_avg) / (alpha * R), 0, 1 )

where ``R_buf = response_buffer * R``.  From the signal follow:

* ``n_t = floor(N * signal)`` — how many microservices to shrink (Eqn. 3 /
  10 with the K-sample moving average of Eqn. 10);
* ``Δt = beta * signal`` — the fractional CPU reduction applied to each
  selected service (Eqn. 4 / 11).

As the response approaches the target the signal decays to zero, so PEMA
slows down and finally stops — the QoS-conservative behaviour of §3.1.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Sequence

import numpy as np

__all__ = ["reduction_signal", "num_targets", "reduction_fraction"]


def _window_mean(window: Sequence[float]) -> float:
    """``float(np.mean(window))`` bit-for-bit.

    NumPy's pairwise reduction degenerates to a plain sequential sum
    (starting from 0.0) below 8 elements, which covers the default
    5-sample moving average without a NumPy call; longer (and empty)
    windows take the real ``np.mean``.
    """
    n = len(window)
    if 0 < n < 8:
        s = 0.0
        for v in window:
            s = s + v
        return float(s / n)
    return float(np.mean(np.asarray(window, dtype=np.float64)))


def reduction_signal(
    responses: Sequence[float] | float,
    target: float,
    alpha: float,
    response_buffer: float = 1.0,
) -> float:
    """Normalized resource-reduction opportunity in [0, 1].

    ``responses`` is either the most recent response (Eqns. 3-4) or the K
    most recent responses, which are averaged (Eqns. 10-11).
    """
    if target <= 0:
        raise ValueError(f"target must be positive: {target}")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1]: {alpha}")
    if not 0 < response_buffer <= 1:
        raise ValueError(f"response_buffer must be in (0, 1]: {response_buffer}")
    if isinstance(responses, Real):
        r_avg = float(responses)
    else:
        r_avg = _window_mean(responses)
    if r_avg < 0:
        raise ValueError(f"responses must be non-negative: {r_avg}")
    raw = (response_buffer * target - r_avg) / (alpha * target)
    return float(min(max(raw, 0.0), 1.0))


def num_targets(n_services: int, signal: float) -> int:
    """Eqn. (3): how many microservices to reduce this step.

    Floors to an integer; a zero result means PEMA holds (converged or out
    of headroom).
    """
    if n_services < 1:
        raise ValueError("n_services must be >= 1")
    if not 0 <= signal <= 1:
        raise ValueError(f"signal must be in [0, 1]: {signal}")
    return math.floor(n_services * signal)


def reduction_fraction(beta: float, signal: float) -> float:
    """Eqn. (4): per-service fractional CPU reduction for this step."""
    if not 0 < beta <= 1:
        raise ValueError(f"beta must be in (0, 1]: {beta}")
    if not 0 <= signal <= 1:
        raise ValueError(f"signal must be in [0, 1]: {signal}")
    return beta * signal
