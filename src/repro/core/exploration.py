"""Random exploration probability — Eqn. (8) of the paper.

    p_e = A * clip((R - r) / (alpha * R), 0, 1) + B

The exploration probability is highest when there is plenty of latency
headroom (safe to jump around) and decays to the floor ``B`` as the
response approaches the SLO.
"""

from __future__ import annotations

__all__ = ["exploration_probability"]


def exploration_probability(
    response: float,
    target: float,
    alpha: float,
    explore_a: float,
    explore_b: float,
) -> float:
    """Probability of rolling back to a random historical allocation."""
    if target <= 0:
        raise ValueError(f"target must be positive: {target}")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1]: {alpha}")
    if not 0 <= explore_b <= explore_a <= 1 or explore_a + explore_b > 1:
        raise ValueError(
            f"need 0 <= B <= A <= 1 and A+B <= 1: A={explore_a}, B={explore_b}"
        )
    if response < 0:
        raise ValueError(f"response must be >= 0: {response}")
    signal = float(min(max((target - response) / (alpha * target), 0.0), 1.0))
    return explore_a * signal + explore_b
