"""Dynamic per-service bottleneck thresholds — Eqns. (6) and (7).

PEMA cannot know each microservice's bottleneck utilization/throttling
levels a priori (they differ per service, Fig. 8).  It starts from
conservative values — 15% utilization, zero throttling — and ratchets them
up to the highest levels *observed while the SLO held*::

    U_th_i = max(U_th_i, u_i)        (6)
    H_th_i = max(H_th_i, h_i)        (7)

Ratcheting only happens on SLO-satisfying intervals (the controller skips
the update when rolling back), so the thresholds converge toward each
service's safe operating ceiling.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.sim.types import IntervalMetrics

__all__ = ["ThresholdTracker"]


class ThresholdTracker:
    """Tracks U_th and H_th for every microservice.

    ``u_th`` and ``h_th`` are lists in ``services`` order, so the ratchet
    and the selection stage (:mod:`repro.core.selection`) read them by
    position against an :class:`IntervalMetrics`' columns.
    """

    def __init__(
        self,
        services: Iterable[str],
        init_util: float = 0.15,
        init_throttle: float = 0.0,
    ) -> None:
        names = tuple(services)
        if not names:
            raise ValueError("need at least one service")
        if not 0 <= init_util <= 1:
            raise ValueError(f"init_util must be in [0, 1]: {init_util}")
        if init_throttle < 0:
            raise ValueError(f"init_throttle must be >= 0: {init_throttle}")
        self._names = names
        self.u_th: list[float] = [init_util] * len(names)
        self.h_th: list[float] = [init_throttle] * len(names)

    @property
    def services(self) -> tuple[str, ...]:
        return self._names

    def util_threshold(self, name: str) -> float:
        return self.u_th[self._position(name)]

    def throttle_threshold(self, name: str) -> float:
        return self.h_th[self._position(name)]

    def _position(self, name: str) -> int:
        try:
            return self._names.index(name)
        except ValueError:
            raise KeyError(name) from None

    def update(self, metrics: IntervalMetrics) -> None:
        """Apply Eqns. (6)-(7) with the latest interval's observations.

        ``metrics`` must cover exactly the tracked services; columns in
        another order are reordered first.
        """
        metrics = metrics.in_order(self._names)
        self.u_th = [
            float(u) if u > th else th
            for u, th in zip(metrics.utilizations, self.u_th)
        ]
        self.h_th = [
            float(h) if h > th else th
            for h, th in zip(metrics.throttles, self.h_th)
        ]

    def snapshot(self) -> tuple[Mapping[str, float], Mapping[str, float]]:
        """(utilization thresholds, throttling thresholds) copies."""
        return dict(zip(self._names, self.u_th)), dict(
            zip(self._names, self.h_th)
        )

    def restore(
        self, util: Mapping[str, float], throttle: Mapping[str, float]
    ) -> None:
        """Overwrite thresholds (used when bootstrapping a child range)."""
        if set(util) != set(self._names) or set(throttle) != set(self._names):
            raise ValueError("threshold snapshot covers different services")
        self.u_th = [float(util[name]) for name in self._names]
        self.h_th = [float(throttle[name]) for name in self._names]
