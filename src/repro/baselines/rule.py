"""RULE — commercial rule-based autoscaling baseline (§4.2 and §5).

The paper compares PEMA against "Kubernetes' rule-based resource scaling":
utilization-threshold scaling in the style of the HPA/VPA and Google
Autopilot's percentile rules.  Two modes are provided:

* ``"utilization"`` (default) — keep every service's CPU utilization at a
  single app-wide target.  Because bottleneck utilizations differ per
  service (≈10-25%, Fig. 8a) the target must be set to the *lowest* safe
  level, which is precisely why rule-based scaling over-provisions
  (paper §2.3) — the headroom that lets PEMA save up to 33%.
* ``"vpa"`` — Kubernetes-VPA style: allocate the 90th percentile of
  recent fine-grained usage samples plus 15% overprovision (the rule the
  paper quotes in §5 for the Kubernetes autoscaler [20]).

Scaling up is immediate; scaling down is damped (HPA stabilization
window) to avoid flapping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.sim.batched import BatchObservation, DecisionBank
from repro.sim.types import Allocation, IntervalMetrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.spec import AppSpec

__all__ = ["RuleBasedAutoscaler", "RuleBatch"]


class RuleBatch(DecisionBank):
    """A vectorized bank of :class:`RuleBasedAutoscaler` cells.

    Holds ``B`` independent rule-based autoscalers (same service set, per-
    cell parameters) as stacked arrays and applies the scaling rule to all
    of them in one call.  Every operation is the same IEEE float op, in
    the same order, as the scalar ``decide`` — cell ``i`` of a batch is
    byte-identical to a scalar autoscaler fed the same metrics.  The rule
    ignores the SLO; ``slos`` is the fixed row the records carry.
    """

    def __init__(
        self,
        app: "AppSpec",
        scalers: "Sequence[RuleBasedAutoscaler]",
        slos: Sequence[float],
    ) -> None:
        super().__init__(app, scalers, slos)
        # The scalar constructor already validated every parameter.
        self._vpa = np.asarray([s.mode == "vpa" for s in scalers])
        self._target = np.asarray([s.target_utilization for s in scalers])
        self._overprovision = np.asarray([s.overprovision for s in scalers])
        self._down_limit = np.asarray([s.scale_down_limit for s in scalers])
        self._min_cpu = np.asarray([s.min_cpu for s in scalers])
        self._max_cpu = np.asarray([s.max_cpu for s in scalers])

    def step(self, obs: BatchObservation, totals: np.ndarray) -> np.ndarray:
        """Apply the rule to every cell; returns the ``(B, S)`` allocations."""
        current = self.allocation
        by_util = (obs.usage_cores / self._target[:, None]) * (
            1.0 + self._overprovision[:, None]
        )
        by_p90 = obs.usage_p90_cores * (1.0 + self._overprovision[:, None])
        desired = np.where(self._vpa[:, None], by_p90, by_util)
        stabilized = np.maximum(
            desired, current * (1.0 - self._down_limit[:, None])
        )
        desired = np.where(desired < current, stabilized, desired)
        self.allocation = np.minimum(
            np.maximum(desired, self._min_cpu[:, None]), self._max_cpu[:, None]
        )
        return self.allocation


class RuleBasedAutoscaler:
    """Utilization/percentile rule-based vertical autoscaler."""

    #: The batched sweep runner's vectorized form of this autoscaler.
    decision_bank = RuleBatch

    def __init__(
        self,
        initial_allocation: Allocation,
        *,
        mode: str = "utilization",
        target_utilization: float = 0.10,
        overprovision: float = 0.15,
        scale_down_limit: float = 0.15,
        min_cpu: float = 0.05,
        max_cpu: float = 32.0,
    ) -> None:
        if mode not in ("utilization", "vpa"):
            raise ValueError(f"unknown mode {mode!r}")
        if not 0 < target_utilization <= 1:
            raise ValueError("target_utilization must be in (0, 1]")
        if overprovision < 0:
            raise ValueError("overprovision must be >= 0")
        if not 0 < scale_down_limit <= 1:
            raise ValueError("scale_down_limit must be in (0, 1]")
        if min_cpu <= 0 or max_cpu <= min_cpu:
            raise ValueError("need 0 < min_cpu < max_cpu")
        self.mode = mode
        self.target_utilization = target_utilization
        self.overprovision = overprovision
        self.scale_down_limit = scale_down_limit
        self.min_cpu = min_cpu
        self.max_cpu = max_cpu
        self._allocation = initial_allocation

    @property
    def allocation(self) -> Allocation:
        return self._allocation

    def decide(self, metrics: IntervalMetrics) -> Allocation:
        """Apply the scaling rule to every service independently."""
        allocation = self._allocation
        names = allocation.names
        metrics = metrics.in_order(names)
        if self.mode == "utilization":
            desired_all = [
                (usage / self.target_utilization) * (1.0 + self.overprovision)
                for usage in metrics.usages
            ]
        else:  # vpa
            desired_all = [
                p90 * (1.0 + self.overprovision) for p90 in metrics.usages_p90
            ]
        new_values: list[float] = []
        for desired, current in zip(desired_all, allocation.as_array().tolist()):
            if desired < current:
                # HPA-style stabilization: bounded downscale per interval.
                desired = max(desired, current * (1.0 - self.scale_down_limit))
            new_values.append(min(max(desired, self.min_cpu), self.max_cpu))
        self._allocation = Allocation._from_list(names, new_values)
        return self._allocation
