"""Workload-aware PEMA — §3.4: pseudo-parallel PEMAs over dynamic ranges.

:class:`WorkloadAwarePEMA` wraps a :class:`RangeTree` of per-range
controllers behind the same ``decide(metrics) -> Allocation`` protocol as a
single controller:

* **bootstrap**: the first ``slope_samples`` intervals keep the initial
  allocation fixed and collect (workload, response) pairs to regress the
  latency-per-rps slope ``m`` (Fig. 10a);
* **routing**: each interval is routed to the leaf range covering its
  workload; that range's controller steps with the dynamic target
  ``R(λ) = m (λ - λ_max) + R_SLO`` (Eqn. 9);
* **range switches**: when the workload jumps to a different range (e.g.
  the Fig. 18 bursts), the new range's stored allocation is applied
  immediately and the cross-over interval is *not* fed to the controller —
  its metrics were produced under another range's allocation;
* **splitting**: ranges split per the tree policy, bootstrapping children
  from the parent's state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import PEMAConfig
from repro.core.controller import PEMAController, StepResult, decision_info
from repro.core.target import DynamicTarget, learn_slope
from repro.core.workload_range import RangeTree, SplitEvent, WorkloadRange
from repro.sim.types import Allocation, IntervalMetrics

__all__ = ["WorkloadAwarePEMA", "ManagerStep"]


@dataclass(frozen=True)
class ManagerStep:
    """Bookkeeping for one workload-aware step (reported by the benches)."""

    phase: str  # "bootstrap" | "switch" | "control"
    range_label: str
    pema_id: int
    target: float
    action: str
    allocation: Allocation
    split: SplitEvent | None = None


class WorkloadAwarePEMA:
    """Dynamic-workload-range resource manager."""

    def __init__(
        self,
        services: tuple[str, ...] | list[str],
        slo: float,
        initial_allocation: Allocation,
        *,
        workload_low: float,
        workload_high: float,
        min_range_width: float,
        config: PEMAConfig | None = None,
        split_after: int = 15,
        slope_samples: int = 6,
        seed: int = 0,
    ) -> None:
        if not 0 <= workload_low < workload_high:
            raise ValueError("need 0 <= workload_low < workload_high")
        if slope_samples < 0:
            raise ValueError("slope_samples must be >= 0")
        self.slo = float(slo)
        self.config = config or PEMAConfig()
        self.rng = np.random.default_rng(seed)
        root = PEMAController(
            services,
            slo,
            initial_allocation,
            self.config,
            seed=int(self.rng.integers(2**31 - 1)),
        )
        self.tree = RangeTree.initial(
            workload_low,
            workload_high,
            root,
            min_width=min_range_width,
            split_after=split_after,
        )
        self.slope_samples = slope_samples
        self._bootstrap_workloads: list[float] = []
        self._bootstrap_responses: list[float] = []
        self.dynamic_target: DynamicTarget | None = (
            DynamicTarget(slo=self.slo, slope=0.0) if slope_samples == 0 else None
        )
        self._initial_allocation = initial_allocation
        self._active: WorkloadRange | None = None
        self.history: list[ManagerStep] = []
        #: The routed controller's result on a control step, else None.
        self._last_result: StepResult | None = None

    # -- protocol ---------------------------------------------------------------
    @property
    def allocation(self) -> Allocation:
        if self._active is not None:
            return self._active.controller.allocation
        return self._initial_allocation

    def decide(self, metrics: IntervalMetrics) -> Allocation:
        """Route the interval and return the next allocation."""
        # Phase 1: slope bootstrap with a fixed allocation (Fig. 10a).
        if self.dynamic_target is None:
            self._bootstrap_workloads.append(metrics.workload_rps)
            self._bootstrap_responses.append(metrics.latency_p95)
            if len(self._bootstrap_workloads) >= self.slope_samples:
                slope = learn_slope(
                    self._bootstrap_workloads, self._bootstrap_responses
                )
                self.dynamic_target = DynamicTarget(slo=self.slo, slope=slope)
            self._last_result = None
            self._log(
                phase="bootstrap",
                leaf=None,
                target=self.slo,
                action="hold",
                allocation=self._initial_allocation,
                split=None,
            )
            return self._initial_allocation

        leaf = self.tree.find(metrics.workload_rps)

        # Phase 2: range switch — apply the new range's allocation, skip the
        # controller step for this cross-over interval.
        if leaf is not self._active:
            self._active = leaf
            self._last_result = None
            self._log(
                phase="switch",
                leaf=leaf,
                target=self.slo,
                action="switch",
                allocation=leaf.controller.allocation,
                split=None,
            )
            return leaf.controller.allocation

        # Phase 3: normal control step with the dynamic target.
        target = self.dynamic_target.target(metrics.workload_rps, leaf.high)
        result = leaf.controller.step(metrics, reduction_target=target)
        self._last_result = result
        split = self.tree.note_step(leaf, self.rng)
        if split is not None:
            # The active leaf was replaced by its children; re-resolve on
            # the next interval.
            self._active = None
        self._log(
            phase="control",
            leaf=leaf,
            target=target,
            action=result.action.value,
            allocation=result.allocation,
            split=split,
        )
        return result.allocation

    # -- introspection --------------------------------------------------------------
    @property
    def slope(self) -> float | None:
        return None if self.dynamic_target is None else self.dynamic_target.slope

    def range_labels(self) -> tuple[str, ...]:
        return tuple(
            leaf.label() for leaf in sorted(self.tree.leaves, key=lambda r: r.low)
        )

    def state_snapshot(self) -> dict:
        """JSON-ready internal state: the manager-state artifact channel.

        Everything the Fig. 13/14 reports inspect — the learned
        latency-per-rps slope, every recorded range split, and the final
        leaf ranges (sorted by lower bound) — as plain data that
        round-trips losslessly through the artifact/store JSON codecs.
        The always-on service reuses this snapshot live: its ``/state``
        endpoint and state-store flushes serve exactly this payload, so
        a service run and an offline ``capture`` run expose the manager
        through one schema.
        """
        slope = self.slope
        return {
            "kind": "workload_aware_pema",
            "slo": float(self.slo),
            "slope": None if slope is None else float(slope),
            "splits": [
                {
                    "step": int(s.step),
                    "parent": [float(s.parent[0]), float(s.parent[1])],
                    "lower": [float(s.lower[0]), float(s.lower[1])],
                    "upper": [float(s.upper[0]), float(s.upper[1])],
                    "lower_pema_id": int(s.lower_pema_id),
                    "upper_pema_id": int(s.upper_pema_id),
                }
                for s in self.tree.splits
            ],
            "ranges": [
                {
                    "low": float(leaf.low),
                    "high": float(leaf.high),
                    "pema_id": int(leaf.pema_id),
                    "iterations": int(leaf.iterations),
                }
                for leaf in sorted(self.tree.leaves, key=lambda r: r.low)
            ],
            "n_processes": int(self.tree.n_processes()),
        }

    def last_action(self) -> str:
        return self.history[-1].action if self.history else "none"

    def last_decision(self) -> dict | None:
        """The previous step's causal record (``decision_trace`` hook).

        Wraps the routed controller's own :func:`pema_decision_info`
        record (``None`` outside the control phase) with the routing
        context — which range handled the step and under what dynamic
        target — so a trace shows both layers of the §3.4 manager.
        """
        if not self.history:
            return None
        last = self.history[-1]
        result = self._last_result
        return {
            "kind": "workload_aware_pema",
            "phase": last.phase,
            "range": last.range_label,
            "pema_id": int(last.pema_id),
            "target": float(last.target),
            "action": last.action,
            "split": last.split is not None,
            "pema": None if result is None else decision_info(result),
        }

    def _log(
        self,
        phase: str,
        leaf: WorkloadRange | None,
        target: float,
        action: str,
        allocation: Allocation,
        split: SplitEvent | None,
    ) -> None:
        self.history.append(
            ManagerStep(
                phase=phase,
                range_label="" if leaf is None else leaf.label(),
                pema_id=0 if leaf is None else leaf.pema_id,
                target=target,
                action=action,
                allocation=allocation,
                split=split,
            )
        )
