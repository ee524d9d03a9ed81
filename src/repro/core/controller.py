"""PEMA controller — Algorithm 1 of the paper.

One :class:`PEMAController` manages one application (or one workload range
of it).  Each control step consumes the previous interval's metrics and
produces the next allocation:

1. log the previous allocation and response into the RHDb;
2. on SLO violation, roll back to the minimum-CPU non-violating recorded
   allocation (instantaneous response, per §3.5);
3. otherwise ratchet the bottleneck thresholds (Eqns. 6-7);
4. with probability ``p_e`` (Eqn. 8), explore: jump to a random
   non-violating recorded allocation;
5. otherwise size the reduction with the K-sample moving average
   (Eqns. 10-11), filter throttled services, select targets by Eqn. (5),
   and shrink them by Δt.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from repro.core.batch import PEMABatch
from repro.core.config import PEMAConfig
from repro.core.cost import CostModel, cost_weighted_probabilities
from repro.core.exploration import exploration_probability
from repro.core.reduction import num_targets, reduction_fraction, reduction_signal
from repro.core.rhdb import ResourceHistoryDB, RHDbRecord
from repro.core.selection import (
    eligible_positions,
    position_probabilities,
    select_targets,
)
from repro.core.thresholds import ThresholdTracker
from repro.obs.decision import pema_decision_info
from repro.sim.types import Allocation, IntervalMetrics

__all__ = ["PEMAController", "StepAction", "StepResult"]


class StepAction(Enum):
    """What the controller did in a step."""

    REDUCE = "reduce"
    HOLD = "hold"
    ROLLBACK = "rollback"
    EXPLORE = "explore"


@dataclass(frozen=True)
class StepResult:
    """Outcome of one control step."""

    action: StepAction
    allocation: Allocation
    targets: tuple[str, ...] = ()
    n_targets: int = 0
    delta: float = 0.0
    signal: float = 0.0
    p_explore: float = 0.0
    violated: bool = False
    #: Eqn-5 inclusion probabilities that fed target selection, as
    #: (service, p) pairs in controller build order; empty on steps that
    #: never reached selection (rollback/explore/early hold).
    probabilities: tuple[tuple[str, float], ...] = ()


def decision_info(result: StepResult) -> dict:
    """A step's causal record, as the ``decision_trace`` channel holds it."""
    return pema_decision_info(
        action=result.action.value,
        violated=result.violated,
        targets=result.targets,
        n_targets=result.n_targets,
        delta=result.delta,
        signal=result.signal,
        p_explore=result.p_explore,
        probabilities=result.probabilities,
    )


class PEMAController:
    """Feedback-driven monotonic-reduction resource manager (Algorithm 1).

    Parameters
    ----------
    services:
        Service names (order defines the allocation vector).
    slo:
        The response-latency SLO ``R`` in seconds.  Mutable at runtime —
        the paper's dynamic-SLO experiment (Fig. 20) simply assigns a new
        value.
    initial_allocation:
        Ample starting allocation (from a rule-based manager, per §3.1).
    config:
        :class:`PEMAConfig` knobs.
    seed / rng:
        Randomness for the probabilistic selection and exploration.
    """

    #: The batched sweep runner's vectorized form of this controller.
    decision_bank = PEMABatch

    def __init__(
        self,
        services: Iterable[str],
        slo: float,
        initial_allocation: Allocation,
        config: PEMAConfig | None = None,
        *,
        seed: int | None = 0,
        rng: np.random.Generator | None = None,
        cost_model: "CostModel | None" = None,
    ) -> None:
        self.services = tuple(services)
        if not self.services:
            raise ValueError("need at least one service")
        if set(self.services) != set(initial_allocation.names):
            raise ValueError("initial allocation must cover exactly the services")
        if slo <= 0:
            raise ValueError(f"slo must be positive: {slo}")
        self.slo = float(slo)
        self.config = config or PEMAConfig()
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.cost_model = cost_model
        if cost_model is not None:
            missing = set(self.services) - set(cost_model.prices)
            if missing:
                raise ValueError(f"cost model misses services: {sorted(missing)}")
        self.allocation = initial_allocation
        self.thresholds = ThresholdTracker(
            self.services,
            init_util=self.config.init_util_threshold,
            init_throttle=self.config.init_throttle_threshold,
        )
        self.rhdb = ResourceHistoryDB()
        self._responses: deque[float] = deque(
            maxlen=self.config.moving_average_window
        )
        self._step = 0
        self.last_result: StepResult | None = None

    # -- Algorithm 1 ------------------------------------------------------------
    def step(
        self, metrics: IntervalMetrics, reduction_target: float | None = None
    ) -> StepResult:
        """One control step; returns the action and the next allocation.

        ``reduction_target`` overrides ``R`` in Eqns. (3), (4) and (8) for
        the workload-aware dynamic response target (Eqn. 9).  SLO-violation
        handling always uses the true SLO.
        """
        target = self.slo if reduction_target is None else float(reduction_target)
        if target <= 0:
            raise ValueError(f"reduction target must be positive: {target}")
        response = metrics.latency_p95

        # Line 3: log the allocation that produced this interval.
        self._step += 1
        self.rhdb.insert(
            RHDbRecord(
                step=self._step,
                allocation=self.allocation,
                response=response,
                workload=metrics.workload_rps,
                slo=self.slo,
            )
        )
        self._responses.append(response)

        # Line 4: SLO violation -> immediate rollback on the *instantaneous*
        # response (the moving average is never used for violation handling,
        # §3.5).  The violating allocation is tainted so rollback cannot
        # return to a lucky record of the same configuration.
        if response > self.slo:
            self.rhdb.taint(self.allocation)
            rollback = self.rhdb.best_rollback(self._rollback_target(response))
            if rollback is None:
                # Severity margin too strict or no safe record at all: fall
                # back to the paper's plain nearest-safe query.
                rollback = self.rhdb.best_rollback(self.slo)
            if rollback is not None:
                self.allocation = rollback.allocation
            else:
                # No safe record (e.g. the very first interval violated):
                # inflate the current allocation as an emergency fallback.
                self.allocation = self.allocation.scale(1.25)
            self._responses.clear()
            return self._finish(StepResult(
                action=StepAction.ROLLBACK,
                allocation=self.allocation,
                violated=True,
            ))

        # The threshold ratchet and selection read the metrics' columns by
        # position, in this controller's service order.
        metrics = metrics.in_order(self.services)

        # Line 6: exploration.
        p_explore = exploration_probability(
            response,
            target,
            self.config.alpha,
            self.config.explore_a,
            self.config.explore_b,
        )
        if self.rng.random() < p_explore:
            record = self.rhdb.random_non_violating(self.slo, self.rng)
            if record is not None:
                self.allocation = record.allocation
                self._responses.clear()
                if self.config.use_dynamic_thresholds:
                    self.thresholds.update(metrics)
                return self._finish(StepResult(
                    action=StepAction.EXPLORE,
                    allocation=self.allocation,
                    p_explore=p_explore,
                ))

        # Line 7: size the reduction from the moving-average response.
        signal = reduction_signal(
            self._responses,
            target,
            self.config.alpha,
            self.config.response_buffer,
        )
        n_t = num_targets(len(self.services), signal)
        delta = reduction_fraction(self.config.beta, signal)
        if n_t == 0 or delta <= 0.0:
            if self.config.use_dynamic_thresholds:
                self.thresholds.update(metrics)
            return self._finish(StepResult(
                action=StepAction.HOLD,
                allocation=self.allocation,
                signal=signal,
                p_explore=p_explore,
            ))

        # Lines 8-9: bottleneck filter and probabilistic candidates.
        #
        # Note on ordering vs. Algorithm 1: the paper lists the threshold
        # ratchet (line 5) before the filter (line 8), but ratcheting first
        # makes the filter vacuous — after H_th := max(H_th, h), the test
        # h <= H_th can never fail.  For the filter to detect *imminent*
        # bottlenecks (growing throttling), selection must use the
        # thresholds learned from earlier safe intervals; we therefore
        # ratchet at the end of the step.
        if self.config.use_bottleneck_filter:
            eligible = eligible_positions(metrics, self.thresholds)
            names = self.services
            probs = dict(
                zip(
                    [names[i] for i in eligible],
                    position_probabilities(metrics, self.thresholds, eligible),
                )
            )
        else:
            # Ablation: uniform selection over all services, no filtering.
            probs = {name: 1.0 for name in self.services}
        if self.cost_model is not None:
            probs = cost_weighted_probabilities(probs, self.cost_model)

        # Line 10: cut to n_t and shrink.
        targets = select_targets(probs, n_t, self.rng)
        prob_pairs = tuple((name, float(p)) for name, p in probs.items())
        if self.config.use_dynamic_thresholds:
            self.thresholds.update(metrics)
        if not targets:
            return self._finish(StepResult(
                action=StepAction.HOLD,
                allocation=self.allocation,
                n_targets=n_t,
                delta=delta,
                signal=signal,
                p_explore=p_explore,
                probabilities=prob_pairs,
            ))
        self.allocation = self.allocation.reduce(
            targets, delta, floor=self.config.min_cpu
        )
        return self._finish(StepResult(
            action=StepAction.REDUCE,
            allocation=self.allocation,
            targets=targets,
            n_targets=n_t,
            delta=delta,
            signal=signal,
            p_explore=p_explore,
            probabilities=prob_pairs,
        ))

    def _finish(self, result: StepResult) -> StepResult:
        """Remember the step outcome for the decision-trace channel."""
        self.last_result = result
        return result

    def last_decision(self) -> dict | None:
        """The previous step's causal record (``decision_trace`` hook)."""
        result = self.last_result
        return None if result is None else decision_info(result)

    def _rollback_target(self, response: float) -> float:
        """Response ceiling for rollback candidates (§6 extension).

        With the default gain of 0 this is simply the SLO (the paper's
        most-recent-safe-allocation behaviour).
        """
        gain = self.config.rollback_severity_gain
        if gain <= 0:
            return self.slo
        overshoot = max(response / self.slo - 1.0, 0.0)
        margin = min(0.5, gain * overshoot)
        return self.slo * (1.0 - margin)

    # -- Autoscaler protocol -------------------------------------------------------
    def decide(self, metrics: IntervalMetrics) -> Allocation:
        """Protocol adapter: step and return only the allocation."""
        return self.step(metrics).allocation

    # -- state management -------------------------------------------------------------
    def set_slo(self, slo: float) -> None:
        """Change the SLO at runtime (Fig. 20's dynamic-SLO experiment)."""
        if slo <= 0:
            raise ValueError(f"slo must be positive: {slo}")
        self.slo = float(slo)
        # Historical responses were produced under another objective;
        # reduction sizing restarts from fresh measurements.
        self._responses.clear()

    def fork(
        self,
        *,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> "PEMAController":
        """Clone state for a child workload range (§3.4 range split).

        The child inherits the current allocation, learned thresholds, and
        the full RHDb; it gets an independent random stream.
        """
        child = PEMAController(
            self.services,
            self.slo,
            self.allocation,
            self.config,
            seed=seed,
            rng=rng,
            cost_model=self.cost_model,
        )
        child.thresholds.restore(*self.thresholds.snapshot())
        child.rhdb = self.rhdb.clone()
        child._step = self._step
        return child

    @property
    def steps_taken(self) -> int:
        return self._step
