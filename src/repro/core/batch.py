"""Vectorized PEMA bank: Algorithm 1 advanced for many cells per call.

:class:`PEMABatch` carries the state of ``B`` independent
:class:`~repro.core.controller.PEMAController` instances (one sweep cell
each, same application) in stacked arrays — allocations, learned
thresholds and SLOs are ``(B, S)``/``(B,)`` — and advances all of them
with one call per control interval.  The heavy per-step math (exploration
probabilities, Eqn. 5 inclusion probabilities, threshold ratcheting,
reductions) runs as whole-batch array operations; only the parts that are
inherently per-cell remain loops: the random draws (each cell owns the
same ``default_rng(seed)`` stream the scalar controller would consume, in
the same order) and the RHDb rollback/exploration scans (rare, and
``O(history)`` only when they fire).

Bit-exactness contract: cell ``i`` of a batch produces exactly the
allocation sequence of a scalar ``PEMAController`` with the same seed,
config, SLO and metrics — every float operation is the same IEEE op in
the same order, and the stochastic call sequence (explore gate draw,
exploration index draw, Bernoulli selection + uniform cut via the *same*
:func:`~repro.core.selection.select_targets`) is preserved branch by
branch.  ``tests/test_batched.py`` enforces byte-identical artifacts.

Unsupported (fall back to the scalar path): per-cell cost models, and
horizons past the scalar RHDb's trim point (:attr:`PEMABatch.max_steps`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.reduction import _window_mean
from repro.core.rhdb import ResourceHistoryDB
from repro.core.selection import select_targets
from repro.obs.decision import pema_decision_info
from repro.sim.batched import BatchObservation, DecisionBank

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.spec import AppSpec
    from repro.core.controller import PEMAController

__all__ = ["PEMABatch"]

#: Tolerance constants, matching :mod:`repro.core.selection`.
_SEL_EPS = 1e-9


class PEMABatch(DecisionBank):
    """A bank of ``B`` PEMA controllers over one shared service set.

    Each cell takes its config and its (still unused) random stream from
    its scalar :class:`~repro.core.controller.PEMAController`.  ``slo``
    is live: :meth:`set_slo` changes the row the records carry.  A
    traced cell records one :func:`~repro.obs.decision.pema_decision_info`
    per step, with the arguments the scalar ``StepResult`` carries.
    """

    #: Past the scalar RHDb's trim point the full history kept here
    #: would diverge from the scalar controller's.
    max_steps = ResourceHistoryDB.DEFAULT_MAX_RECORDS

    def __init__(
        self,
        app: "AppSpec",
        controllers: "Sequence[PEMAController]",
        slos: Sequence[float],
    ) -> None:
        super().__init__(app, controllers, slos)
        self._index = {name: j for j, name in enumerate(self.services)}
        n_cells = len(controllers)
        self.configs = tuple(c.config for c in controllers)
        self.rngs = [c.rng for c in controllers]

        cfg = self.configs
        # Arrays feed the whole-batch math; per-cell knobs stay plain
        # Python values (float ops on them are the same IEEE ops, minus
        # the NumPy-scalar overhead in the per-cell loop).
        self._alpha = np.asarray([c.alpha for c in cfg])
        self._explore_a = np.asarray([c.explore_a for c in cfg])
        self._explore_b = np.asarray([c.explore_b for c in cfg])
        self._dynamic = np.asarray([c.use_dynamic_thresholds for c in cfg])
        self._beta = [float(c.beta) for c in cfg]
        self._buffer = [float(c.response_buffer) for c in cfg]
        self._min_cpu = [float(c.min_cpu) for c in cfg]
        self._gain = [float(c.rollback_severity_gain) for c in cfg]
        self._window_len = [c.moving_average_window for c in cfg]
        self._use_filter = [c.use_bottleneck_filter for c in cfg]

        shape = self.allocation.shape
        self.util_th = np.empty(shape)
        self.util_th[:] = np.asarray([c.init_util_threshold for c in cfg])[:, None]
        self.thr_th = np.empty(shape)
        self.thr_th[:] = np.asarray(
            [c.init_throttle_threshold for c in cfg]
        )[:, None]

        self._windows: list[list[float]] = [[] for _ in range(n_cells)]
        self._tainted: list[set[bytes]] = [set() for _ in range(n_cells)]
        # RHDb, stacked: one (B,)/(B, S) snapshot per inserted step.
        self._hist_resp: list[np.ndarray] = []
        self._hist_total: list[np.ndarray] = []
        self._hist_alloc: list[np.ndarray] = []

    # -- dynamic SLO (the Fig. 20 hook) -----------------------------------------
    def set_slo(self, cell: int, slo: float) -> None:
        """Change one cell's SLO mid-run, like ``PEMAController.set_slo``."""
        super().set_slo(cell, slo)
        self._windows[cell].clear()

    # -- RHDb queries ------------------------------------------------------------
    def _best_rollback(self, cell: int, ceiling: float) -> int | None:
        """First minimum-total safe record index (ties keep the oldest)."""
        tainted = self._tainted[cell]
        best: int | None = None
        best_total = math.inf
        for k in range(len(self._hist_resp)):
            if self._hist_resp[k][cell] > ceiling:
                continue
            if tainted and self._hist_alloc[k][cell].tobytes() in tainted:
                continue
            total = self._hist_total[k][cell]
            if total < best_total:
                best_total = total
                best = k
        return best

    def _safe_records(self, cell: int) -> list[int]:
        tainted = self._tainted[cell]
        slo = self.slo[cell]
        return [
            k
            for k in range(len(self._hist_resp))
            if self._hist_resp[k][cell] <= slo
            and not (
                tainted and self._hist_alloc[k][cell].tobytes() in tainted
            )
        ]

    # -- one control interval for the whole batch --------------------------------
    def step(self, obs: BatchObservation, totals: np.ndarray) -> np.ndarray:
        """Advance every cell one interval; returns the ``(B, S)`` allocations.

        ``obs`` is the batch observation produced under the *current*
        allocations; ``totals`` is ``allocation.sum(axis=1)`` for the same
        (the caller already computed it for its own records).
        """
        response = obs.latency_p95
        util = obs.utilization
        thr_seconds = obs.throttle_seconds
        n_services = len(self.services)

        # Line 3: log this interval into the stacked RHDb.
        self._hist_resp.append(np.array(response))
        self._hist_total.append(np.array(totals, dtype=np.float64))
        self._hist_alloc.append(self.allocation.copy())

        violated = response > self.slo
        # Eqn. (8), vectorized (identical elementwise to the scalar clip).
        p_explore = (
            self._explore_a
            * np.clip((self.slo - response) / (self._alpha * self.slo), 0.0, 1.0)
            + self._explore_b
        )
        # Eqn. (5), vectorized over every row: a cell that reaches the
        # selection branch reads its eligible columns, which hold exactly
        # the values a per-row pass over those columns computes.  Rows
        # with no eligible service (min over nothing: inf) or a zero
        # utilization range produce NaN/inf here and are never read.
        u_star = np.minimum(
            util / np.maximum(self.util_th, _SEL_EPS), 1.0
        )
        eligible = thr_seconds <= self.thr_th + _SEL_EPS
        u_min = np.where(eligible, u_star, np.inf).min(axis=1)
        denom = 1.0 - u_min
        with np.errstate(invalid="ignore", divide="ignore"):
            inclusion = np.clip(
                1.0 - (u_star - u_min[:, None]) / denom[:, None], 0.0, 1.0
            )
        # tolist() is value-exact; plain floats keep the selection draws
        # identical and make the traced record's JSON coercion cheap.
        eligible_rows = eligible.tolist()
        inclusion_rows = inclusion.tolist()
        zero_range = (denom <= _SEL_EPS).tolist()
        # The per-cell loop reads plain Python floats: one bulk (and
        # exact) tolist() per signal beats NumPy-scalar arithmetic and a
        # float(np.float64) per traced record.
        response_row = response.tolist()
        violated_row = violated.tolist()
        slo_row = self.slo.tolist()
        alpha_row = self._alpha.tolist()
        p_explore_row = p_explore.tolist()

        for i in range(len(self.configs)):
            window = self._windows[i]
            window.append(response_row[i])
            if len(window) > self._window_len[i]:
                window.pop(0)

            alloc_row = self.allocation[i]
            if violated_row[i]:
                # Line 4: taint + rollback (no random draws on this path).
                self._tainted[i].add(alloc_row.tobytes())
                slo = slo_row[i]
                ceiling = slo
                if self._gain[i] > 0:
                    overshoot = max(response_row[i] / slo - 1.0, 0.0)
                    ceiling = slo * (1.0 - min(0.5, self._gain[i] * overshoot))
                k = self._best_rollback(i, ceiling)
                if k is None and ceiling != slo:
                    k = self._best_rollback(i, slo)
                if k is not None:
                    self.allocation[i] = self._hist_alloc[k][i]
                else:
                    self.allocation[i] = alloc_row * 1.25
                window.clear()
                if i in self._trace_cells:
                    # Scalar rollback returns before p_explore is even
                    # computed, so the record keeps the default 0.0.
                    self.decision_info[i].append(
                        pema_decision_info(action="rollback", violated=True)
                    )
                continue

            rng = self.rngs[i]
            # Line 6: exploration gate (always one uniform draw).
            if rng.random() < p_explore_row[i]:
                safe = self._safe_records(i)
                if safe:
                    k = safe[int(rng.integers(len(safe)))]
                    self.allocation[i] = self._hist_alloc[k][i]
                    window.clear()
                    if i in self._trace_cells:
                        self.decision_info[i].append(
                            pema_decision_info(
                                action="explore", p_explore=p_explore_row[i]
                            )
                        )
                    continue

            # Line 7: reduction sizing from the moving-average response.
            r_avg = _window_mean(window)
            raw = (self._buffer[i] * slo_row[i] - r_avg) / (
                alpha_row[i] * slo_row[i]
            )
            signal = min(max(raw, 0.0), 1.0)
            n_t = int(math.floor(n_services * signal))
            delta = self._beta[i] * signal
            if n_t == 0 or delta <= 0.0:
                if i in self._trace_cells:
                    # The scalar early-hold result leaves n_targets/delta
                    # at their defaults, so the record does too.
                    self.decision_info[i].append(
                        pema_decision_info(
                            action="hold",
                            signal=signal,
                            p_explore=p_explore_row[i],
                        )
                    )
                continue

            # Lines 8-9: bottleneck filter + inclusion probabilities.
            if self._use_filter[i]:
                row = inclusion_rows[i]
                probs = {
                    name: 1.0 if zero_range[i] else row[j]
                    for j, (name, ok) in enumerate(
                        zip(self.services, eligible_rows[i])
                    )
                    if ok
                }
            else:
                probs = {name: 1.0 for name in self.services}

            # Line 10: the scalar selection routine drives the exact same
            # Bernoulli-draw + uniform-cut random sequence.
            targets = select_targets(probs, n_t, rng)
            if targets:
                if not 0.0 <= delta < 1.0:
                    raise ValueError(f"fraction must be in [0, 1): {delta}")
                cols = [self._index[t] for t in targets]
                self.allocation[i, cols] = np.maximum(
                    self._min_cpu[i], self.allocation[i, cols] * (1.0 - delta)
                )
            if i in self._trace_cells:
                self.decision_info[i].append(
                    pema_decision_info(
                        action="reduce" if targets else "hold",
                        targets=targets,
                        n_targets=n_t,
                        delta=delta,
                        signal=signal,
                        p_explore=p_explore_row[i],
                        probabilities=probs.items(),
                    )
                )

        # Eqns. (6)-(7): ratchet thresholds on every SLO-satisfying cell
        # (the scalar controller updates after selection, so this step's
        # selection used the pre-update values — same as here).
        ratchet = (~violated & self._dynamic)[:, None]
        self.util_th = np.where(
            ratchet & (util > self.util_th), util, self.util_th
        )
        self.thr_th = np.where(
            ratchet & (thr_seconds > self.thr_th), thr_seconds, self.thr_th
        )
        return self.allocation
