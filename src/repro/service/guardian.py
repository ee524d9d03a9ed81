"""Per-app Guardian: one autoscaler fed by a bounded metrics queue.

A :class:`Guardian` owns everything one application needs inside the
control plane: the materialized experiment unit (app, engine,
autoscaler, trace — built by the same
:func:`repro.experiments.build_unit` the offline runner uses), a bounded
:class:`asyncio.Queue` of incoming :class:`~repro.service.types.MetricSample`
ticks (the backpressure boundary — a driver outrunning the control loop
blocks instead of growing memory), and the decision history so far.

A tick runs its interval through :meth:`repro.core.loop.ControlLoop.step`,
the one step the offline :meth:`~repro.core.loop.ControlLoop.run` also
loops over, so a guardian driven with the same rate floats as an offline
run produces a byte-identical history.  That is the service's core
determinism contract, enforced by ``tests/test_service.py`` and the CI
service gate.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro.core.loop import LoopHistory, LoopRecord

# perfbench patches build_unit, loop_result_to_dict, decision_record here.
from repro.experiments.runner import (
    build_unit,
    capture_manager_state,
    hooks_on_step,
)
from repro.experiments.spec import ExperimentSpec
from repro.faults import reorder_window_for, stream_fault_entries
from repro.metrics.export import UnitResult, loop_result_to_dict  # noqa: F401
from repro.obs.decision import decision_record  # noqa: F401
from repro.service.rescaler import Rescaler
from repro.service.telemetry import (
    GUARDIAN_QUEUE_PEAK,
    GUARDIAN_TICK_SECONDS,
    STREAM_DUPLICATES_DROPPED,
    STREAM_REORDERED,
)
from repro.service.types import Decision, MetricSample, ServiceError

__all__ = ["Guardian"]


class Guardian:
    """Wraps one app's autoscaler behind the streaming tick protocol."""

    def __init__(
        self,
        app_id: str,
        spec: ExperimentSpec,
        repeat: int = 0,
        *,
        rescaler: Rescaler | None = None,
        queue_size: int = 64,
    ) -> None:
        if not app_id:
            raise ValueError("app_id must be a non-empty string")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.app_id = app_id
        self.spec = spec
        self.repeat = repeat
        self.unit = build_unit(spec, repeat)
        self.rescaler = rescaler or Rescaler()
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self.history = LoopHistory()
        self.decisions: list[Decision] = []
        self.trace_records: list[dict[str, Any]] = []
        """Deterministic per-step decision records, filled when the
        spec's ``capture`` requested the ``decision_trace`` channel."""
        self.error: str | None = None
        self.restarts = 0
        """How many times the orchestrator rebuilt this app's guardian."""
        self.duplicates_dropped = 0
        self.reordered = 0
        self._on_step = hooks_on_step(spec)
        self._allocation = self.unit.autoscaler.allocation
        self._capture_trace = "decision_trace" in spec.capture
        # Stream-fault tolerance: specs that declare delivery faults get
        # dedup and a bounded reorder buffer sized for the worst declared
        # delay; clean specs keep the strict legacy protocol (any step
        # mismatch poisons), so existing behavior is untouched.
        self._stream_faulted = bool(stream_fault_entries(spec))
        self._reorder_window = reorder_window_for(spec)
        self._buffered: dict[int, MetricSample] = {}
        self._replaying = False
        self._fail_at: dict[int, tuple[str, float]] = {}

    # -- the tick protocol -------------------------------------------------------
    @property
    def records(self) -> tuple[LoopRecord, ...]:
        """The completed intervals as records (built on each access)."""
        return self.history.build().records

    @property
    def steps_done(self) -> int:
        """How many control intervals this guardian has completed."""
        return len(self.history)

    @property
    def complete(self) -> bool:
        """True once the guardian has run its spec's full horizon.

        Only a complete run equals the offline experiment, so only a
        complete guardian's history may be flushed as a sweep-store
        unit entry.
        """
        return self.steps_done >= self.spec.n_steps

    def tick(self, sample: MetricSample) -> Decision:
        """Execute one control interval from a streamed metric sample.

        The guardian's own concerns come first — the step check,
        injected test failures, and actuation through the rescaler
        (skipped while replaying) — then the interval runs through the
        unit loop's :meth:`~repro.core.loop.ControlLoop.step`.  The
        published record is read back from the history that step
        appended to.
        """
        step = self.steps_done
        if sample.step is not None and sample.step != step:
            raise ServiceError(
                f"app {self.app_id!r}: got step {sample.step}, "
                f"expected {step} (out-of-order or duplicated tick)"
            )
        failure = self._fail_at.pop(step, None)
        if failure is not None:
            fail_kind, seconds = failure
            if fail_kind == "hang":
                time.sleep(seconds)
            else:
                raise RuntimeError(
                    f"injected {fail_kind} at step {step} of "
                    f"app {self.app_id!r}"
                )
        if not self._replaying:
            # Replayed steps were already actuated (and counted) by the
            # guardian this one replaces; re-applying would double the
            # rescale accounting without changing any observation.
            self.rescaler.apply(self, self._allocation)
        self._allocation = self.unit.loop.step(
            step,
            float(sample.rps),
            self._allocation,
            self.history,
            on_step=self._on_step,
            decision_log=self.trace_records if self._capture_trace else None,
        )
        decision = Decision(
            app=self.app_id,
            step=step,
            record=self.history.last(),
            next_allocation=self._allocation,
        )
        self.decisions.append(decision)
        return decision

    def offer(self, sample: MetricSample) -> list[Decision]:
        """Accept a possibly duplicated/reordered sample; tick what's due.

        Clean specs keep the strict legacy protocol — the sample ticks
        directly and any step mismatch raises.  Specs declaring stream
        faults get graceful degradation instead: past-step samples are
        dropped as duplicates, future steps within the reorder window
        wait in a bounded buffer — the guardian *holds its last
        allocation* until the gap fills — and only a gap beyond the
        window poisons.  Returns the decisions taken, in step order,
        which is exactly the uninterrupted sequence: the reorder buffer
        restores the processed order, so the decision bytes match a
        fault-free delivery.
        """
        if not self._stream_faulted or sample.step is None:
            return [self.tick(sample)]
        step = sample.step
        expected = self.steps_done
        if step < expected:
            self.duplicates_dropped += 1
            STREAM_DUPLICATES_DROPPED.inc(app=self.app_id)
            return []
        if step > expected:
            if step - expected > self._reorder_window:
                raise ServiceError(
                    f"app {self.app_id!r}: got step {step}, "
                    f"expected {expected} (out-of-order or duplicated tick)"
                )
            if step in self._buffered:
                self.duplicates_dropped += 1
                STREAM_DUPLICATES_DROPPED.inc(app=self.app_id)
            else:
                self._buffered[step] = sample
                self.reordered += 1
                STREAM_REORDERED.inc(app=self.app_id)
            return []
        decisions = [self.tick(sample)]
        while self.steps_done in self._buffered:
            decisions.append(self.tick(self._buffered.pop(self.steps_done)))
        return decisions

    def inject_failure(
        self, step: int, kind: str = "crash", *, seconds: float = 0.0
    ) -> None:
        """Test seam: make the tick at ``step`` crash or hang.

        ``crash`` raises before the step runs; ``hang`` sleeps
        ``seconds`` of wall clock first, then proceeds normally — long
        enough to trip an orchestrator tick timeout.  Injected failures
        are one-shot and deliberately *not* carried over to a restarted
        guardian, so recovery replays run clean.
        """
        if kind not in ("crash", "hang"):
            raise ValueError(f"unknown failure kind: {kind!r}")
        self._fail_at[int(step)] = (kind, float(seconds))

    # -- introspection -----------------------------------------------------------
    def result(self) -> UnitResult:
        """The decision history so far as the unit an offline run returns.

        Once the run is complete it equals what
        :func:`repro.experiments.runner.run_unit_result` returns for the
        same (spec, repeat), capture channels included.
        """
        return UnitResult.computed(
            self.history.build(),
            self.spec.capture,
            manager_state=lambda: capture_manager_state(self.unit.autoscaler),
            decision_trace=lambda: list(self.trace_records),
        )

    def result_payload(self) -> dict[str, Any]:
        """:meth:`result` in the records form (the JSON boundary)."""
        return self.result().to_payload()

    def state(self) -> dict[str, Any]:
        """The ``/state`` endpoint's payload for this app."""
        allocation = self._allocation
        return {
            "app": self.app_id,
            "spec_name": self.spec.name,
            "step": self.steps_done,
            "complete": self.complete,
            "slo": self.unit.loop.current_slo(),
            "allocation": [
                [name, allocation[name]] for name in allocation.names
            ],
            "total_cpu": allocation.total(),
            "manager_state": capture_manager_state(self.unit.autoscaler),
        }

    def status(self) -> dict[str, Any]:
        """The ``/apps`` endpoint's row for this app."""
        tick_p50 = GUARDIAN_TICK_SECONDS.quantile(0.5, app=self.app_id)
        tick_p95 = GUARDIAN_TICK_SECONDS.quantile(0.95, app=self.app_id)
        queue_peak = GUARDIAN_QUEUE_PEAK.value(app=self.app_id)
        return {
            "app": self.app_id,
            "spec_name": self.spec.name,
            "app_kind": self.spec.app,
            "autoscaler": self.spec.autoscaler.kind,
            "workload": self.spec.workload.kind,
            "repeat": self.repeat,
            "seed": self.unit.seed,
            "interval": self.spec.interval,
            "n_steps": self.spec.n_steps,
            "steps_done": self.steps_done,
            "complete": self.complete,
            "status": (
                "poisoned"
                if self.error is not None
                else ("complete" if self.complete else "ok")
            ),
            "restarts": self.restarts,
            "duplicates_dropped": self.duplicates_dropped,
            "reordered": self.reordered,
            "buffered": len(self._buffered),
            "queue_depth": self.queue.qsize(),
            "queue_size": self.queue.maxsize,
            "queue_peak": int(queue_peak) if queue_peak is not None else 0,
            "tick_p50_ms": None if tick_p50 is None else tick_p50 * 1000.0,
            "tick_p95_ms": None if tick_p95 is None else tick_p95 * 1000.0,
            "violations": self.history.build().violation_count(),
            "error": self.error,
            "rescale": self.rescaler.stats(self.app_id).to_dict(),
        }
