"""Control loop: autoscaler × environment × workload trace.

Discrete-time execution matching the paper's deployment: the allocation
chosen at the start of interval *t* serves the whole interval; at the end
of the interval the autoscaler sees the metrics and chooses the allocation
for *t+1* (2-minute intervals in the paper's runs).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence, TypeVar, runtime_checkable

import numpy as np

from repro.obs.decision import capture_decision_info, decision_record
from repro.obs.trace import Tracer
from repro.sim.environment import Environment
from repro.sim.types import Allocation, IntervalMetrics
from repro.workload.trace import WorkloadTrace

__all__ = [
    "Autoscaler",
    "ControlLoop",
    "LoopHistory",
    "LoopRecord",
    "LoopResult",
]


@runtime_checkable
class Autoscaler(Protocol):
    """Anything that turns interval metrics into the next allocation."""

    @property
    def allocation(self) -> Allocation: ...

    def decide(self, metrics: IntervalMetrics) -> Allocation: ...


@dataclass(frozen=True)
class LoopRecord:
    """One interval of a run."""

    step: int
    time: float
    workload: float
    response: float
    total_cpu: float
    violated: bool
    slo: float
    allocation: Allocation


def _column(values: Any, dtype: type) -> np.ndarray:
    """``values`` as a read-only array (series hand it out without a copy)."""
    column = np.asarray(values, dtype=dtype)
    column.flags.writeable = False
    return column


class LoopResult:
    """Full run history plus the summary statistics the paper reports.

    Stored column-wise: one array per scalar :class:`LoopRecord` field,
    one ``(T, S)`` float64 allocation matrix, and the service names once.
    Summaries and series read the columns; :attr:`records` builds the
    per-interval :class:`LoopRecord` objects only when a reader asks.
    """

    def __init__(
        self,
        names: Sequence[str] = (),
        *,
        step: Any = (),
        time: Any = (),
        workload: Any = (),
        response: Any = (),
        total_cpu: Any = (),
        violated: Any = (),
        slo: Any = (),
        allocations: Any = None,
    ) -> None:
        self._names: tuple[str, ...] = tuple(names)
        self._step = _column(step, np.int64)
        self._time = _column(time, np.float64)
        self._workload = _column(workload, np.float64)
        self._response = _column(response, np.float64)
        self._total_cpu = _column(total_cpu, np.float64)
        self._violated = _column(violated, np.bool_)
        self._slo = _column(slo, np.float64)
        self._allocations = _column(
            np.empty((0, len(self._names))) if allocations is None else allocations,
            np.float64,
        )
        n = len(self._step)
        if any(len(c) != n for c in self._columns()) or (
            self._allocations.shape != (n, len(self._names))
        ):
            raise ValueError("LoopResult columns must have one row per interval")
        self._records: tuple[LoopRecord, ...] | None = None

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (
            self._step,
            self._time,
            self._workload,
            self._response,
            self._total_cpu,
            self._violated,
            self._slo,
        )

    def __len__(self) -> int:
        return len(self._step)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoopResult):
            return NotImplemented
        return (
            type(self) is type(other)
            and self._names == other._names
            and np.array_equal(self._allocations, other._allocations)
            and all(
                np.array_equal(a, b)
                for a, b in zip(self._columns(), other._columns())
            )
        )

    __hash__ = None  # type: ignore[assignment]

    def __setstate__(self, state: dict[str, Any]) -> None:
        # Unpickled arrays (a result crossing a process pool) come back
        # writeable; the columns stay read-only either way.
        self.__dict__.update(state)
        for column in (*self._columns(), self._allocations):
            column.flags.writeable = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({len(self)} intervals, "
            f"{len(self._names)} services)"
        )

    @property
    def records(self) -> tuple[LoopRecord, ...]:
        """Per-interval records, built once on first access."""
        if self._records is None:
            names = self._names
            self._records = tuple(
                LoopRecord(
                    step=step,
                    time=time,
                    workload=workload,
                    response=response,
                    total_cpu=total_cpu,
                    violated=violated,
                    slo=slo,
                    allocation=Allocation(dict(zip(names, row))),
                )
                for step, time, workload, response, total_cpu, violated, slo, row
                in zip(
                    *(column.tolist() for column in self._columns()),
                    self._allocations.tolist(),
                )
            )
        return self._records

    # -- columns (aligned read-only arrays for figures) -------------------------
    @property
    def service_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def allocations(self) -> np.ndarray:
        """The ``(T, S)`` allocation matrix, columns in ``service_names`` order."""
        return self._allocations

    @property
    def steps(self) -> np.ndarray:
        return self._step

    @property
    def times(self) -> np.ndarray:
        return self._time

    @property
    def workloads(self) -> np.ndarray:
        return self._workload

    @property
    def responses(self) -> np.ndarray:
        return self._response

    @property
    def total_cpu(self) -> np.ndarray:
        return self._total_cpu

    @property
    def violated(self) -> np.ndarray:
        return self._violated

    @property
    def slos(self) -> np.ndarray:
        return self._slo

    # -- summaries --------------------------------------------------------------
    def violation_count(self) -> int:
        return int(np.count_nonzero(self._violated))

    def violation_rate(self) -> float:
        if not len(self):
            return 0.0
        return self.violation_count() / len(self)

    def final_allocation(self) -> Allocation:
        if not len(self):
            raise LookupError("empty run")
        return Allocation.from_array(self._names, self._allocations[-1])

    def _satisfying_totals(self) -> np.ndarray:
        totals = self._total_cpu[~self._violated]
        if not totals.size:
            raise LookupError("no SLO-satisfying interval in the run")
        return totals

    def best_satisfying_total(self) -> float:
        """Minimum total CPU over intervals that satisfied the SLO."""
        return float(self._satisfying_totals().min())

    def settled_total(self, tail: int = 5) -> float:
        """Mean total CPU over the last ``tail`` SLO-satisfying intervals."""
        return float(np.mean(self._satisfying_totals()[-tail:].tolist()))


R = TypeVar("R", bound=LoopResult)


class LoopHistory:
    """Append-only builder of a :class:`LoopResult`, one interval at a time.

    The one way a run history is recorded: :meth:`ControlLoop.step`
    (offline runs and streaming guardians alike) and the fast-reaction
    loop each append here.
    Values accumulate in one list per column, so :meth:`build` converts
    each list once and never touches a per-interval object.
    """

    __slots__ = (
        "_step", "_time", "_workload", "_response", "_total_cpu",
        "_violated", "_slo", "_allocations",
    )

    def __init__(self) -> None:
        self._step: list[int] = []
        self._time: list[float] = []
        self._workload: list[float] = []
        self._response: list[float] = []
        self._total_cpu: list[float] = []
        self._violated: list[bool] = []
        self._slo: list[float] = []
        self._allocations: list[Allocation] = []

    def __len__(self) -> int:
        return len(self._step)

    def append(
        self,
        step: int,
        time: float,
        workload: float,
        response: float,
        total_cpu: float,
        violated: bool,
        slo: float,
        allocation: Allocation,
    ) -> None:
        """Record one interval (arguments in :class:`LoopRecord` field order)."""
        self._step.append(step)
        self._time.append(time)
        self._workload.append(workload)
        self._response.append(response)
        self._total_cpu.append(total_cpu)
        self._violated.append(violated)
        self._slo.append(slo)
        self._allocations.append(allocation)

    def last(self) -> LoopRecord:
        """The most recently appended interval, as a :class:`LoopRecord`."""
        if not self._step:
            raise LookupError("empty history")
        return LoopRecord(
            step=self._step[-1],
            time=self._time[-1],
            workload=self._workload[-1],
            response=self._response[-1],
            total_cpu=self._total_cpu[-1],
            violated=self._violated[-1],
            slo=self._slo[-1],
            allocation=self._allocations[-1],
        )

    def build(self, cls: type[R] = LoopResult) -> R:  # type: ignore[assignment]
        """The history so far as a ``cls`` (a :class:`LoopResult`)."""
        if not self._step:
            return cls()
        names = self._allocations[0].names
        if any(a.names != names for a in self._allocations):
            raise ValueError("every interval must allocate the same services")
        return cls(
            names,
            step=self._step,
            time=self._time,
            workload=self._workload,
            response=self._response,
            total_cpu=self._total_cpu,
            violated=self._violated,
            slo=self._slo,
            allocations=np.stack([a.as_array() for a in self._allocations]),
        )


class ControlLoop:
    """Drives one autoscaler against one environment and workload trace.

    :meth:`step` is one control interval of Algorithm 1 — the
    Monitor/Analyze/Plan half of the feedback loop.  Every scalar
    executor runs its intervals through it: :meth:`run` for offline
    runs, and the streaming service's guardians one tick at a time.
    """

    def __init__(
        self,
        environment: Environment,
        autoscaler: Autoscaler,
        workload: WorkloadTrace,
        *,
        interval: float = 120.0,
        slo: float | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.environment = environment
        self.autoscaler = autoscaler
        self.workload = workload
        self.interval = interval
        explicit = slo if slo is not None else getattr(autoscaler, "slo", None)
        if explicit is None:
            raise ValueError("pass slo= when the autoscaler has no .slo")
        self._slo_getter: Callable[[], float] = (
            (lambda: float(self.autoscaler.slo))  # live — tracks dynamic SLO
            if slo is None and hasattr(autoscaler, "slo")
            else (lambda: float(explicit))
        )

    def current_slo(self) -> float:
        """The SLO in force right now.

        Live when the autoscaler carries its own (mutable) SLO — dynamic
        SLO hooks show up immediately — fixed otherwise.
        """
        return self._slo_getter()

    def step(
        self,
        step: int,
        rps: float,
        allocation: Allocation,
        history: LoopHistory,
        *,
        on_step: Callable[[int, "ControlLoop"], None] | None = None,
        decision_log: list | None = None,
        tracer: "Tracer | None" = None,
    ) -> Allocation:
        """One control interval; returns the allocation for the next one.

        ``on_step`` hooks fire first, then ``allocation`` serves the
        interval at ``rps`` offered load, the interval lands in
        ``history``, and the autoscaler decides from its metrics.
        ``decision_log`` and ``tracer`` receive the interval's
        :func:`repro.obs.decision.decision_record` (see :meth:`run`).
        """
        if on_step is not None:
            on_step(step, self)
        metrics = self.environment.observe(allocation, rps, self.interval)
        slo_now = self.current_slo()
        total_now = allocation.total()
        violated = metrics.latency_p95 > slo_now
        history.append(
            step,
            step * self.interval,
            rps,
            metrics.latency_p95,
            total_now,
            violated,
            slo_now,
            allocation,
        )
        next_allocation = self.autoscaler.decide(metrics)
        if decision_log is not None or tracer is not None:
            record = decision_record(
                step=step,
                workload=rps,
                response=metrics.latency_p95,
                slo=slo_now,
                violated=violated,
                total_cpu=total_now,
                next_total_cpu=next_allocation.total(),
                decision=capture_decision_info(self.autoscaler),
            )
            if decision_log is not None:
                decision_log.append(record)
            if tracer is not None:
                tracer.event("decision", **record)
        return next_allocation

    def run(
        self,
        n_steps: int,
        on_step: Callable[[int, "ControlLoop"], None] | None = None,
        *,
        decision_log: list | None = None,
        tracer: "Tracer | None" = None,
    ) -> LoopResult:
        """Execute ``n_steps`` control intervals.

        Interval ``t`` offers the workload trace's rate at
        ``t * interval``.  ``on_step(step_index, loop)`` runs before each
        interval is observed — the hook used by the adaptability
        experiments to change CPU frequency (Fig. 19) or the SLO
        (Fig. 20) mid-run.

        ``decision_log`` collects one deterministic
        :func:`repro.obs.decision.decision_record` per interval (the
        ``decision_trace`` capture channel); ``tracer`` additionally
        times the run as a span and mirrors each record as an event.
        Both default off, leaving the hot loop untouched.
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        history = LoopHistory()
        allocation = self.autoscaler.allocation
        span = (
            tracer.span("control_loop.run", steps=n_steps)
            if tracer is not None
            else nullcontext()
        )
        with span:
            for step in range(n_steps):
                allocation = self.step(
                    step,
                    self.workload.rate(step * self.interval),
                    allocation,
                    history,
                    on_step=on_step,
                    decision_log=decision_log,
                    tracer=tracer,
                )
        return history.build()
