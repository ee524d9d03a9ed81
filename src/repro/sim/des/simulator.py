"""Event-driven microservice simulator.

Executes an application's request plans against CFS-quota servers:

* open-loop arrivals (Poisson or MMPP) pick a request class by weight;
* requests walk their stages; stage entries fan out in parallel; each
  visit is a CPU burst (runs at 1 core while the container's quota lasts)
  followed by a non-CPU wait;
* quota exhaustion freezes a service until the 100 ms period boundary,
  accumulating the throttle time PEMA observes.

The simulator is single-allocation/single-rate per run; the
:class:`~repro.sim.des.engine.DESEngine` wraps runs into the
``Environment`` protocol.

Two execution modes share the event logic in :class:`_SimCore` and the
per-purpose variate streams of :mod:`repro.sim.des.variates`:

* :class:`MicroserviceSimulator` (production, vectorized): pre-draws
  every stream in NumPy blocks, pre-computes the whole arrival and
  background schedules up to the horizon, and runs the heap as plain
  ``(time, seq, ...)`` tuples (:class:`~repro.sim.des.events.FastEventQueue`).
* :class:`~repro.sim.des.reference.ReferenceSimulator` (the retained
  scalar oracle): one scalar Generator call per variate, dataclass
  events, lazy arrival draws — the transparently-correct implementation
  the fidelity gate holds the vectorized mode bit-identical to.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from heapq import heappop, heappush
from operator import attrgetter

import numpy as np

from repro.apps.spec import AppSpec
from repro.sim.des.arrivals import mmpp_times, poisson_times
from repro.sim.des.events import EventKind, FastEventQueue
from repro.sim.des.metrics import MeasurementWindow
from repro.sim.des.request import RequestState, compile_plans
from repro.sim.des.server import CpuJob, ServiceServer
from repro.sim.des.tracing import Span, TraceLog
from repro.sim.des.variates import (
    BlockExp,
    BlockGamma,
    BlockNormal,
    BlockUniform,
    spawn_streams,
)
from repro.sim.types import Allocation, IntervalMetrics

__all__ = ["SimConfig", "MicroserviceSimulator"]

_DONE_EPS = 1e-7


@dataclass(frozen=True)
class SimConfig:
    """Simulator tunables."""

    period: float = 0.1
    """CFS bandwidth period (Linux default 100 ms)."""

    arrivals: str = "mmpp"
    """"poisson" or "mmpp" (burstier, the realistic default)."""

    burst_factor: float = 4.0
    burst_fraction: float = 0.2
    demand_cv: float = 0.5
    """Coefficient of variation of per-visit CPU demand (Gamma)."""

    wait_jitter: float = 0.10
    """Lognormal sigma on the non-CPU wait part of each visit."""

    cpu_speed: float = 1.0
    """Relative clock speed (1.0 = nominal)."""

    background: bool = True
    """Simulate each service's workload-independent baseline CPU demand
    (runtime/GC overhead) as Poisson background jobs."""

    background_interval: float = 0.05
    """Mean gap between background jobs per service (seconds)."""

    trace: bool = False
    """Record Jaeger-like spans (needed only by the analysis package)."""

    def __post_init__(self) -> None:
        for f in fields(self):  # annotations are strings in this module
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.arrivals not in ("poisson", "mmpp"):
            raise ValueError(f"unknown arrival process {self.arrivals!r}")
        if self.demand_cv < 0 or self.wait_jitter < 0:
            raise ValueError("dispersion parameters must be >= 0")
        if self.background_interval <= 0:
            raise ValueError("background_interval must be positive")
        if self.cpu_speed <= 0:
            raise ValueError("cpu_speed must be positive")
        # Checked here, not when an MMPP run starts: a bad pair fails at
        # construction whatever the arrival process.
        if self.burst_factor < 1:
            raise ValueError("burst_factor must be >= 1")
        if not 0 < self.burst_fraction < 1:
            raise ValueError("burst_fraction must be in (0, 1)")


@dataclass(slots=True)
class _Visit:
    """Payload threading one visit through CPU_DONE / WAIT_DONE."""

    request: RequestState
    service: str
    visits_left: int
    span_start: float = 0.0
    cpu_time: float = 0.0


_JOB_REMAINING = attrgetter("remaining")

# Hoisted enum members: enum attribute access costs a metaclass lookup,
# which the vectorized fast paths pay hundreds of thousands of times.
_ARRIVAL = EventKind.ARRIVAL
_STAGE_START = EventKind.STAGE_START
_CPU_DONE = EventKind.CPU_DONE
_WAIT_DONE = EventKind.WAIT_DONE
_QUOTA_EXHAUST = EventKind.QUOTA_EXHAUST
_PERIOD_END = EventKind.PERIOD_END
_BACKGROUND = EventKind.BACKGROUND


class _SimCore:
    """Event logic shared by the vectorized and reference simulators.

    Subclasses supply the variate streams (:meth:`_init_streams`), the
    event queue (:meth:`_make_queue`), the arrival/background sources,
    and the event-loop drain.  Everything here consumes randomness only
    through those abstractions, so both modes execute the same float
    operations in the same order.
    """

    def __init__(
        self,
        app: AppSpec,
        allocation: Allocation,
        workload_rps: float,
        *,
        config: SimConfig | None = None,
        seed: int = 0,
    ) -> None:
        if workload_rps <= 0:
            raise ValueError("workload must be positive")
        self.app = app
        self.config = config or SimConfig()
        self.servers = {
            name: ServiceServer(
                name, max(allocation[name], 1e-3), period=self.config.period
            )
            for name in app.service_names
        }
        self.plans = compile_plans(app)
        weights = np.asarray([p.weight for p in self.plans], dtype=np.float64)
        self._plan_cum = np.cumsum(weights / weights.sum()).tolist()
        self._n_plans = len(self.plans)
        self.workload_rps = float(workload_rps)
        self.queue = self._make_queue()
        self.window = MeasurementWindow()
        self.traces = TraceLog() if self.config.trace else None
        self._next_request_id = 0
        self._next_job_id = 0
        self.in_flight = 0
        self.events = 0
        """Heap pops of the last run (stored when the drain returns)."""
        cfg = self.config
        shape = 1.0 / cfg.demand_cv**2 if cfg.demand_cv > 0 else 0.0
        self._demand_shape = shape
        self._jitter = cfg.wait_jitter
        # Per-service constants, resolved once: (demand mean, Gamma scale
        # or None when the demand is deterministic), wait floor, and the
        # background work/gap exponential scales.
        self._demand_params: dict[str, tuple[float, float | None]] = {}
        self._floor: dict[str, float] = {}
        self._bg_work_scale: dict[str, float] = {}
        self._hop_latency = app.hop_latency
        for name in app.service_names:
            svc = app.service(name)
            mean = svc.cpu_demand / cfg.cpu_speed
            if mean <= 0:
                self._demand_params[name] = (0.0, None)
            elif shape <= 0:
                self._demand_params[name] = (mean, None)
            else:
                self._demand_params[name] = (mean, mean / shape)
            self._floor[name] = svc.latency_floor / cfg.cpu_speed
            self._bg_work_scale[name] = (
                svc.baseline_cores / cfg.cpu_speed
            ) * cfg.background_interval
        core, background = spawn_streams(seed, len(app.service_names))
        self._init_streams(core, background)

    # -- mode hooks --------------------------------------------------------------
    def _make_queue(self):
        raise NotImplementedError

    def _init_streams(self, core, background) -> None:
        raise NotImplementedError

    def _prepare(self, horizon: float) -> None:
        """Per-run setup before the first event is pushed (default: none)."""

    def _first_arrival_time(self) -> float:
        raise NotImplementedError

    def _next_arrival_time(self, now: float) -> float | None:
        raise NotImplementedError

    def _background_first_time(self, service: str) -> float:
        raise NotImplementedError

    def _background_work(self, service: str) -> float:
        raise NotImplementedError

    def _background_next_time(self, service: str, now: float) -> float | None:
        raise NotImplementedError

    def _drain(self, horizon: float, warmup: float) -> bool:
        """Pop-and-dispatch until the horizon; True once warmup was reset."""
        raise NotImplementedError

    # -- demand sampling ---------------------------------------------------------
    def _sample_cpu_demand(self, service: str) -> float:
        mean, scale = self._demand_params[service]
        if scale is None:
            return mean
        return self._next_gamma() * scale

    def _sample_wait(self, service: str, cpu_time: float) -> float:
        base = self._floor[service] - cpu_time
        if base <= 0.0:
            return 0.0
        jitter = self._jitter
        if jitter == 0:
            return base
        return base * float(np.exp(jitter * self._next_normal()))

    def _choose_plan(self):
        idx = bisect_right(self._plan_cum, self._next_plan_u())
        if idx >= self._n_plans:  # u landed past cum[-1]'s rounding
            idx = self._n_plans - 1
        return self.plans[idx]

    # -- event scheduling ----------------------------------------------------------
    def _resched(self, server: ServiceServer) -> None:
        """Re-arm completion and quota events after any server change."""
        now = self.queue.now
        completion = server.next_completion()
        if completion is not None:
            job_id, dt = completion
            self.queue.push(
                now + dt,
                EventKind.CPU_DONE,
                payload=(server.name, job_id),
                epoch=server.epoch,
            )
        quota_dt = server.time_to_quota_exhaust()
        if quota_dt is not None:
            self.queue.push(
                now + quota_dt,
                EventKind.QUOTA_EXHAUST,
                payload=server.name,
                epoch=server.epoch,
            )

    def _schedule_period_end(self, server: ServiceServer) -> None:
        if server.period_event_armed:
            return
        boundary = (
            int(self.queue.now / self.config.period + 1e-9) + 1
        ) * self.config.period
        self.queue.push(boundary, EventKind.PERIOD_END, payload=server.name)
        server.period_event_armed = True

    # -- visit lifecycle -------------------------------------------------------------
    def _start_visit(self, visit: _Visit) -> None:
        now = self.queue.now
        server = self.servers[visit.service]
        server.advance(now)
        demand = self._sample_cpu_demand(visit.service)
        visit.span_start = now
        visit.cpu_time = demand
        if demand <= 0:
            self._finish_cpu_phase(visit)
            return
        job = CpuJob(
            job_id=self._next_job_id,
            remaining=demand,
            visit_ref=visit,
            started_at=now,
        )
        self._next_job_id += 1
        was_idle = not server.jobs
        server.add_job(job, now)
        if was_idle:
            self._schedule_period_end(server)
        self._resched(server)

    def _finish_cpu_phase(self, visit: _Visit) -> None:
        wait = self._sample_wait(visit.service, visit.cpu_time)
        self.queue.push(self.queue.now + wait, EventKind.WAIT_DONE, payload=visit)

    def _finish_visit(self, visit: _Visit) -> None:
        now = self.queue.now
        if self.traces is not None:
            self.traces.record(
                Span(
                    request_id=visit.request.request_id,
                    service=visit.service,
                    start=visit.span_start,
                    end=now,
                    cpu_time=visit.cpu_time,
                )
            )
        visit.visits_left -= 1
        if visit.visits_left > 0:
            self._start_visit(visit)
            return
        request = visit.request
        request.entries_pending -= 1
        if request.entries_pending > 0:
            return
        if request.finished_stages:
            self._complete_request(request)
        else:
            self.queue.push(
                now + self._hop_latency, EventKind.STAGE_START, payload=request
            )

    def _complete_request(self, request: RequestState) -> None:
        self.in_flight -= 1
        self.window.record_completion(self.queue.now - request.arrived_at)

    def _start_stage(self, request: RequestState) -> None:
        entries = request.sample_stage_entries(self._next_entry_u)
        if not entries:
            # Every call in the stage sampled to zero visits.
            if request.finished_stages:
                self._complete_request(request)
            else:
                self.queue.push(
                    self.queue.now, EventKind.STAGE_START, payload=request
                )
            return
        for entry in entries:
            self._start_visit(
                _Visit(
                    request=request,
                    service=entry.service,
                    visits_left=entry.visits_left,
                )
            )

    # -- event handlers ------------------------------------------------------------
    def _on_arrival(self, horizon: float) -> None:
        now = self.queue.now
        request = RequestState(
            request_id=self._next_request_id,
            plan=self._choose_plan(),
            arrived_at=now,
        )
        self._next_request_id += 1
        self.in_flight += 1
        self.window.started += 1
        self.queue.push(now, EventKind.STAGE_START, payload=request)
        t = self._next_arrival_time(now)
        if t is not None and t <= horizon:
            self.queue.push(t, EventKind.ARRIVAL, payload=horizon)

    def _on_cpu_done(self, service: str, job_id: int, epoch: int) -> None:
        server = self.servers[service]
        if epoch != server.epoch or job_id not in server.jobs:
            return  # stale
        server.advance(self.queue.now)
        job = server.jobs[job_id]
        if job.remaining > _DONE_EPS:
            # Numerical drift; re-arm from current state.
            self._resched(server)
            return
        server.remove_job(job_id)
        self._resched(server)
        if job.visit_ref is not None:
            self._finish_cpu_phase(job.visit_ref)
        # Background jobs (visit_ref None) just end.

    def _on_background(self, service: str, horizon: float) -> None:
        """One baseline-demand CPU burst (runtime/GC overhead)."""
        now = self.queue.now
        work = self._background_work(service)
        if work > 0:
            server = self.servers[service]
            server.advance(now)
            job = CpuJob(job_id=self._next_job_id, remaining=work, visit_ref=None)
            self._next_job_id += 1
            was_idle = not server.jobs
            server.add_job(job, now)
            if was_idle:
                self._schedule_period_end(server)
            self._resched(server)
        t = self._background_next_time(service, now)
        if t is not None and t <= horizon:
            self.queue.push(t, EventKind.BACKGROUND, payload=(service, horizon))

    def _on_quota_exhaust(self, service: str, epoch: int) -> None:
        server = self.servers[service]
        if epoch != server.epoch:
            return  # stale
        server.advance(self.queue.now)
        if not server.jobs or server.quota_left > _DONE_EPS:
            self._resched(server)
            return
        server.set_throttled()
        # PERIOD_END is always armed while the server is busy; the freeze
        # lasts until the next boundary.

    def _on_period_end(self, service: str) -> None:
        server = self.servers[service]
        server.period_event_armed = False
        server.advance(self.queue.now)
        server.new_period(self.queue.now)
        if server.jobs:
            self._schedule_period_end(server)
            self._resched(server)

    # -- run -----------------------------------------------------------------------
    def run(self, duration: float, warmup: float = 0.0) -> IntervalMetrics:
        """Simulate ``warmup + duration`` seconds; measure the last part."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        horizon = warmup + duration
        self._prepare(horizon)
        self.queue.push(
            self._first_arrival_time(), EventKind.ARRIVAL, payload=horizon
        )
        if self.config.background:
            for name in self.app.service_names:
                if self.app.service(name).baseline_cores > 0:
                    self.queue.push(
                        self._background_first_time(name),
                        EventKind.BACKGROUND,
                        payload=(name, horizon),
                    )
        warmup_done = self._drain(horizon, warmup)
        for server in self.servers.values():
            server.advance(horizon)
        measured = duration if warmup_done else horizon
        return self.window.build(self.servers, measured, self.workload_rps)

    def _reset_measurement(self, at: float) -> None:
        for server in self.servers.values():
            server.advance(at)
            server.reset_accumulators()
        self.window = MeasurementWindow()
        if self.traces is not None:
            self.traces.clear()


class MicroserviceSimulator(_SimCore):
    """One simulation run of one application at one allocation and rate.

    The vectorized production mode: every variate stream is pre-drawn in
    NumPy blocks, the arrival and per-service background schedules are
    pre-computed as arrays before the first event fires, and the event
    heap holds plain tuples.  Bit-identical to
    :class:`~repro.sim.des.reference.ReferenceSimulator` — traces,
    metrics, and counters — under the
    :mod:`repro.sim.des.variates` stream contract.
    """

    def _make_queue(self) -> FastEventQueue:
        return FastEventQueue()

    def _init_streams(self, core, background) -> None:
        self._arrival_exp = BlockExp(core[0])
        self._next_plan_u = BlockUniform(core[1]).next
        self._next_entry_u = BlockUniform(core[2]).next
        self._next_gamma = (
            BlockGamma(core[3], self._demand_shape).next
            if self._demand_shape > 0
            else None
        )
        self._next_normal = BlockNormal(core[4]).next
        self._bg_exp = {
            name: BlockExp(background[i])
            for i, name in enumerate(self.app.service_names)
        }
        self._arrival_times: list[float] = []
        self._arrival_idx = 0
        self._bg_works: dict[str, list[float]] = {}
        self._bg_times: dict[str, list[float]] = {}
        self._bg_idx: dict[str, int] = {}

    # -- pre-computed schedules ---------------------------------------------------
    def _prepare(self, horizon: float) -> None:
        cfg = self.config
        if cfg.arrivals == "poisson":
            self._arrival_times = poisson_times(
                self._arrival_exp, self.workload_rps, horizon
            )
        else:
            self._arrival_times = mmpp_times(
                self._arrival_exp,
                self.workload_rps,
                horizon,
                burst_factor=cfg.burst_factor,
                burst_fraction=cfg.burst_fraction,
            )
        self._arrival_idx = 1
        if not cfg.background:
            return
        interval = cfg.background_interval
        for name in self.app.service_names:
            if self.app.service(name).baseline_cores <= 0:
                continue
            stream = self._bg_exp[name]
            work_scale = self._bg_work_scale[name]
            # Same per-event draw order as the reference handler: the
            # work burst first, then the gap to the next event.
            t = stream.next() * interval
            times = [t]
            works: list[float] = []
            while t <= horizon:
                works.append(stream.next() * work_scale)
                t = t + stream.next() * interval
                if t > horizon:
                    break
                times.append(t)
            self._bg_times[name] = times
            self._bg_works[name] = works
            self._bg_idx[name] = 0

    def _first_arrival_time(self) -> float:
        return self._arrival_times[0]

    def _next_arrival_time(self, now: float) -> float | None:
        idx = self._arrival_idx
        if idx >= len(self._arrival_times):
            return None
        self._arrival_idx = idx + 1
        return self._arrival_times[idx]

    def _background_first_time(self, service: str) -> float:
        return self._bg_times[service][0]

    def _background_work(self, service: str) -> float:
        return self._bg_works[service][self._bg_idx[service]]

    def _background_next_time(self, service: str, now: float) -> float | None:
        idx = self._bg_idx[service] + 1
        self._bg_idx[service] = idx
        times = self._bg_times[service]
        if idx >= len(times):
            return None
        return times[idx]

    # -- hot loop ----------------------------------------------------------------
    #
    # The overrides below are the hand-optimized copies of the hottest
    # _SimCore paths: same draws from the same streams, same pushes in
    # the same order (so the (time, seq) event sequence — and therefore
    # every trace, metric, and payload byte — matches the reference),
    # with the queue/server method calls inlined.  The property tests and
    # ``benchmarks/des_gate.py`` hold them to the reference bit for bit.
    #
    # Two shortcuts skip heap traffic without changing that order:
    #
    # * After an epoch bump (a job admitted or finished), QUOTA_EXHAUST
    #   is pushed only when it falls strictly before the new CPU_DONE;
    #   otherwise it is parked on the server.  The CPU_DONE has the lower
    #   seq, so it pops first.  By then either the epoch has moved on
    #   (the quota event would have popped stale, a no-op) or the
    #   CPU_DONE is live: it removes its job (another bump) or takes the
    #   drift branch into :meth:`_resched`, which pushes the parked entry
    #   with its original (time, seq) key.  The seq counter advances by
    #   2 either way, so every later push keeps the reference's key.
    # * An arrival whose same-instant STAGE_START would be the next pop
    #   starts the stage inline, after consuming the same seq.

    def _drain(self, horizon: float, warmup: float) -> bool:
        queue = self.queue
        heap = queue._heap
        warmup_done = warmup == 0.0
        # Locals for the dispatch: attribute lookups cost real time at
        # tens of thousands of events per run.
        arrival = _ARRIVAL
        stage_start = _STAGE_START
        cpu_done = _CPU_DONE
        wait_done = _WAIT_DONE
        period_end = _PERIOD_END
        background = _BACKGROUND
        on_cpu_done = self._on_cpu_done
        finish_visit = self._finish_visit
        on_quota = self._on_quota_exhaust
        on_period_end = self._on_period_end
        start_stage = self._start_stage
        on_arrival = self._on_arrival
        on_background = self._on_background
        pop = heappop
        events = 0
        # Dispatch in event-frequency order.
        while heap and heap[0][0] <= horizon:
            time, _seq, kind, payload, epoch = pop(heap)
            events += 1
            queue.now = time
            if not warmup_done and time >= warmup:
                self._reset_measurement(warmup)
                warmup_done = True
            if kind is cpu_done:
                on_cpu_done(payload[0], payload[1], epoch)
            elif kind is wait_done:
                finish_visit(payload)
            elif kind is stage_start:
                start_stage(payload)
            elif kind is background:
                on_background(payload[0], payload[1])
            elif kind is arrival:
                on_arrival(payload)
            elif kind is period_end:
                on_period_end(payload)
            else:  # QUOTA_EXHAUST
                on_quota(payload, epoch)
        self.events = events
        return warmup_done

    def _resched(self, server: ServiceServer) -> None:
        queue = self.queue
        heap = queue._heap
        parked = server.parked_quota
        if parked is not None:
            server.parked_quota = None
            if parked[4] == server.epoch:
                heappush(heap, parked)  # live: the reference has it queued
        # Inlined ``next_completion``/``time_to_quota_exhaust``/``push``:
        # both queries share one gate (busy and unthrottled), and every
        # pushed time is ``now + dt`` with ``dt >= 0``, so the queue's
        # past-check/clamp can never fire.
        jobs = server.jobs
        if not jobs or server.throttled:
            return
        now = queue.now
        seq = queue._next_seq
        queue._next_seq = seq + 2
        epoch = server.epoch
        job = min(jobs.values(), key=_JOB_REMAINING)
        remaining = job.remaining
        heappush(
            heap,
            (
                now + (remaining if remaining > 0.0 else 0.0),
                seq,
                _CPU_DONE,
                (server.name, job.job_id),
                epoch,
            ),
        )
        quota = server.quota_left
        heappush(
            heap,
            (
                now + (quota if quota > 0.0 else 0.0) / len(jobs),
                seq + 1,
                _QUOTA_EXHAUST,
                server.name,
                epoch,
            ),
        )

    def _advance(self, server: ServiceServer, now: float) -> None:
        # Inlined ``ServiceServer.advance``: event times are heap-ordered,
        # so the backwards guard can never fire from the drain loop.
        elapsed = now - server.last_advance
        if elapsed > 0.0:
            jobs = server.jobs
            n = len(jobs)
            if n and not server.throttled:
                used = n * elapsed
                for job in jobs.values():
                    job.remaining -= elapsed
                server.usage_seconds += used
                server.quota_left -= used
                server.period_usage += used
            elif n:
                server.throttle_seconds += elapsed
        server.last_advance = now

    def _schedule_period_end(self, server: ServiceServer) -> None:
        if server.period_event_armed:
            return
        queue = self.queue
        period = self.config.period
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(
            queue._heap,
            (
                (int(queue.now / period + 1e-9) + 1) * period,
                seq,
                _PERIOD_END,
                server.name,
                -1,
            ),
        )
        server.period_event_armed = True

    def _admit(self, server: ServiceServer, now: float, job: CpuJob) -> None:
        """Inlined ``advance`` + ``add_job`` (+ period-end arming on an
        idle server) + ``_resched``, parking the quota timer."""
        queue = self.queue
        heap = queue._heap
        service = server.name
        jobs = server.jobs
        job_id = job.job_id
        if jobs:
            elapsed = now - server.last_advance
            if elapsed > 0.0:
                if not server.throttled:
                    used = len(jobs) * elapsed
                    for other in jobs.values():
                        other.remaining -= elapsed
                    server.usage_seconds += used
                    server.quota_left -= used
                    server.period_usage += used
                else:
                    server.throttle_seconds += elapsed
            server.last_advance = now
            jobs[job_id] = job
            epoch = server.epoch = server.epoch + 1
            if server.throttled:
                return
            nxt = min(jobs.values(), key=_JOB_REMAINING)
            remaining = nxt.remaining
            done_t = now + (remaining if remaining > 0.0 else 0.0)
            done_id = nxt.job_id
            quota = server.quota_left
            quota_t = now + (quota if quota > 0.0 else 0.0) / len(jobs)
        else:
            # Idle: ``sync_period`` and the period-end arming share one
            # period index, and the lone job is the next completion.
            server.last_advance = now
            period = server.period
            idx = int(now / period + 1e-9)
            if idx > server.period_index:
                server.period_samples.append(server.period_usage / period)
                server.period_usage = 0.0
                server.quota_left = server.alloc * period
                server.throttled = False
                server.period_index = idx
            if not server.period_event_armed:
                seq = queue._next_seq
                queue._next_seq = seq + 1
                heappush(
                    heap, ((idx + 1) * period, seq, _PERIOD_END, service, -1)
                )
                server.period_event_armed = True
            jobs[job_id] = job
            epoch = server.epoch = server.epoch + 1
            if server.throttled:
                return
            done_t = now + job.remaining
            done_id = job_id
            quota = server.quota_left
            quota_t = now + (quota if quota > 0.0 else 0.0)
        seq = queue._next_seq
        queue._next_seq = seq + 2
        heappush(heap, (done_t, seq, _CPU_DONE, (service, done_id), epoch))
        if quota_t < done_t:
            heappush(heap, (quota_t, seq + 1, _QUOTA_EXHAUST, service, epoch))
        else:
            server.parked_quota = (
                quota_t, seq + 1, _QUOTA_EXHAUST, service, epoch
            )

    def _start_visit(self, visit: _Visit) -> None:
        now = self.queue.now
        service = visit.service
        mean, scale = self._demand_params[service]
        demand = mean if scale is None else self._next_gamma() * scale
        visit.span_start = now
        visit.cpu_time = demand
        if demand <= 0:
            self._advance(self.servers[service], now)
            self._finish_cpu_phase(visit)
            return
        job_id = self._next_job_id
        self._next_job_id = job_id + 1
        self._admit(self.servers[service], now, CpuJob(job_id, demand, visit, now))

    def _finish_cpu_phase(self, visit: _Visit) -> None:
        # Inlined ``_sample_wait`` plus a direct WAIT_DONE push.
        base = self._floor[visit.service] - visit.cpu_time
        jitter = self._jitter
        if base <= 0.0:
            wait = 0.0
        elif jitter == 0:
            wait = base
        else:
            wait = base * float(np.exp(jitter * self._next_normal()))
        queue = self.queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(
            queue._heap,
            (queue.now + wait, seq, _WAIT_DONE, visit, -1),
        )

    def _finish_visit(self, visit: _Visit) -> None:
        queue = self.queue
        now = queue.now
        traces = self.traces
        if traces is not None:
            traces.record(
                Span(visit.request.request_id, visit.service, visit.span_start, now, visit.cpu_time)
            )
        left = visit.visits_left - 1
        visit.visits_left = left
        if left > 0:
            self._start_visit(visit)
            return
        request = visit.request
        pending = request.entries_pending - 1
        request.entries_pending = pending
        if pending > 0:
            return
        if request.stage_index >= request.plan.last_stage:
            self.in_flight -= 1
            self.window.record_completion(now - request.arrived_at)
        else:
            seq = queue._next_seq
            queue._next_seq = seq + 1
            heappush(
                queue._heap,
                (now + self._hop_latency, seq, _STAGE_START, request, -1),
            )

    def _start_stage(self, request: RequestState) -> None:
        # Inlined ``RequestState.sample_stage_entries``, building the
        # visits directly: one entry uniform per plan entry, in order.
        stage = request.stage_index + 1
        request.stage_index = stage
        next_u = self._next_entry_u
        visits = []
        for service, whole, frac in request.plan.stages[stage]:
            count = whole + (1 if next_u() < frac else 0)
            if count > 0:
                visits.append(_Visit(request, service, count))
        request.entries_pending = len(visits)
        if not visits:
            # Every call in the stage sampled to zero visits.
            if stage >= request.plan.last_stage:
                self.in_flight -= 1
                self.window.record_completion(
                    self.queue.now - request.arrived_at
                )
            else:
                queue = self.queue
                seq = queue._next_seq
                queue._next_seq = seq + 1
                heappush(
                    queue._heap,
                    (queue.now, seq, _STAGE_START, request, -1),
                )
            return
        start_visit = self._start_visit
        for visit in visits:
            start_visit(visit)

    def _on_cpu_done(self, service: str, job_id: int, epoch: int) -> None:
        server = self.servers[service]
        jobs = server.jobs
        if epoch != server.epoch or job_id not in jobs:
            return  # stale
        queue = self.queue
        now = queue.now
        # Inlined advance (jobs is non-empty: job_id is in it).
        elapsed = now - server.last_advance
        if elapsed > 0.0:
            if not server.throttled:
                used = len(jobs) * elapsed
                for job in jobs.values():
                    job.remaining -= elapsed
                server.usage_seconds += used
                server.quota_left -= used
                server.period_usage += used
            else:
                server.throttle_seconds += elapsed
        server.last_advance = now
        job = jobs[job_id]
        if job.remaining > _DONE_EPS:
            # Numerical drift; re-arm from current state.
            self._resched(server)
            return
        del jobs[job_id]
        epoch = server.epoch = server.epoch + 1
        heap = queue._heap
        # Inlined resched, parking the quota timer as in ``_admit``.
        if jobs and not server.throttled:
            n = len(jobs)
            if n == 1:
                (nxt,) = jobs.values()
            else:
                nxt = min(jobs.values(), key=_JOB_REMAINING)
            remaining = nxt.remaining
            done_t = now + (remaining if remaining > 0.0 else 0.0)
            quota = server.quota_left
            quota_t = now + (quota if quota > 0.0 else 0.0) / n
            seq = queue._next_seq
            queue._next_seq = seq + 2
            heappush(heap, (done_t, seq, _CPU_DONE, (service, nxt.job_id), epoch))
            if quota_t < done_t:
                heappush(heap, (quota_t, seq + 1, _QUOTA_EXHAUST, service, epoch))
            else:
                server.parked_quota = (
                    quota_t, seq + 1, _QUOTA_EXHAUST, service, epoch
                )
        visit = job.visit_ref
        if visit is None:
            return  # background jobs just end
        # Inlined _finish_cpu_phase.
        base = self._floor[service] - visit.cpu_time
        jitter = self._jitter
        if base <= 0.0:
            wait = 0.0
        elif jitter == 0:
            wait = base
        else:
            wait = base * float(np.exp(jitter * self._next_normal()))
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(heap, (now + wait, seq, _WAIT_DONE, visit, -1))

    def _on_quota_exhaust(self, service: str, epoch: int) -> None:
        server = self.servers[service]
        if epoch != server.epoch:
            return  # stale
        self._advance(server, self.queue.now)
        if not server.jobs or server.quota_left > _DONE_EPS:
            self._resched(server)
            return
        server.set_throttled()

    def _on_period_end(self, service: str) -> None:
        server = self.servers[service]
        server.period_event_armed = False
        now = self.queue.now
        self._advance(server, now)
        server.new_period(now)
        if server.jobs:
            self._schedule_period_end(server)
            self._resched(server)

    def _on_arrival(self, horizon: float) -> None:
        queue = self.queue
        now = queue.now
        heap = queue._heap
        request_id = self._next_request_id
        self._next_request_id = request_id + 1
        # Inlined _choose_plan.
        idx = bisect_right(self._plan_cum, self._next_plan_u())
        if idx >= self._n_plans:  # u landed past cum[-1]'s rounding
            idx = self._n_plans - 1
        request = RequestState(
            request_id=request_id, plan=self.plans[idx], arrived_at=now
        )
        self.in_flight += 1
        self.window.started += 1
        stage_seq = queue._next_seq
        queue._next_seq = stage_seq + 1
        aidx = self._arrival_idx
        times = self._arrival_times
        if aidx < len(times):
            self._arrival_idx = aidx + 1
            t = times[aidx]
            if t <= horizon:
                seq = queue._next_seq
                queue._next_seq = seq + 1
                heappush(heap, (t, seq, _ARRIVAL, horizon, -1))
        if heap and heap[0][0] <= now:
            # Something else is due this instant: queue the stage start.
            heappush(heap, (now, stage_seq, _STAGE_START, request, -1))
        else:
            self._start_stage(request)

    def _on_background(self, service: str, horizon: float) -> None:
        queue = self.queue
        now = queue.now
        bg_idx = self._bg_idx[service]
        work = self._bg_works[service][bg_idx]
        if work > 0:
            job_id = self._next_job_id
            self._next_job_id = job_id + 1
            self._admit(self.servers[service], now, CpuJob(job_id, work, None))
        bg_idx += 1
        self._bg_idx[service] = bg_idx
        times = self._bg_times[service]
        if bg_idx < len(times):
            t = times[bg_idx]
            if t <= horizon:
                seq = queue._next_seq
                queue._next_seq = seq + 1
                heappush(
                    queue._heap, (t, seq, _BACKGROUND, (service, horizon), -1)
                )
