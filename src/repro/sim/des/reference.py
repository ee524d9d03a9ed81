"""The retained scalar DES reference: the vectorized mode's fidelity oracle.

:class:`ReferenceSimulator` executes the exact event logic of
:class:`~repro.sim.des.simulator.MicroserviceSimulator` but in the
transparently-correct scalar style: one ``numpy.random.Generator`` call
per variate at the moment the event needs it, lazy arrival draws through
the :class:`~repro.sim.des.arrivals.PoissonArrivals`/
:class:`~repro.sim.des.arrivals.MMPPArrivals` chain objects, and a
dataclass-event heap (:class:`~repro.sim.des.events.EventQueue`).

Under the :mod:`repro.sim.des.variates` stream contract the two modes
are bit-identical — traces, ``IntervalMetrics``, counters, and the sweep
payloads built from them.  ``benchmarks/des_gate.py`` and the property
tests in ``tests/test_des_vectorized.py`` enforce this; when they
disagree, the reference is by definition the correct one (the
``find_reference`` pattern the OPTM frontier rewrite established).
"""

from __future__ import annotations

from repro.sim.des.arrivals import MMPPArrivals, PoissonArrivals
from repro.sim.des.events import EventKind, EventQueue
from repro.sim.des.simulator import _SimCore
from repro.sim.des.variates import (
    ScalarExp,
    ScalarGamma,
    ScalarNormal,
    ScalarUniform,
)

__all__ = ["ReferenceSimulator"]


class ReferenceSimulator(_SimCore):
    """Scalar-call-order DES run; same constructor and surface as
    :class:`~repro.sim.des.simulator.MicroserviceSimulator`."""

    def _make_queue(self) -> EventQueue:
        return EventQueue()

    def _init_streams(self, core, background) -> None:
        cfg = self.config
        if cfg.arrivals == "poisson":
            self.arrivals = PoissonArrivals(self.workload_rps, core[0])
        else:
            self.arrivals = MMPPArrivals(
                self.workload_rps,
                core[0],
                burst_factor=cfg.burst_factor,
                burst_fraction=cfg.burst_fraction,
            )
        self._next_plan_u = ScalarUniform(core[1]).next
        self._next_entry_u = ScalarUniform(core[2]).next
        self._next_gamma = (
            ScalarGamma(core[3], self._demand_shape).next
            if self._demand_shape > 0
            else None
        )
        self._next_normal = ScalarNormal(core[4]).next
        self._bg_exp = {
            name: ScalarExp(background[i])
            for i, name in enumerate(self.app.service_names)
        }

    def _first_arrival_time(self) -> float:
        return self.arrivals.next_gap()

    def _next_arrival_time(self, now: float) -> float | None:
        return now + self.arrivals.next_gap()

    def _background_first_time(self, service: str) -> float:
        return self._bg_exp[service].next() * self.config.background_interval

    def _background_work(self, service: str) -> float:
        return self._bg_exp[service].next() * self._bg_work_scale[service]

    def _background_next_time(self, service: str, now: float) -> float | None:
        return now + self._bg_exp[service].next() * self.config.background_interval

    def _drain(self, horizon: float, warmup: float) -> bool:
        queue = self.queue
        warmup_done = warmup == 0.0
        events = 0
        while len(queue) and queue.peek_time() <= horizon:
            event = queue.pop()
            events += 1
            if not warmup_done and event.time >= warmup:
                self._reset_measurement(warmup)
                warmup_done = True
            kind = event.kind
            if kind is EventKind.ARRIVAL:
                self._on_arrival(event.payload)
            elif kind is EventKind.STAGE_START:
                self._start_stage(event.payload)
            elif kind is EventKind.CPU_DONE:
                service, job_id = event.payload
                self._on_cpu_done(service, job_id, event.epoch)
            elif kind is EventKind.WAIT_DONE:
                self._finish_visit(event.payload)
            elif kind is EventKind.QUOTA_EXHAUST:
                self._on_quota_exhaust(event.payload, event.epoch)
            elif kind is EventKind.PERIOD_END:
                self._on_period_end(event.payload)
            elif kind is EventKind.BACKGROUND:
                service, bg_horizon = event.payload
                self._on_background(service, bg_horizon)
        self.events = events
        return warmup_done
