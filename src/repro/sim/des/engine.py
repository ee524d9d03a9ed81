"""DESEngine: the discrete-event simulator behind the Environment protocol.

Each ``observe`` call runs a fresh transient simulation of the requested
allocation/workload.  Full two-minute intervals are unnecessary (and slow
in pure Python), so the engine simulates a shorter representative slice
(default 12 s after a 3 s warm-up) and rescales accumulated throttle
seconds to the nominal interval, keeping units compatible with the
analytical engine.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.sim.des.simulator import MicroserviceSimulator, SimConfig
from repro.sim.des.tracing import TraceLog
from repro.sim.types import Allocation, IntervalMetrics, ServiceMetrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.spec import AppSpec

__all__ = ["DESEngine"]


class DESEngine:
    """Request-level simulation implementation of ``Environment``.

    ``mode`` selects the execution style: ``"vectorized"`` (default, the
    pre-drawn-variate :class:`MicroserviceSimulator`) or ``"reference"``
    (the retained scalar oracle,
    :class:`~repro.sim.des.reference.ReferenceSimulator`).  The two are
    bit-identical by contract — ``mode`` exists so fidelity tests and the
    DES gate can run both from one declarative spec.
    """

    def __init__(
        self,
        app: "AppSpec",
        *,
        config: SimConfig | None = None,
        sim_seconds: float = 12.0,
        warmup_seconds: float = 3.0,
        seed: int = 0,
        mode: str = "vectorized",
    ) -> None:
        if not (
            math.isfinite(sim_seconds)
            and math.isfinite(warmup_seconds)
            and sim_seconds > 0
            and warmup_seconds >= 0
        ):
            raise ValueError(
                "need finite sim_seconds > 0 and warmup_seconds >= 0"
            )
        if mode == "vectorized":
            self._simulator_cls = MicroserviceSimulator
        elif mode == "reference":
            from repro.sim.des.reference import ReferenceSimulator

            self._simulator_cls = ReferenceSimulator
        else:
            raise ValueError(f"unknown DES mode {mode!r}")
        self._app = app
        self.config = config or SimConfig()
        self.sim_seconds = sim_seconds
        self.warmup_seconds = warmup_seconds
        self.seed = seed
        self.mode = mode
        self._calls = 0
        self.last_traces: TraceLog | None = None
        self.last_completed: int = 0
        self.last_started: int = 0
        self.last_events: int = 0
        """Heap pops of the last ``observe`` simulation."""

    @property
    def app(self) -> "AppSpec":
        return self._app

    @property
    def cpu_speed(self) -> float:
        return self.config.cpu_speed

    def set_cpu_speed(self, speed: float) -> None:
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.config = replace(self.config, cpu_speed=speed)

    def observe(
        self,
        allocation: Allocation,
        workload_rps: float,
        interval: float = 120.0,
    ) -> IntervalMetrics:
        """Simulate a slice of the interval and report rescaled metrics."""
        if workload_rps <= 0:
            # A silent application: zero latency, idle services.
            services = {
                name: ServiceMetrics(
                    utilization=0.0,
                    throttle_seconds=0.0,
                    usage_cores=0.0,
                    usage_p90_cores=0.0,
                )
                for name in self._app.service_names
            }
            return IntervalMetrics(
                latency_p95=0.0, workload_rps=0.0, services=services
            )
        self._calls += 1
        sim = self._simulator_cls(
            self._app,
            allocation,
            workload_rps,
            config=self.config,
            seed=(self.seed * 1_000_003 + self._calls),
        )
        duration = min(self.sim_seconds, interval)
        raw = sim.run(duration, warmup=self.warmup_seconds)
        self.last_traces = sim.traces
        self.last_completed = sim.window.completed
        self.last_started = sim.window.started
        self.last_events = sim.events
        scale = interval / duration
        services = {
            name: ServiceMetrics(
                utilization=m.utilization,
                throttle_seconds=m.throttle_seconds * scale,
                usage_cores=m.usage_cores,
                usage_p90_cores=m.usage_p90_cores,
            )
            for name, m in raw.services.items()
        }
        return IntervalMetrics(
            latency_p95=raw.latency_p95,
            workload_rps=workload_rps,
            services=services,
            latency_mean=raw.latency_mean,
            completed_requests=raw.completed_requests,
        )
