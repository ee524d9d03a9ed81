"""CFS-quota service server for the DES.

Each microservice is a server whose active CPU jobs all run at rate 1 core
(threads on a big node) until the container's CFS quota for the current
100 ms period is exhausted; then every job freezes until the period
boundary — exactly Linux CFS bandwidth control, and the source of the
throttle-time metric PEMA consumes.

State advances lazily between events; the simulator guarantees that no
rate change (quota exhaust, period end, job completion, job arrival)
happens strictly inside an advance span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CpuJob", "ServiceServer"]


@dataclass(slots=True)
class CpuJob:
    """One CPU burst of one visit."""

    job_id: int
    remaining: float
    visit_ref: object = field(default=None, repr=False)
    started_at: float = 0.0


class ServiceServer:
    """One microservice's CPU container."""

    def __init__(self, name: str, alloc_cores: float, period: float = 0.1) -> None:
        if alloc_cores <= 0:
            raise ValueError(f"{name}: allocation must be positive")
        if period <= 0:
            raise ValueError("period must be positive")
        self.name = name
        self.alloc = alloc_cores
        self.period = period
        self.jobs: dict[int, CpuJob] = {}
        self.throttled = False
        self.quota_left = alloc_cores * period
        self.last_advance = 0.0
        self.period_index = 0
        self.epoch = 0
        self.period_event_armed = False
        """Managed by the simulator: one PERIOD_END in flight at a time."""
        self.parked_quota: tuple | None = None
        """Managed by the vectorized simulator: a QUOTA_EXHAUST heap entry
        held back because the CPU_DONE armed with it pops first."""
        # Accumulators (reset by the measurement window).
        self.usage_seconds = 0.0
        self.throttle_seconds = 0.0
        self.period_usage = 0.0
        self.period_samples: list[float] = []

    # -- state advance -------------------------------------------------------
    def advance(self, now: float) -> None:
        """Integrate state from the last advance time to ``now``.

        Within the span the rate regime is constant: every job runs at 1
        core when unthrottled, 0 when throttled.
        """
        elapsed = now - self.last_advance
        if elapsed < -1e-9:
            raise ValueError("cannot advance backwards")
        if elapsed <= 0:
            self.last_advance = now
            return
        n = len(self.jobs)
        if n and not self.throttled:
            used = n * elapsed
            for job in self.jobs.values():
                job.remaining -= elapsed
            self.usage_seconds += used
            self.quota_left -= used
            self.period_usage += used
        elif n and self.throttled:
            self.throttle_seconds += elapsed
        self.last_advance = now

    # -- transitions -----------------------------------------------------------
    def add_job(self, job: CpuJob, now: float) -> None:
        """Admit a CPU job, refreshing the quota if the server sat idle
        across one or more period boundaries."""
        if not self.jobs:
            self.sync_period(now)
        self.jobs[job.job_id] = job
        self.epoch += 1

    def remove_job(self, job_id: int) -> CpuJob:
        job = self.jobs.pop(job_id)
        self.epoch += 1
        return job

    def set_throttled(self) -> None:
        self.throttled = True
        self.epoch += 1

    def new_period(self, now: float) -> None:
        """Period boundary: record usage sample, refill quota, unfreeze."""
        self.period_samples.append(self.period_usage / self.period)
        self.period_usage = 0.0
        self.quota_left = self.alloc * self.period
        self.throttled = False
        self.period_index = int(now / self.period + 1e-9)
        self.epoch += 1

    def sync_period(self, now: float) -> None:
        """Lazy period refresh for idle spans (no events were scheduled).

        Records the stale partial period's usage sample once; the fully
        idle periods in between contribute the zero padding applied at
        measurement time.
        """
        idx = int(now / self.period + 1e-9)
        if idx > self.period_index:
            self.period_samples.append(self.period_usage / self.period)
            self.period_usage = 0.0
            self.quota_left = self.alloc * self.period
            self.throttled = False
            self.period_index = idx

    # -- next-event horizon -------------------------------------------------------
    def next_completion(self) -> tuple[int, float] | None:
        """(job_id, dt) of the earliest finishing job at current rates."""
        if not self.jobs or self.throttled:
            return None
        job = min(self.jobs.values(), key=lambda j: j.remaining)
        return job.job_id, max(job.remaining, 0.0)

    def time_to_quota_exhaust(self) -> float | None:
        """dt until the quota runs out at current concurrency (None if safe)."""
        n = len(self.jobs)
        if not n or self.throttled:
            return None
        return max(self.quota_left, 0.0) / n

    # -- measurement -----------------------------------------------------------
    def reset_accumulators(self) -> None:
        self.usage_seconds = 0.0
        self.throttle_seconds = 0.0
        self.period_samples.clear()
