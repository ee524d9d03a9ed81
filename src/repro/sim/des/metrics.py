"""Measurement window for the DES: latencies + per-service counters."""

from __future__ import annotations

import numpy as np

from repro.sim.des.server import ServiceServer
from repro.sim.types import IntervalMetrics

__all__ = ["MeasurementWindow"]


class MeasurementWindow:
    """Accumulates one observation interval's samples."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.started = 0
        self.completed = 0

    def record_completion(self, latency: float) -> None:
        if latency < 0:
            raise ValueError("negative latency")
        self.latencies.append(latency)
        self.completed += 1

    def build(
        self,
        servers: dict[str, ServiceServer],
        duration: float,
        workload_rps: float,
        *,
        scale_to_interval: float | None = None,
    ) -> IntervalMetrics:
        """Summarize the window into :class:`IntervalMetrics`.

        ``scale_to_interval`` rescales throttle seconds from the simulated
        duration to a nominal monitoring interval so DES output is unit-
        compatible with the analytical engine.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        scale = 1.0 if scale_to_interval is None else scale_to_interval / duration
        total_periods = max(int(round(duration / next(iter(servers.values())).period)), 1) if servers else 1
        # One vectorized fold across services: stack every server's
        # period samples into a zero-padded matrix (idle periods produce
        # no sample events, so the padding makes percentiles reflect the
        # full interval) and take the per-row percentile in one call —
        # ``np.percentile(matrix, 90, axis=1)`` row *i* is bit-identical
        # to ``np.percentile(matrix[i], 90)``.  A server can overrun
        # ``total_periods`` by a boundary period; its row then keeps its
        # own length, so rows are only stacked while they agree.
        server_list = list(servers.values())
        lengths = {
            max(total_periods, len(s.period_samples)) for s in server_list
        }
        if len(lengths) == 1:
            matrix = np.zeros((len(server_list), lengths.pop()))
            for i, server in enumerate(server_list):
                samples = server.period_samples
                matrix[i, : len(samples)] = samples
            p90s = np.percentile(matrix, 90, axis=1)
        else:
            p90s = np.asarray(
                [
                    np.percentile(
                        np.pad(
                            s.period_samples,
                            (0, max(total_periods - len(s.period_samples), 0)),
                        )
                        if s.period_samples
                        else np.zeros(total_periods),
                        90,
                    )
                    for s in server_list
                ]
            )
        usage = np.asarray([s.usage_seconds for s in server_list]) / duration
        alloc = np.asarray([s.alloc for s in server_list])
        if self.latencies:
            arr = np.asarray(self.latencies)
            p95 = float(np.percentile(arr, 95))
            mean = float(arr.mean())
        else:
            p95 = mean = 0.0
        return IntervalMetrics.from_arrays(
            [s.name for s in server_list],
            p95,
            workload_rps,
            np.minimum(usage / alloc, 1.0),
            np.asarray([s.throttle_seconds for s in server_list]) * scale,
            usage,
            np.minimum(p90s, alloc),
            latency_mean=mean,
            completed_requests=self.completed,
        )
