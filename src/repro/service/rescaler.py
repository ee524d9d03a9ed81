"""The actuation plane: applies decisions to the simulated environment.

In the MAPE-K framing the control step each guardian runs
(:meth:`repro.core.loop.ControlLoop.step`) is Monitor+Analyze+Plan and
the :class:`Rescaler` is Execute: it takes the allocation an autoscaler
chose and pushes it into the app's deployment.  Keeping actuation in one
object gives the service a single choke point for rescale accounting —
how many scale-ups/downs each app performed, how much CPU moved — and a
seam where a real deployment would swap in an API-server client for the
simulated engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.service.telemetry import (
    RESCALER_APPLIES,
    RESCALER_CPU_MOVED,
    RESCALER_SCALE_DOWNS,
    RESCALER_SCALE_UPS,
)
from repro.sim.types import Allocation

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.guardian import Guardian

__all__ = ["Rescaler", "RescaleStats"]


@dataclass
class RescaleStats:
    """Per-app actuation counters (reported by ``/apps`` and the CLI)."""

    applies: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    cpu_moved: float = 0.0
    """Total absolute per-service CPU change across all applies."""

    def to_dict(self) -> dict[str, Any]:
        return {
            "applies": self.applies,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "cpu_moved": self.cpu_moved,
        }


class Rescaler:
    """Applies allocations to per-app deployments and counts the rescales.

    It adds accounting, not behavior: the observation of each interval
    belongs to the control step, exactly as offline.
    """

    def __init__(self) -> None:
        self._stats: dict[str, RescaleStats] = {}
        self._last: dict[str, Allocation] = {}

    def stats(self, app_id: str) -> RescaleStats:
        return self._stats.setdefault(app_id, RescaleStats())

    def apply(self, guardian: "Guardian", allocation: Allocation) -> None:
        """Push ``allocation`` into the app's (simulated) deployment.

        The simulated engines consume the allocation at observe time,
        so applying is pure bookkeeping here; a real deployment would
        resize its containers at this point.
        """
        app_id = guardian.app_id
        stats = self.stats(app_id)
        stats.applies += 1
        RESCALER_APPLIES.inc(app=app_id)
        previous = self._last.get(app_id)
        if previous is not None:
            names = allocation.names
            new = allocation.as_array(names)
            old = previous.as_array(names)
            if np.any(new > old):
                stats.scale_ups += 1
                RESCALER_SCALE_UPS.inc(app=app_id)
            if np.any(new < old):
                stats.scale_downs += 1
                RESCALER_SCALE_DOWNS.inc(app=app_id)
            moved = float(np.abs(new - old).sum())
            stats.cpu_moved += moved
            RESCALER_CPU_MOVED.inc(moved, app=app_id)
        self._last[app_id] = allocation

    def forget(self, app_id: str) -> None:
        """Drop an unregistered app's actuation state."""
        self._stats.pop(app_id, None)
        self._last.pop(app_id, None)
        for metric in (
            RESCALER_APPLIES,
            RESCALER_SCALE_UPS,
            RESCALER_SCALE_DOWNS,
            RESCALER_CPU_MOVED,
        ):
            metric.remove(app=app_id)
