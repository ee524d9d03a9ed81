"""Value objects of the streaming control plane.

A :class:`MetricSample` is what flows *into* the service: one app's
offered load for one control interval, produced by a load driver (or, in
a deployment, a metrics pipeline).  A :class:`Decision` is what flows
*out*: the interval record the autoscaler observed plus the allocation
it chose for the next interval.  Decision records use exactly the
offline runner's JSON encoding
(:func:`repro.metrics.export.loop_record_to_dict`), so a streamed
decision history and an offline :class:`~repro.core.loop.LoopResult`
compare byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.core.loop import LoopRecord
from repro.metrics.export import loop_record_to_dict
from repro.sim.types import Allocation

__all__ = ["MetricSample", "Decision", "ServiceError"]


class ServiceError(RuntimeError):
    """A control-plane protocol violation (bad app id, out-of-order tick)."""


@dataclass(frozen=True)
class MetricSample:
    """One app's offered load for one control interval.

    ``step`` is the interval index the sample belongs to; ``None`` lets
    the guardian assign the next expected step (the common case for live
    drivers).  An explicit ``step`` that does not match the guardian's
    clock is a :class:`ServiceError` — a skipped or duplicated interval
    would silently break the determinism contract, so it fails loudly.
    ``rps`` must be finite and ``>= 0``, or the sample is rejected with a
    :class:`ServiceError` before any guardian sees it.
    """

    app: str
    rps: float
    step: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rps) and self.rps >= 0):
            raise ServiceError(
                f"app {self.app!r}: rps must be finite and >= 0: {self.rps!r}"
            )


@dataclass(frozen=True)
class Decision:
    """One autoscaling decision: the observed interval and what comes next.

    ``record`` is the interval the allocation *served* (the offline
    loop's :class:`~repro.core.loop.LoopRecord` for the same step);
    ``next_allocation`` is what the autoscaler chose for the following
    interval.
    """

    app: str
    step: int
    record: LoopRecord
    next_allocation: Allocation

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``/decisions`` endpoint's rows).

        The ``record`` sub-object is byte-compatible with the offline
        runner's history encoding; the ``next_*`` fields are the
        service-only additions.
        """
        return {
            "app": self.app,
            "step": self.step,
            "record": loop_record_to_dict(self.record),
            "next_allocation": [
                [name, self.next_allocation[name]]
                for name in self.next_allocation.names
            ],
            "next_total_cpu": self.next_allocation.total(),
        }
