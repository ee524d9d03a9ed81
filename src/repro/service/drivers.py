"""Load drivers: where the service's metric stream comes from.

A driver turns "what load does app X see next?" into per-interval
:class:`~repro.service.types.MetricSample` rates.  The protocol is one
method — ``rates(guardian, n_steps)`` returns the next ``n_steps``
offered-load values starting at the guardian's current step — and the
orchestrator's :meth:`~repro.service.orchestrator.Orchestrator.drive`
streams those values through the bounded guardian queues.

Drivers resolve through the :data:`LOAD_DRIVERS` registry
(``factory(**params) -> driver``), mirroring the experiment-layer
registries so ``repro serve --driver <kind>`` and spec files stay
declarative.  The ``replay`` driver is the determinism-contract one: it
evaluates each app's *own declarative trace* through
:func:`repro.workload.replay.rate_schedule`, so the streamed floats are
bit-identical to what the offline runner's ``trace.rate(t)`` calls
produce and a driven service run equals the offline experiment
byte-for-byte.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.experiments.registry import Registry
from repro.workload.replay import rate_schedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.guardian import Guardian

__all__ = ["LOAD_DRIVERS", "LoadDriver", "ReplayDriver", "ConstantDriver"]

#: Load-driver kinds for ``repro serve --driver`` (see module docstring).
LOAD_DRIVERS = Registry("load driver")


@runtime_checkable
class LoadDriver(Protocol):
    """Anything that produces the next offered-load values for an app."""

    def rates(self, guardian: "Guardian", n_steps: int) -> np.ndarray: ...


class ReplayDriver:
    """Streams each app's own declarative trace (byte-identical replay).

    The rates for steps ``[steps_done, steps_done + n)`` come from one
    vectorized ``rate_schedule`` evaluation of the guardian's trace, so
    driving in several bursts (or after a partial run) continues the
    same schedule an offline run would follow.
    """

    def rates(self, guardian: "Guardian", n_steps: int) -> np.ndarray:
        return rate_schedule(
            guardian.unit.trace,
            guardian.spec.interval,
            n_steps,
            start_step=guardian.steps_done,
        )


class ConstantDriver:
    """Streams one fixed rate to every app (smoke/load testing)."""

    def __init__(self, rps: float) -> None:
        if not (math.isfinite(rps) and rps >= 0):
            raise ValueError(f"rps must be finite and >= 0: {rps!r}")
        self.rps = float(rps)

    def rates(self, guardian: "Guardian", n_steps: int) -> np.ndarray:
        return np.full(n_steps, self.rps, dtype=np.float64)


@LOAD_DRIVERS.register("replay")
def _replay_driver(**params):
    """Replay each app's declarative trace (offline-identical rates)."""
    if params:
        raise TypeError(f"unknown replay driver params: {sorted(params)}")
    return ReplayDriver()


@LOAD_DRIVERS.register("constant")
def _constant_driver(*, rps: float = 100.0, **params):
    """Fixed offered load for every app: {"rps": ...} (smoke testing)."""
    if params:
        raise TypeError(f"unknown constant driver params: {sorted(params)}")
    return ConstantDriver(rps)
