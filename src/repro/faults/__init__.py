"""Deterministic fault injection: a registry-extensible disturbance vocabulary.

The robustness experiments (``benchmarks/grids/robustness_*.json``) stress
every controller with the disturbances the paper's QoS-assurance claim
must survive.  Each disturbance is *declarative* (plain JSON in a spec's
``hooks`` or ``workload``) and *deterministic*: the schedule is a pure
function of the spec, so scalar, ``--batch``, and streamed-service
execution reproduce the same faults — and therefore the same bytes.

Three fault families:

**Engine faults** (:data:`ENGINE_FAULT_KINDS`) perturb the performance
model through dedicated engine channels — ``service_crash`` collapses one
service's effective capacity for a window, ``calibration_drift``
compounds a per-step error onto the calibrated CPU demands,
``correlated_surge`` shifts several services' demands at once.  They ship
as ordinary ``HOOKS`` entries; :func:`fault_actions` is the *single*
schedule implementation behind their hook closures, which the scalar
loop and the batched sweep runner (per cell) both fire, so the floats
they set are identical by construction.

**Workload faults** reshape the offered load: ``flash_crowd`` wraps any
base trace in a multiplicative spike with a linear ramp, hold, and decay
(:class:`FlashCrowdTrace`, a ``WORKLOADS`` kind with a bit-exact
``rate_batch``).

**Stream faults** (:data:`STREAM_FAULT_KINDS`) disturb the *delivery* of
metric samples to the always-on control plane — a sample is dropped and
retransmitted, duplicated, or delayed by whole driver rounds.  Offline
they are no-ops (the control loop has no transport to disturb); the
service orchestrator reads them from the spec and perturbs its delivery
schedule, while the guardian's reorder window puts the samples back in
order — so the *processed* sequence, and the decision bytes, stay
identical.

The :data:`FAULTS` registry catalogues every disturbance with a one-line
description (``repro registry --kind faults``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.experiments.registry import WORKLOADS, Registry
from repro.workload.trace import WorkloadTrace, batch_rates

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.spec import ExperimentSpec

__all__ = [
    "FAULTS",
    "ENGINE_FAULT_KINDS",
    "STREAM_FAULT_KINDS",
    "FaultAction",
    "fault_actions",
    "apply_fault_actions",
    "normalize_fault_params",
    "engine_fault_hook",
    "stream_fault_hook",
    "FlashCrowdTrace",
    "stream_fault_entries",
    "reorder_window_for",
    "stream_delivery",
]

#: Disturbance catalogue for ``repro registry --kind faults``.
FAULTS = Registry("fault scenario")

#: Hook kinds that perturb the engine's fault channels.
ENGINE_FAULT_KINDS = ("service_crash", "calibration_drift", "correlated_surge")

#: Hook kinds that perturb metric-sample delivery (service layer only).
STREAM_FAULT_KINDS = ("metric_dropout", "metric_duplicate", "metric_delay")


# -- parameter normalization ----------------------------------------------------
def _normalize_service_crash(*, at, duration, service, residual=0.05):
    at, duration = int(at), int(duration)
    if at < 0:
        raise ValueError(f"service_crash 'at' must be >= 0: {at}")
    if duration < 1:
        raise ValueError(f"service_crash 'duration' must be >= 1: {duration}")
    if not isinstance(service, str) or not service:
        raise TypeError(f"service_crash 'service' must be a name: {service!r}")
    residual = float(residual)
    if residual < 0:
        raise ValueError(f"service_crash 'residual' must be >= 0: {residual}")
    return {"at": at, "duration": duration, "service": service,
            "residual": residual}


def _normalize_calibration_drift(*, rate, at=0, service=None, every=1,
                                 until=None):
    rate = float(rate)
    if rate <= -1.0:
        raise ValueError(f"calibration_drift 'rate' must be > -1: {rate}")
    at, every = int(at), int(every)
    if at < 0:
        raise ValueError(f"calibration_drift 'at' must be >= 0: {at}")
    if every < 1:
        raise ValueError(f"calibration_drift 'every' must be >= 1: {every}")
    if service is not None and (not isinstance(service, str) or not service):
        raise TypeError(
            f"calibration_drift 'service' must be a name or null: {service!r}"
        )
    if until is not None:
        until = int(until)
        if until <= at:
            raise ValueError(
                f"calibration_drift 'until' must be > 'at': {until} <= {at}"
            )
    return {"rate": rate, "at": at, "service": service, "every": every,
            "until": until}


def _normalize_correlated_surge(*, services, factor, at, duration):
    if isinstance(services, str) or not isinstance(services, Sequence):
        raise TypeError(
            f"correlated_surge 'services' must be a list of names: {services!r}"
        )
    names = tuple(str(s) for s in services)
    if not names:
        raise ValueError("correlated_surge 'services' must be non-empty")
    factor = float(factor)
    if factor <= 0:
        raise ValueError(f"correlated_surge 'factor' must be positive: {factor}")
    at, duration = int(at), int(duration)
    if at < 0:
        raise ValueError(f"correlated_surge 'at' must be >= 0: {at}")
    if duration < 1:
        raise ValueError(
            f"correlated_surge 'duration' must be >= 1: {duration}"
        )
    return {"services": names, "factor": factor, "at": at,
            "duration": duration}


def _normalize_metric_dropout(*, at):
    at = int(at)
    if at < 0:
        raise ValueError(f"metric_dropout 'at' must be >= 0: {at}")
    return {"at": at}


def _normalize_metric_duplicate(*, at):
    at = int(at)
    if at < 0:
        raise ValueError(f"metric_duplicate 'at' must be >= 0: {at}")
    return {"at": at}


def _normalize_metric_delay(*, at, rounds=1):
    at, rounds = int(at), int(rounds)
    if at < 0:
        raise ValueError(f"metric_delay 'at' must be >= 0: {at}")
    if rounds < 1:
        raise ValueError(f"metric_delay 'rounds' must be >= 1: {rounds}")
    return {"at": at, "rounds": rounds}


_NORMALIZERS: dict[str, Callable[..., dict[str, Any]]] = {
    "service_crash": _normalize_service_crash,
    "calibration_drift": _normalize_calibration_drift,
    "correlated_surge": _normalize_correlated_surge,
    "metric_dropout": _normalize_metric_dropout,
    "metric_duplicate": _normalize_metric_duplicate,
    "metric_delay": _normalize_metric_delay,
}


def normalize_fault_params(kind: str, params: dict[str, Any]) -> dict[str, Any]:
    """Validated, default-filled parameters for one fault hook.

    Raises ``TypeError``/``ValueError`` on unknown keys or bad values —
    the same eager validation every registry factory performs, so a typo
    in a grid file fails at build time in *every* execution mode.
    """
    try:
        normalize = _NORMALIZERS[kind]
    except KeyError:
        known = ", ".join(sorted(_NORMALIZERS))
        raise KeyError(f"unknown fault kind {kind!r} (known: {known})") from None
    return normalize(**params)


# -- the shared fault schedule ---------------------------------------------------
@dataclass(frozen=True)
class FaultAction:
    """One engine-channel assignment: set ``channel`` of ``service`` to ``value``.

    ``channel`` is ``"capacity"`` (effective-capacity scale) or
    ``"demand"`` (CPU-demand scale); ``service`` is ``None`` for
    app-wide assignments.  Values are always *absolute* scales relative
    to the calibrated model — never accumulated — so replaying the
    schedule from any step reproduces the same state.
    """

    channel: str
    service: str | None
    value: float


def fault_actions(
    kind: str, params: dict[str, Any], step: int
) -> list[FaultAction]:
    """The engine-channel assignments fault ``kind`` makes at ``step``.

    This is the *single* schedule implementation: every executor fires
    the hook closures that call it (the batched sweep runner once per
    cell), so the float each path writes into its engine is the same
    IEEE value by construction.
    ``params`` must be :func:`normalize_fault_params` output.
    """
    if kind == "service_crash":
        if step == params["at"]:
            return [FaultAction("capacity", params["service"],
                                params["residual"])]
        if step == params["at"] + params["duration"]:
            return [FaultAction("capacity", params["service"], 1.0)]
        return []
    if kind == "calibration_drift":
        at, until, every = params["at"], params["until"], params["every"]
        if step < at or (until is not None and step >= until):
            return []
        if (step - at) % every:
            return []
        # Absolute compound drift: (1 + rate)^(k+1) at the k-th tick, so
        # the channel state is a pure function of the step.
        k = (step - at) // every
        value = (1.0 + params["rate"]) ** (k + 1)
        return [FaultAction("demand", params["service"], value)]
    if kind == "correlated_surge":
        if step == params["at"]:
            return [FaultAction("demand", name, params["factor"])
                    for name in params["services"]]
        if step == params["at"] + params["duration"]:
            return [FaultAction("demand", name, 1.0)
                    for name in params["services"]]
        return []
    raise KeyError(f"not an engine fault kind: {kind!r}")


_CHANNEL_SETTERS = {"capacity": "set_capacity_scale", "demand": "set_demand_scale"}


def apply_fault_actions(environment: Any, actions: list[FaultAction]) -> None:
    """Apply schedule actions to a scalar engine's fault channels."""
    for action in actions:
        setter = getattr(environment, _CHANNEL_SETTERS[action.channel], None)
        if setter is None:
            raise ValueError(
                f"engine {type(environment).__name__} has no fault channel "
                f"{action.channel!r} (fault hooks need the analytical engine)"
            )
        setter(action.value, service=action.service)


def engine_fault_hook(
    kind: str, params: dict[str, Any]
) -> Callable[[int, Any], None]:
    """An ``on_step`` hook applying ``kind``'s schedule to the scalar engine."""
    normalized = normalize_fault_params(kind, params)

    def hook(step, loop):
        actions = fault_actions(kind, normalized, step)
        if actions:
            apply_fault_actions(loop.environment, actions)

    return hook


def stream_fault_hook(
    kind: str, params: dict[str, Any]
) -> Callable[[int, Any], None]:
    """An ``on_step`` hook for a delivery fault: offline it is a no-op.

    Offline runs have no metric transport to disturb, and the service
    layer's reorder/dedup machinery restores the exact processed
    sequence — a deliberate no-op keeps all three execution modes
    byte-identical.  The orchestrator reads the same spec hooks to build
    its perturbed delivery schedule (:func:`stream_delivery`).
    """
    normalize_fault_params(kind, params)

    def hook(step, loop):  # noqa: ARG001 - deliberate no-op (see docstring)
        return None

    return hook


# -- stream-fault delivery planning ---------------------------------------------
def stream_fault_entries(spec: "ExperimentSpec") -> list[tuple[str, dict]]:
    """The spec's delivery faults as ``(kind, normalized_params)`` pairs."""
    return [
        (hook.kind, normalize_fault_params(hook.kind, dict(hook.params)))
        for hook in spec.hooks
        if hook.kind in STREAM_FAULT_KINDS
    ]


def reorder_window_for(spec: "ExperimentSpec") -> int:
    """The guardian reorder window the spec's delivery faults require.

    A sample delayed by ``d`` driver rounds arrives after ``d`` future
    samples, so the guardian must buffer that many.  Clean specs return
    0 — the strict legacy protocol (any out-of-order tick poisons).
    """
    window = 0
    for kind, params in stream_fault_entries(spec):
        if kind == "metric_delay":
            window = max(window, params["rounds"])
        elif kind == "metric_dropout":
            window = max(window, 1)
    return window


def stream_delivery(
    entries: list[tuple[str, dict]], step: int
) -> tuple[int, int]:
    """How the delivery faults affect the sample for ``step``.

    Returns ``(delay_rounds, copies)``: the sample is delivered
    ``delay_rounds`` driver rounds late (dropout counts as a one-round
    retransmission), ``copies`` times.  Multiple faults on the same step
    compose.
    """
    delay, copies = 0, 1
    for kind, params in entries:
        if params["at"] != step:
            continue
        if kind == "metric_delay":
            delay += params["rounds"]
        elif kind == "metric_dropout":
            delay += 1
        elif kind == "metric_duplicate":
            copies += 1
    return delay, copies


# -- workload fault: flash crowd -------------------------------------------------
class FlashCrowdTrace:
    """A multiplicative rate spike with linear ramp, hold, and decay.

    Wraps any base trace: the envelope is 1.0 before ``at``, ramps
    linearly to ``factor`` over ``ramp`` seconds, holds for ``hold``
    seconds, decays linearly back over ``decay`` seconds, and is 1.0
    after.  ``rate_batch`` evaluates the same per-element expressions the
    scalar ``rate`` uses, so batched schedules are bit-identical.
    """

    def __init__(
        self,
        base: WorkloadTrace,
        *,
        at: float,
        ramp: float,
        factor: float,
        hold: float = 0.0,
        decay: float | None = None,
    ) -> None:
        if at < 0:
            raise ValueError(f"'at' must be >= 0: {at}")
        if ramp <= 0:
            raise ValueError(f"'ramp' must be positive: {ramp}")
        if hold < 0:
            raise ValueError(f"'hold' must be >= 0: {hold}")
        if factor <= 0:
            raise ValueError(f"'factor' must be positive: {factor}")
        decay = ramp if decay is None else decay
        if decay <= 0:
            raise ValueError(f"'decay' must be positive: {decay}")
        self.base = base
        self.at = float(at)
        self.ramp = float(ramp)
        self.factor = float(factor)
        self.hold = float(hold)
        self.decay = float(decay)

    def envelope(self, t: float) -> float:
        """The spike multiplier at time ``t`` (seconds)."""
        t = float(t)
        peak_start = self.at + self.ramp
        peak_end = peak_start + self.hold
        if t < self.at or t >= peak_end + self.decay:
            return 1.0
        if t < peak_start:
            return 1.0 + (self.factor - 1.0) * ((t - self.at) / self.ramp)
        if t < peak_end:
            return self.factor
        return self.factor + (1.0 - self.factor) * ((t - peak_end) / self.decay)

    def rate(self, t: float) -> float:
        return self.base.rate(t) * self.envelope(t)

    def rate_batch(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        peak_start = self.at + self.ramp
        peak_end = peak_start + self.hold
        # The same branch expressions as ``envelope``, elementwise; each
        # element selects exactly the branch the scalar walk would take.
        rising = 1.0 + (self.factor - 1.0) * ((times - self.at) / self.ramp)
        falling = self.factor + (1.0 - self.factor) * (
            (times - peak_end) / self.decay
        )
        env = np.select(
            [
                (times >= self.at) & (times < peak_start),
                (times >= peak_start) & (times < peak_end),
                (times >= peak_end) & (times < peak_end + self.decay),
            ],
            [rising, np.full_like(times, self.factor), falling],
            default=1.0,
        )
        return batch_rates(self.base, times) * env


# -- catalogue ------------------------------------------------------------------
@FAULTS.register("service_crash")
def _service_crash_fault(**params):
    """Hook: one service's capacity collapses to a residual for a window, then recovers."""
    return engine_fault_hook("service_crash", params)


@FAULTS.register("calibration_drift")
def _calibration_drift_fault(**params):
    """Hook: per-service CPU demands drift by a compounding rate over time."""
    return engine_fault_hook("calibration_drift", params)


@FAULTS.register("correlated_surge")
def _correlated_surge_fault(**params):
    """Hook: several services' demands shift simultaneously for a window."""
    return engine_fault_hook("correlated_surge", params)


@FAULTS.register("flash_crowd")
def _flash_crowd_fault(**params):
    """Workload: multiplicative rate spike with linear ramp/hold/decay over a base trace."""
    return WORKLOADS.build("flash_crowd", **params)


@FAULTS.register("metric_dropout")
def _metric_dropout_fault(**params):
    """Stream: one metric sample is dropped and retransmitted a round later."""
    return stream_fault_hook("metric_dropout", params)


@FAULTS.register("metric_duplicate")
def _metric_duplicate_fault(**params):
    """Stream: one metric sample is delivered twice (guardian must dedup)."""
    return stream_fault_hook("metric_duplicate", params)


@FAULTS.register("metric_delay")
def _metric_delay_fault(**params):
    """Stream: one metric sample arrives whole driver rounds late (reordered)."""
    return stream_fault_hook("metric_delay", params)
