"""String-keyed factory registries for the declarative experiment layer.

Every pluggable piece of an experiment — the performance-model backend,
the autoscaler under test, the workload trace, the mid-run hooks — is
resolved from a registry by a short string key, so an
:class:`~repro.experiments.spec.ExperimentSpec` is fully described by
plain JSON data.  Extensions register new factories with
:meth:`Registry.register`; unknown keys fail with the list of known ones
so a typo in a spec file is a one-line diagnosis.

Factory call conventions (``params`` is the spec's params dict):

``ENGINES``
    ``factory(app, seed=..., **params) -> Environment``
``AUTOSCALERS``
    ``factory(app, start, slo, seed=..., **params) -> Autoscaler``
``WORKLOADS``
    ``factory(**params) -> WorkloadTrace``
``HOOKS``
    ``factory(**params) -> Callable[[int, ControlLoop], None]``
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator

__all__ = ["Registry", "ENGINES", "AUTOSCALERS", "WORKLOADS", "HOOKS"]


class Registry:
    """A named mapping from string keys to factory callables.

    Every entry carries a one-line human-readable description (explicit
    ``description=`` at registration, else the first line of the
    factory's docstring) — the ``repro registry`` CLI listing surfaces
    them, so a spec author can discover every kind without reading
    source.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self._factories: dict[str, Callable[..., Any]] = {}
        self._descriptions: dict[str, str] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., Any] | None = None,
        *,
        description: str | None = None,
    ) -> Callable[..., Any]:
        """Register ``factory`` under ``name``; usable as a decorator."""
        if factory is None:
            return lambda fn: self.register(name, fn, description=description)
        if not name:
            raise ValueError(f"{self.label} key must be a non-empty string")
        if name in self._factories:
            raise ValueError(f"{self.label} {name!r} is already registered")
        if description is None:
            doc = (factory.__doc__ or "").strip()
            description = doc.splitlines()[0].strip() if doc else ""
        self._factories[name] = factory
        self._descriptions[name] = description
        return factory

    def get(self, name: str) -> Callable[..., Any]:
        """The factory for ``name``; KeyError names the alternatives."""
        try:
            return self._factories[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            raise KeyError(
                f"unknown {self.label} {name!r} (known: {known})"
            ) from None

    def build(self, name: str, /, *args: Any, **kwargs: Any) -> Any:
        """Look up ``name`` and call its factory."""
        return self.get(name)(*args, **kwargs)

    def describe(self, name: str) -> str:
        """The one-line description of ``name`` (KeyError when unknown)."""
        self.get(name)
        return self._descriptions[name]

    def entries(self) -> list[tuple[str, str]]:
        """Sorted ``(name, description)`` pairs — the CLI listing's rows."""
        return [(name, self._descriptions[name]) for name in self.names()]

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._factories))

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())


ENGINES = Registry("engine backend")
AUTOSCALERS = Registry("autoscaler")
WORKLOADS = Registry("workload trace")
HOOKS = Registry("hook")


# -- engine backends -----------------------------------------------------------
@ENGINES.register("analytical")
def _analytical_engine(app, *, seed: int = 0, **params):
    """Closed-form Gamma/CFS latency model with measurement noise (default)."""
    from repro.sim.engine import AnalyticalEngine, analytical_params

    # e.g. {"noise": {"sigma": 0, "anomaly_prob": 0}} for the noise-free
    # scans of Fig. 10.
    return AnalyticalEngine(app, seed=seed, **analytical_params(params))


@ENGINES.register("des")
def _des_engine(app, *, seed: int = 0, **params):
    """Request-level discrete-event simulator (validation-grade)."""
    from repro.sim.des.engine import DESEngine
    from repro.sim.des.simulator import SimConfig

    config = params.pop("config", None)
    if config is not None:
        # Declarative simulator tunables, e.g. {"arrivals": "poisson"}.
        config = SimConfig(**config)
    return DESEngine(app, seed=seed, config=config, **params)


# -- autoscalers / baselines ---------------------------------------------------
@AUTOSCALERS.register("pema")
def _pema(app, start, slo, *, seed: int = 0, **params):
    """The paper's PEMA controller (Algorithm 1); params are PEMAConfig fields."""
    from repro.core import PEMAConfig, PEMAController

    config = PEMAConfig(**params) if params else None
    return PEMAController(app.service_names, slo, start, config, seed=seed)


@AUTOSCALERS.register("rule")
def _rule(app, start, slo, *, seed: int = 0, **params):  # noqa: ARG001
    """Threshold rule baseline (K8s VPA-style utilization/p90 scaling)."""
    from repro.baselines import RuleBasedAutoscaler

    return RuleBasedAutoscaler(start, **params)


@AUTOSCALERS.register("static")
def _static(app, start, slo, *, seed: int = 0, **params):  # noqa: ARG001
    """Fixed allocation: the start, or a pinned bottleneck_rps allocation."""
    from repro.baselines import StaticAllocator

    bottleneck_rps = params.pop("bottleneck_rps", None)
    scale = params.pop("scale", 1.0)
    if params:
        raise TypeError(f"unknown static autoscaler params: {sorted(params)}")
    if bottleneck_rps is not None:
        # Pin the engine-model bottleneck allocation at a declared
        # workload (scaled), e.g. the fixed-allocation scans of Fig. 10 —
        # instead of the headroom-scaled generous start.
        from repro.sim import AnalyticalEngine

        start = AnalyticalEngine(app).bottleneck_allocation(
            float(bottleneck_rps)
        )
        if scale != 1.0:
            start = start.scale(scale)
    elif scale != 1.0:
        raise TypeError("static 'scale' needs 'bottleneck_rps'")
    return StaticAllocator(start)


@AUTOSCALERS.register("optimum")
def _optimum(app, start, slo, *, seed: int = 0, **params):  # noqa: ARG001
    """OPTM baseline: pins the cached noiseless-optimum allocation per workload."""
    from repro.baselines import OptimumAllocator

    return OptimumAllocator(app, start, **params)


@AUTOSCALERS.register("pid")
def _pid(app, start, slo, *, seed: int = 0, **params):  # noqa: ARG001
    """PID feedback baseline: multiplicative CPU scaling on normalized SLO error."""
    from repro.baselines import PIDController

    return PIDController(start, slo, **params)


@AUTOSCALERS.register("brownout")
def _brownout(app, start, slo, *, seed: int = 0, **params):  # noqa: ARG001
    """Brownout baseline: fixed CPU, a service-level dimmer degrades to hold the SLO."""
    from repro.baselines import BrownoutController

    return BrownoutController(start, slo, **params)


@AUTOSCALERS.register("workload_aware_pema")
def _workload_aware_pema(app, start, slo, *, seed: int = 0, **params):
    """Dynamic-workload-range manager (S3.4): range-tree of PEMA processes."""
    from repro.core import PEMAConfig, WorkloadAwarePEMA

    start_rps = params.pop("start_rps", None)
    if start_rps is not None:
        # The dynamic-range figures start from the generous allocation of
        # a declared band-high workload, not of the trace's first rate.
        start = app.generous_allocation(float(start_rps))
    config = params.pop("config", None)
    if config is not None:
        config = PEMAConfig(**config)
    return WorkloadAwarePEMA(
        app.service_names, slo, start, config=config, seed=seed, **params
    )


# -- workload traces -----------------------------------------------------------
def _nested_trace(data, what: str):
    """Build a nested ``{"kind": ..., "params": ...}`` workload reference.

    Shared by the composing kinds (``noisy``/``phased``/``replay``) so a
    misspelled key inside the reference fails loudly instead of silently
    building the all-defaults trace.
    """
    try:
        fields = set(data)
    except TypeError:
        raise TypeError(f"{what} must be a {{'kind': ..., 'params': ...}} "
                        f"mapping: {data!r}") from None
    extra = fields - {"kind", "params"}
    if extra:
        raise TypeError(f"unknown {what} fields: {sorted(extra)}")
    if "kind" not in data:
        raise TypeError(f"{what} needs 'kind'")
    return WORKLOADS.build(data["kind"], **data.get("params", {}))


@WORKLOADS.register("constant")
def _constant(**params):
    """Fixed offered load: {"rps": ...} (the single-workload figures)."""
    from repro.workload import ConstantWorkload

    return ConstantWorkload(**params)


@WORKLOADS.register("step")
def _step(**params):
    """Piecewise-constant load: {"steps": [[t_start, rps], ...]}."""
    from repro.workload import StepWorkload

    steps = [tuple(s) for s in params.pop("steps")]
    return StepWorkload(steps, **params)


@WORKLOADS.register("ramp")
def _ramp(**params):
    """Linear ramp: {"start_rps", "end_rps", "duration"} seconds."""
    from repro.workload import RampWorkload

    return RampWorkload(**params)


@WORKLOADS.register("sinusoid")
def _sinusoid(**params):
    """Sinusoid between {"low"} and {"high"} with the given {"period"}."""
    from repro.workload import SinusoidalWorkload

    return SinusoidalWorkload(**params)


@WORKLOADS.register("burst")
def _burst(**params):
    """Base load plus rectangular bursts: {"base_rps", "bursts": [[t, dur, rps]]}."""
    from repro.workload import BurstWorkload

    bursts = [tuple(b) for b in params.pop("bursts")]
    return BurstWorkload(params.pop("base_rps"), bursts, **params)


@WORKLOADS.register("wikipedia")
def _wikipedia(**params):
    """Synthetic Wikipedia-like diurnal trace scaled to [low_rps, high_rps]."""
    from repro.workload import WikipediaTrace

    return WikipediaTrace(**params)


@WORKLOADS.register("noisy")
def _noisy(**params):
    """Multiplicative jitter around a nested {"base": {"kind": ...}} trace."""
    from repro.workload import NoisyTrace

    return NoisyTrace(_nested_trace(params.pop("base"), "noisy 'base'"), **params)


@WORKLOADS.register("phased")
def _phased(**params):
    """Sequential phases with restarted clocks: {"phases": [{"base", "duration"}]}."""
    from repro.workload import PhasedTrace

    phases = []
    for ph in params.pop("phases"):
        extra = set(ph) - {"base", "duration"}
        if extra:
            raise TypeError(f"unknown phase fields: {sorted(extra)}")
        phases.append(
            (_nested_trace(ph["base"], "phase 'base'"), ph.get("duration"))
        )
    if params:
        raise TypeError(f"unknown phased params: {sorted(params)}")
    return PhasedTrace(phases)


@WORKLOADS.register("flash_crowd")
def _flash_crowd(**params):
    """Multiplicative rate spike over a nested {"base"} trace: {"at", "ramp", "factor", "hold", "decay"}."""
    from repro.faults import FlashCrowdTrace

    return FlashCrowdTrace(
        _nested_trace(params.pop("base"), "flash_crowd 'base'"), **params
    )


@WORKLOADS.register("replay")
def _replay(**params):
    """Long-horizon trace replay: ordered {"segments"}, optional {"loop"}.

    Each segment is ``{"source": {"kind": ..., "params": ...}}`` plus at
    most one of ``"duration"`` (seconds) or ``"hours"``; the last segment
    may omit both (open-ended).  ``{"loop": true}`` wraps time modulo the
    schedule length (every duration must then be bounded) — the Fig. 14
    evaluation mode: replay a finite recording for as long as the run
    needs.
    """
    from repro.workload import ReplaySegment, ReplayTrace

    segment_data = params.pop("segments")
    loop = bool(params.pop("loop", False))
    if params:
        raise TypeError(f"unknown replay params: {sorted(params)}")
    if not isinstance(segment_data, (list, tuple)) or not segment_data:
        raise TypeError("replay needs a non-empty 'segments' list")
    segments = []
    for seg in segment_data:
        extra = set(seg) - {"source", "duration", "hours"}
        if extra:
            raise TypeError(f"unknown replay segment fields: {sorted(extra)}")
        if "source" not in seg:
            raise TypeError("replay segment needs 'source'")
        if "duration" in seg and "hours" in seg:
            raise TypeError(
                "replay segment takes 'duration' or 'hours', not both"
            )
        duration = seg.get("duration")
        if duration is None and "hours" in seg:
            duration = float(seg["hours"]) * 3600.0
        segments.append(
            ReplaySegment(_nested_trace(seg["source"], "replay 'source'"), duration)
        )
    return ReplayTrace(segments, loop=loop)


# -- mid-run hooks -------------------------------------------------------------
@HOOKS.register("set_slo")
def _set_slo_hook(*, at: int, slo: float):
    """Change the autoscaler's SLO at step ``at`` (the Fig. 20 experiment)."""
    if not 0 < slo < math.inf:  # NaN fails too
        raise ValueError(f"slo must be positive and finite: {slo!r}")

    def hook(step, loop):
        if step == at:
            loop.autoscaler.set_slo(slo)

    return hook


@HOOKS.register("set_cpu_speed")
def _set_cpu_speed_hook(*, at: int, speed: float):
    """Change the environment's CPU clock at step ``at`` (Fig. 19).

    ``speed`` is relative to nominal (e.g. 1.6 GHz / 1.8 GHz = 0.889).
    """

    def hook(step, loop):
        if step == at:
            loop.environment.set_cpu_speed(speed)

    return hook


@HOOKS.register("service_crash")
def _service_crash_hook(**params):
    """One service's capacity collapses for a window, then recovers: {"at", "duration", "service", "residual"}."""
    from repro.faults import engine_fault_hook

    return engine_fault_hook("service_crash", params)


@HOOKS.register("calibration_drift")
def _calibration_drift_hook(**params):
    """CPU demands drift by a compounding {"rate"} per step: {"at", "service", "every", "until"}."""
    from repro.faults import engine_fault_hook

    return engine_fault_hook("calibration_drift", params)


@HOOKS.register("correlated_surge")
def _correlated_surge_hook(**params):
    """Several services' demands shift at once: {"services", "factor", "at", "duration"}."""
    from repro.faults import engine_fault_hook

    return engine_fault_hook("correlated_surge", params)


@HOOKS.register("metric_dropout")
def _metric_dropout_hook(**params):
    """Service-layer delivery fault: drop the sample for step {"at"}, retransmit next round."""
    from repro.faults import stream_fault_hook

    return stream_fault_hook("metric_dropout", params)


@HOOKS.register("metric_duplicate")
def _metric_duplicate_hook(**params):
    """Service-layer delivery fault: deliver the sample for step {"at"} twice."""
    from repro.faults import stream_fault_hook

    return stream_fault_hook("metric_duplicate", params)


@HOOKS.register("metric_delay")
def _metric_delay_hook(**params):
    """Service-layer delivery fault: deliver step {"at"}'s sample {"rounds"} rounds late."""
    from repro.faults import stream_fault_hook

    return stream_fault_hook("metric_delay", params)
