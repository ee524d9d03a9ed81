"""Declarative experiment description: one JSON-serializable object per run.

An :class:`ExperimentSpec` captures everything that was previously
hand-wired at every call site — which app, which performance-model
backend, which workload trace, which autoscaler, the SLO/interval/seed,
how many repeated seeds, and any mid-run hooks (dynamic SLO, CPU-speed
steps).  Specs are frozen value objects that round-trip losslessly
through ``to_json``/``from_json``, so a figure cell is reproducible from
a file, the CLI, or Python with identical results.

The string ``kind`` keys resolve through the registries in
:mod:`repro.experiments.registry`; ``params`` dicts are passed verbatim
to the registered factory.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.experiments.registry import AUTOSCALERS, ENGINES, HOOKS, WORKLOADS

__all__ = [
    "ComponentSpec",
    "WorkloadSpec",
    "AutoscalerSpec",
    "EngineSpec",
    "HookSpec",
    "ExperimentSpec",
    "CAPTURE_CHANNELS",
    "SPEC_FIELDS",
]

#: Opt-in artifact channels a spec may request via ``capture``.  Each
#: channel adds a payload alongside the run history in unit results,
#: artifacts, and sweep-store entries.  ``manager_state`` carries the
#: workload-aware manager's range-tree splits/slope snapshot (None for
#: autoscalers without one).  ``decision_trace`` carries one
#: deterministic :func:`repro.obs.decision.decision_record` per control
#: step — byte-identical across the scalar, batched, and streamed
#: execution paths.
CAPTURE_CHANNELS = ("manager_state", "decision_trace")

#: Every legal top-level :class:`ExperimentSpec` field (the sweep grids
#: validate their dotted override paths against this).
SPEC_FIELDS = frozenset({
    "name", "app", "workload", "autoscaler", "engine", "n_steps",
    "interval", "slo", "headroom", "seed", "repeats", "hooks", "capture",
})


def _finite_number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token} in spec JSON")
    return value


def loads_finite(text: str) -> Any:
    """``json.loads`` that rejects non-finite numbers with a ``ValueError``.

    No spec field accepts ``NaN``, ``Infinity`` or an overflowing literal
    such as ``1e999``.
    """
    return json.loads(
        text, parse_constant=_finite_number, parse_float=_finite_number
    )


def _integral(name: str, value: Any) -> int:
    """``value`` as an ``int``; a bool, str or fractional number is rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer: {value!r}")


def _real(name: str, value: Any) -> float:
    """``value`` as a finite ``float``; a bool, str or non-finite number
    is rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number: {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite: {value!r}")
    return number


def _check_finite(name: str, value: Any) -> None:
    """Reject a non-finite number in ``value`` or anything nested in it."""
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite: {value!r}")
    elif isinstance(value, Mapping):
        for key, item in value.items():
            _check_finite(f"{name}.{key}", item)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_finite(f"{name}[{i}]", item)


def _frozen_params(params: Mapping[str, Any] | None) -> dict[str, Any]:
    """A defensive copy (specs are value objects; don't alias caller dicts)."""
    return dict(params) if params else {}


@dataclass(frozen=True)
class ComponentSpec:
    """A registry key plus the keyword arguments for its factory."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("kind must be a non-empty string")
        object.__setattr__(self, "params", _frozen_params(self.params))

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"kind": self.kind}
        if self.params:
            d["params"] = dict(self.params)
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ComponentSpec":
        extra = set(data) - {"kind", "params"}
        if extra:
            raise ValueError(f"unknown {cls.__name__} fields: {sorted(extra)}")
        if "kind" not in data:
            raise ValueError(f"{cls.__name__} needs 'kind'")
        return cls(kind=data["kind"], params=dict(data.get("params", {})))


class WorkloadSpec(ComponentSpec):
    """Workload trace: ``WorkloadSpec("constant", {"rps": 700.0})``."""

    @classmethod
    def constant(cls, rps: float) -> "WorkloadSpec":
        return cls("constant", {"rps": float(rps)})

    @classmethod
    def coerce(cls, value: "WorkloadSpec | Mapping | float") -> "WorkloadSpec":
        """Accept a spec, a ``{"kind": ...}`` mapping, or a bare rate."""
        if isinstance(value, WorkloadSpec):
            return value
        if isinstance(value, (int, float)):
            return cls.constant(value)
        return cls.from_dict(value)


class AutoscalerSpec(ComponentSpec):
    """Autoscaler under test: ``pema`` / ``rule`` / ``static`` / custom."""

    @classmethod
    def pema(cls, **config: Any) -> "AutoscalerSpec":
        """PEMA with :class:`~repro.core.PEMAConfig` overrides as params."""
        return cls("pema", config)

    @classmethod
    def rule(cls, **params: Any) -> "AutoscalerSpec":
        return cls("rule", params)


@dataclass(frozen=True)
class EngineSpec(ComponentSpec):
    """Performance-model backend plus its seeding convention.

    ``seed_offset`` decouples the environment's measurement-noise stream
    from the controller's navigation stream: the engine is seeded with
    ``run_seed + seed_offset``.  The defaults reproduce the benchmark
    suite's historical seeding (PEMA runs used +1000, RULE runs +2000),
    so spec-driven runs are bit-identical to the hand-wired ones.
    """

    kind: str = "analytical"
    seed_offset: int = 1000

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self, "seed_offset", _integral("engine.seed_offset", self.seed_offset)
        )

    def to_dict(self) -> dict[str, Any]:
        d = super().to_dict()
        d["seed_offset"] = self.seed_offset
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineSpec":
        extra = set(data) - {"kind", "seed_offset", "params"}
        if extra:
            raise ValueError(f"unknown EngineSpec fields: {sorted(extra)}")
        return cls(
            kind=data.get("kind", "analytical"),
            params=dict(data.get("params", {})),
            seed_offset=data.get("seed_offset", 1000),
        )


class HookSpec(ComponentSpec):
    """Mid-run intervention: ``HookSpec("set_slo", {"at": 22, "slo": 0.2})``."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: app x engine x workload x autoscaler x schedule.

    ``repeats`` runs the same scenario under seeds ``seed, seed+1, ...``
    (PEMA's navigation is randomized, so the figures average repeats).
    ``slo=None`` uses the app's calibrated SLO.  ``headroom`` scales the
    generous starting allocation a rule-based manager would leave behind.
    """

    app: str
    workload: WorkloadSpec
    n_steps: int
    autoscaler: AutoscalerSpec = field(
        default_factory=lambda: AutoscalerSpec("pema")
    )
    engine: EngineSpec = field(default_factory=EngineSpec)
    name: str = ""
    interval: float = 120.0
    slo: float | None = None
    headroom: float = 2.0
    seed: int = 0
    repeats: int = 1
    hooks: tuple[HookSpec, ...] = ()
    capture: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Plain mappings (and bare workload rates) coerce to their spec
        # types, so hand-written specs stay close to their JSON form.
        object.__setattr__(self, "workload", WorkloadSpec.coerce(self.workload))
        if not isinstance(self.autoscaler, AutoscalerSpec):
            object.__setattr__(
                self, "autoscaler", AutoscalerSpec.from_dict(self.autoscaler)
            )
        if not isinstance(self.engine, EngineSpec):
            object.__setattr__(
                self, "engine", EngineSpec.from_dict(self.engine)
            )
        object.__setattr__(
            self,
            "hooks",
            tuple(
                h if isinstance(h, HookSpec) else HookSpec.from_dict(h)
                for h in self.hooks
            ),
        )
        for name in ("n_steps", "seed", "repeats"):
            object.__setattr__(self, name, _integral(name, getattr(self, name)))
        for name in ("interval", "headroom"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.slo is not None:
            object.__setattr__(self, "slo", _real("slo", self.slo))
        for name in ("workload", "autoscaler", "engine"):
            _check_finite(f"{name}.params", getattr(self, name).params)
        for i, hook in enumerate(self.hooks):
            _check_finite(f"hooks[{i}].params", hook.params)
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1: {self.n_steps}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1: {self.repeats}")
        if self.interval <= 0:
            raise ValueError(f"interval must be positive: {self.interval}")
        if self.headroom <= 0:
            raise ValueError(f"headroom must be positive: {self.headroom}")
        if self.slo is not None and self.slo <= 0:
            raise ValueError(f"slo must be positive: {self.slo}")
        object.__setattr__(
            self, "capture", tuple(str(c) for c in self.capture)
        )
        for channel in self.capture:
            if channel not in CAPTURE_CHANNELS:
                raise ValueError(
                    f"unknown capture channel {channel!r} "
                    f"(known: {', '.join(CAPTURE_CHANNELS)})"
                )
        if len(set(self.capture)) != len(self.capture):
            raise ValueError(f"duplicate capture channels: {self.capture}")

    # -- registry validation -----------------------------------------------------
    def validate(self) -> "ExperimentSpec":
        """Resolve every registry key (raises KeyError on unknown kinds)."""
        from repro.apps import app_names

        if self.app not in app_names():
            raise KeyError(
                f"unknown app {self.app!r} (known: {', '.join(app_names())})"
            )
        ENGINES.get(self.engine.kind)
        AUTOSCALERS.get(self.autoscaler.kind)
        WORKLOADS.get(self.workload.kind)
        for hook in self.hooks:
            HOOKS.get(hook.kind)
        return self

    # -- derivation --------------------------------------------------------------
    def with_(self, **changes: Any) -> "ExperimentSpec":
        """A modified copy (grid sweeps derive cells from a base spec)."""
        return replace(self, **changes)

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data = {
            "name": self.name,
            "app": self.app,
            "workload": self.workload.to_dict(),
            "autoscaler": self.autoscaler.to_dict(),
            "engine": self.engine.to_dict(),
            "n_steps": self.n_steps,
            "interval": self.interval,
            "slo": self.slo,
            "headroom": self.headroom,
            "seed": self.seed,
            "repeats": self.repeats,
            "hooks": [h.to_dict() for h in self.hooks],
        }
        # Only serialized when requested: capture-free specs keep their
        # historical encoding (and therefore their sweep-store hashes).
        if self.capture:
            data["capture"] = list(self.capture)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        extra = set(data) - SPEC_FIELDS
        if extra:
            raise ValueError(f"unknown ExperimentSpec fields: {sorted(extra)}")
        for required in ("app", "workload", "n_steps"):
            if required not in data:
                raise ValueError(f"ExperimentSpec needs {required!r}")
        return cls(
            name=str(data.get("name", "")),
            app=data["app"],
            workload=WorkloadSpec.coerce(data["workload"]),
            autoscaler=AutoscalerSpec.from_dict(
                data.get("autoscaler", {"kind": "pema"})
            ),
            engine=EngineSpec.from_dict(data.get("engine", {})),
            n_steps=data["n_steps"],
            interval=data.get("interval", 120.0),
            slo=data.get("slo"),
            headroom=data.get("headroom", 2.0),
            seed=data.get("seed", 0),
            repeats=data.get("repeats", 1),
            hooks=tuple(
                HookSpec.from_dict(h) for h in data.get("hooks", ())
            ),
            capture=tuple(data.get("capture", ())),
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(loads_finite(text))
