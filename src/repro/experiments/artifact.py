"""Experiment artifacts: structured, serializable results of a spec run.

An :class:`ExperimentArtifact` pairs the spec that produced it with the
per-seed :class:`~repro.core.LoopResult` histories and derives the
summary statistics the paper's figures report (settled total CPU across
seeds, violation rates).  Artifacts round-trip through JSON via the
records form of :class:`~repro.metrics.export.UnitResult`, so a figure
cell can be archived, diffed, and re-plotted without re-running
anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.loop import LoopResult
from repro.experiments.spec import ExperimentSpec
# perfbench patches loop_result_to_dict and loop_result_from_dict here.
from repro.metrics.export import (  # noqa: F401
    UnitResult,
    loop_result_from_dict,
    loop_result_to_dict,
)

__all__ = ["ExperimentArtifact"]


@dataclass(frozen=True)
class _FromUnits:
    """A per-repeat channel not read yet: each repeat's channels."""

    name: str
    channels: tuple[Mapping[str, Any], ...]

    def __len__(self) -> int:
        return len(self.channels)


class _PerRepeat:
    """An artifact field holding one channel value per repeat.

    It holds a tuple, or the :class:`_FromUnits` that ``from_units``
    passes: the first read of the field decodes each repeat's channel
    then and keeps the tuple, so an artifact whose channels are never
    read never decodes them.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = f"_{name}"

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return ()  # the dataclass field default
        value = obj.__dict__[self.slot]
        if isinstance(value, _FromUnits):
            value = obj.__dict__[self.slot] = tuple(
                channels.get(value.name) for channels in value.channels
            )
        return value

    def __set__(self, obj: Any, value: Any) -> None:
        if not isinstance(value, _FromUnits):
            value = tuple(value)
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class ExperimentArtifact:
    """The outcome of ``run_experiment``: one ``LoopResult`` per repeat.

    When the spec's ``capture`` requested the ``manager_state`` channel,
    ``manager_states`` carries one JSON-ready snapshot per repeat (the
    workload-aware manager's range-tree splits/slope; None for
    autoscalers without internal state) — empty otherwise.  The
    ``decision_trace`` channel fills ``decision_traces`` the same way:
    one list of per-step decision records per repeat.  An artifact
    assembled from stored units decodes a channel when that field is
    first read.
    """

    spec: ExperimentSpec
    results: tuple[LoopResult, ...]
    manager_states: tuple[Any, ...] = _PerRepeat()
    decision_traces: tuple[Any, ...] = _PerRepeat()

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))
        if len(self.results) != self.spec.repeats:
            raise ValueError(
                f"expected {self.spec.repeats} results, got {len(self.results)}"
            )
        for name in ("manager_states", "decision_traces"):
            count = len(self.__dict__[f"_{name}"])  # without decoding
            if count and count != len(self.results):
                raise ValueError(
                    f"expected {len(self.results)} "
                    f"{name.replace('_', ' ')}, got {count}"
                )

    def manager_state(self, repeat: int = 0) -> Any:
        """Repeat ``repeat``'s captured manager-state payload.

        Raises LookupError when the spec did not request the channel.
        """
        if not self.manager_states:
            raise LookupError(
                "no manager state captured (add 'manager_state' to the "
                "spec's capture list)"
            )
        return self.manager_states[repeat]

    def decision_trace(self, repeat: int = 0) -> Any:
        """Repeat ``repeat``'s captured per-step decision records.

        Raises LookupError when the spec did not request the channel.
        """
        if not self.decision_traces:
            raise LookupError(
                "no decision trace captured (add 'decision_trace' to the "
                "spec's capture list)"
            )
        return self.decision_traces[repeat]

    # -- summary statistics ------------------------------------------------------
    def settled_totals(self, tail: int = 5) -> np.ndarray:
        """Per-seed settled total CPU (mean of the last SLO-good intervals)."""
        return np.asarray([r.settled_total(tail) for r in self.results])

    def mean_settled_total(self, tail: int = 5) -> float:
        return float(np.mean(self.settled_totals(tail)))

    def violation_rates(self) -> np.ndarray:
        return np.asarray([r.violation_rate() for r in self.results])

    def summary(self) -> dict[str, Any]:
        """The figures' headline numbers, as plain JSON-ready data."""
        settled = self.settled_totals()
        return {
            "name": self.spec.name,
            "app": self.spec.app,
            "autoscaler": self.spec.autoscaler.kind,
            "engine": self.spec.engine.kind,
            "workload": self.spec.workload.to_dict(),
            "n_steps": self.spec.n_steps,
            "repeats": self.spec.repeats,
            "seed": self.spec.seed,
            "settled_total_per_seed": [float(t) for t in settled],
            "settled_total_mean": float(np.mean(settled)),
            "settled_total_std": float(np.std(settled)),
            "violation_rate_per_seed": [
                float(v) for v in self.violation_rates()
            ],
            "final_total_cpu": [
                float(r.final_allocation().total()) for r in self.results
            ],
        }

    def summary_json(self) -> str:
        """Canonical summary encoding (stable key order — diffable)."""
        return json.dumps(self.summary(), sort_keys=True)

    # -- construction ------------------------------------------------------------
    @classmethod
    def from_units(
        cls, spec: ExperimentSpec, units: Sequence[UnitResult]
    ) -> "ExperimentArtifact":
        """Assemble an artifact from per-repeat units (in repeat order).

        Each captured channel the spec requested becomes one entry per
        repeat; a unit missing a requested channel contributes None.
        Nothing is decoded here: a channel is read from the units when
        its field is first read.
        """

        def channel(name: str) -> _FromUnits | tuple[()]:
            if name not in spec.capture:
                return ()
            return _FromUnits(name, tuple(unit.channels for unit in units))

        return cls(
            spec=spec,
            results=tuple(unit.result for unit in units),
            manager_states=channel("manager_state"),
            decision_traces=channel("decision_trace"),
        )

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data = {
            "spec": self.spec.to_dict(),
            "results": [UnitResult(r).to_payload() for r in self.results],
            "summary": self.summary(),
        }
        # Present only when captured, so capture-free artifacts keep
        # their historical byte encoding.
        if self.manager_states:
            data["manager_states"] = list(self.manager_states)
        if self.decision_traces:
            data["decision_traces"] = list(self.decision_traces)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentArtifact":
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            results=tuple(
                UnitResult.from_payload(r).result for r in data["results"]
            ),
            manager_states=tuple(data.get("manager_states", ())),
            decision_traces=tuple(data.get("decision_traces", ())),
        )

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentArtifact":
        return cls.from_dict(json.loads(text))

    def write(self, path: str | Path) -> Path:
        """Persist the artifact (spec + histories + summary) as JSON."""
        path = Path(path)
        path.write_text(self.to_json(indent=2))
        return path

    @classmethod
    def read(cls, path: str | Path) -> "ExperimentArtifact":
        return cls.from_json(Path(path).read_text())
