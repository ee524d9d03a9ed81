"""Request execution state: compiled plans walked by the simulator.

An in-flight request executes its class's stages sequentially.  Each stage
fans out entries in parallel; an entry performs an integer number of
sequential visits to one service (fractional plan visits are sampled
per-request).  A visit is a CPU burst followed by a non-CPU wait (I/O,
downstream blocking), so CPU concurrency stays bursty even when many
requests are in flight — the regime the paper's throttling observations
live in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.apps.spec import AppSpec, RequestClass

__all__ = ["CompiledPlan", "compile_plans", "RequestState", "EntryState"]


@dataclass(frozen=True)
class CompiledPlan:
    """A request class reduced to arrays for fast sampling.

    Each stage entry is pre-split into ``(service, whole, frac)`` — the
    integer floor of the plan's visit count and its fractional part — so
    the per-request sampling loop does no float decomposition.  The split
    happens once at compile time with the exact arithmetic the sampler
    used to do per call (``int(v)``; ``v - int(v)``), so sampled counts
    are unchanged.
    """

    name: str
    weight: float
    stages: tuple[tuple[tuple[str, int, float], ...], ...]
    last_stage: int
    """``len(stages) - 1``, cached for the hot finished-stages test."""


def compile_plans(app: AppSpec) -> tuple[CompiledPlan, ...]:
    plans = []
    for rc in app.request_classes:
        stages = tuple(
            tuple(
                # visits >= 0, so truncation is floor.
                (service, int(visits), visits - int(visits))
                for service, visits in stage.parallel
            )
            for stage in rc.stages
        )
        plans.append(
            CompiledPlan(
                name=rc.name,
                weight=rc.weight,
                stages=stages,
                last_stage=len(stages) - 1,
            )
        )
    return tuple(plans)


@dataclass(slots=True)
class EntryState:
    """One parallel entry of the active stage."""

    service: str
    visits_left: int


@dataclass(slots=True)
class RequestState:
    """One in-flight request."""

    request_id: int
    plan: CompiledPlan
    arrived_at: float
    stage_index: int = -1
    entries_pending: int = 0

    def sample_stage_entries(
        self, next_uniform: Callable[[], float]
    ) -> list[EntryState]:
        """Materialize the next stage's entries with sampled visit counts.

        ``next_uniform`` serves the simulator's *entry* variate stream
        (see :mod:`repro.sim.des.variates`); one uniform is consumed per
        plan entry, in stage order, whether or not the visit count is
        fractional — a fixed consumption rate both execution modes share.
        """
        stage = self.stage_index + 1
        self.stage_index = stage
        entries: list[EntryState] = []
        for service, whole, frac in self.plan.stages[stage]:
            count = whole + (1 if next_uniform() < frac else 0)
            if count > 0:
                entries.append(EntryState(service, count))
        self.entries_pending = len(entries)
        return entries

    @property
    def finished_stages(self) -> bool:
        return self.stage_index >= self.plan.last_stage
