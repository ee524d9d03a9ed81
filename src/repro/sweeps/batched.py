"""Vectorized batched evaluation of compatible sweep units.

The scheduler's ``batch=True`` path partitions each chunk of pending
(spec, repeat) units into *compatible groups* — same application, same
autoscaler kind, same horizon, analytical engine with the same noise
model — and hands every group to :func:`run_units_batched`, which
advances the whole group through the control loop as one stack of
arrays: one :class:`~repro.sim.batched.BatchedAnalyticalEngine`
observation and one :class:`~repro.sim.batched.DecisionBank` step per
interval, instead of one full scalar Python loop per cell.  This module
names no controller family and no hook: each cell's controller is built
by its ``AUTOSCALERS`` factory, the controller class names its bank
(``decision_bank``; the base bank decides per cell through the scalar
controllers), and each cell's hooks are the registered ``HOOKS``
callables, fired against a per-cell view of the batched engine and bank
that offers the scalar loop's surface.

Byte-identity: the scalar engine is a 1-row batched engine, so each
row of the batched observation is the scalar observation (see
:mod:`repro.sim.batched`), and every bank replays its scalar
controller's float operations and random draws in order (see
:mod:`repro.core.batch`).  The :class:`~repro.metrics.export.UnitResult`
objects returned here therefore equal what
``repro.experiments.runner.run_unit_result`` returns for the same unit —
the same bytes land in the sweep store either way.

Cells that :func:`classify_unit` cannot place in a group (DES engine,
params a registry factory rejects, a hook the family cannot take, a
horizon past the bank's ``max_steps``) run through the scalar worker
unchanged — a fallback, never an error.  Each fallback carries the
machine-readable reason slug :func:`classify_unit` returns in place of a
key, which the scheduler tallies into ``SweepReport.fallbacks`` so batch
coverage is visible instead of silently degrading.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Hashable, Sequence

import numpy as np

from repro.apps import build_app
from repro.core.loop import LoopResult
from repro.experiments.registry import AUTOSCALERS, HOOKS, WORKLOADS
from repro.experiments.runner import hooks_on_step, unsupported_hook
from repro.experiments.spec import ExperimentSpec
from repro.metrics.export import UnitResult
from repro.obs.decision import decision_record
from repro.sim.batched import BatchedAnalyticalEngine, DecisionBank, EngineCell
from repro.sim.engine import analytical_params
from repro.sim.types import Allocation
from repro.sweeps.store import paused_gc
from repro.workload.replay import rate_schedule

__all__ = [
    "batch_from_env",
    "classify_unit",
    "run_units_batched",
]


def batch_from_env(default: bool = False) -> bool:
    """The ``REPRO_SWEEP_BATCH`` default: ``1/true/yes/on`` enable it."""
    import os

    value = os.environ.get("REPRO_SWEEP_BATCH")
    if value is None:
        return default
    return value.strip().lower() in ("1", "true", "yes", "on")


def classify_unit(
    spec: ExperimentSpec,
) -> tuple[tuple[Hashable, ...] | None, str | None]:
    """``(batch key, None)`` for batchable specs, ``(None, reason)`` else.

    Units sharing a key can be stacked into one batch: same app (service
    set and calibration), same autoscaler kind (one bank), same horizon
    (one time loop), and same engine noise model (one vectorized
    observation).  Everything else — workload level and kind, α/β and
    other autoscaler params, hooks, interval, SLO, headroom, seeds —
    varies freely *within* a batch.

    The reason is a stable machine-readable slug (``engine:des``,
    ``engine_params:<engine>``, ``autoscaler[_params]:<kind>``,
    ``hook[_params]:<hook>``, ``<hook>:<kind>``, ``horizon:<kind>``),
    which the scheduler tallies into ``SweepReport.fallbacks``.

    Params resolve through the calls the scalar path makes, and one probe
    controller names the family's bank, so a spec the scalar path would
    reject at build time falls back to it and fails there, with the same
    error.
    """
    key, reason = _group_key(spec)
    if key is None:
        return None, reason
    kind = spec.autoscaler.kind
    app, start = _probe_start(spec.app)
    try:
        probe = AUTOSCALERS.build(
            kind,
            app,
            start,
            spec.slo if spec.slo is not None else app.slo,
            **spec.autoscaler.params,
        )
    except (TypeError, ValueError):
        return None, f"autoscaler_params:{kind}"
    reason = _bank_reason(spec, probe)
    if reason is not None:
        return None, reason
    return key, None


def _group_key(
    spec: ExperimentSpec,
) -> tuple[tuple[Hashable, ...] | None, str | None]:
    """:func:`classify_unit` short of its controller probe."""
    if spec.engine.kind != "analytical":
        return None, f"engine:{spec.engine.kind}"
    try:
        noise_model = analytical_params(spec.engine.params).get("noise")
    except (TypeError, ValueError):
        return None, f"engine_params:{spec.engine.kind}"
    kind = spec.autoscaler.kind
    if kind not in AUTOSCALERS:
        return None, f"autoscaler:{kind}"
    for hook in spec.hooks:
        if hook.kind not in HOOKS:
            return None, f"hook:{hook.kind}"
        try:
            HOOKS.build(hook.kind, **hook.params)
        except (TypeError, ValueError, KeyError):
            return None, f"hook_params:{hook.kind}"
    return (spec.app, kind, spec.n_steps, noise_model), None


def _bank_reason(spec: ExperimentSpec, controller: Any) -> str | None:
    """Why ``controller``'s bank cannot run ``spec`` (None: it can)."""
    kind = spec.autoscaler.kind
    hook = unsupported_hook(spec, controller)
    if hook is not None:
        return f"{hook}:{kind}"
    if spec.n_steps > _bank_class(controller).max_steps:
        return f"horizon:{kind}"
    return None


def _bank_class(controller: Any) -> type[DecisionBank]:
    return getattr(controller, "decision_bank", DecisionBank)


@lru_cache(maxsize=None)  # one entry per registered app
def _probe_start(app_name: str) -> tuple[Any, Allocation]:
    """The (frozen) app and a start allocation to probe factories with.

    Cached: building the app costs more than the probe itself, and the
    probe runs once per sweep unit.
    """
    app = build_app(app_name)
    names = app.service_names
    return app, Allocation.from_array(names, np.ones(len(names)))


class _CellLoop:
    """One batch cell as the ``ControlLoop`` a registered hook expects:
    ``environment`` is an :class:`EngineCell`, as the scalar engine is,
    and ``autoscaler.set_slo`` sets the cell's bank SLO."""

    def __init__(
        self, engine: BatchedAnalyticalEngine, bank: DecisionBank, cell: int
    ) -> None:
        self.environment = EngineCell(engine, cell)
        self.autoscaler = self
        self._bank = bank
        self._cell = cell

    def set_slo(self, slo: float) -> None:
        # Reached only for families whose controller has set_slo.
        self._bank.set_slo(self._cell, slo)


def run_units_batched(
    units: Sequence[tuple[ExperimentSpec, int]],
) -> list[UnitResult]:
    """Run one compatible group of (spec, repeat) units as a single batch.

    Returns one :class:`UnitResult` per unit, in input order, equal to
    the scalar runner's.

    The cyclic garbage collector is paused for the duration: a batch run
    allocates tens of thousands of trace dicts, all acyclic trees freed
    by refcounting, and letting generational GC rescan them mid-run
    costs more than the whole decision-trace channel (it dominated the
    obs gate's measured tracing overhead before this pause).
    """
    with paused_gc():
        return _run_units_batched(units)


def _run_units_batched(
    units: Sequence[tuple[ExperimentSpec, int]],
) -> list[UnitResult]:
    if not units:
        return []
    specs = [spec for spec, _ in units]
    # No params probe here: _build_bank builds every cell's controller
    # through the registry factory, which raises the scalar path's error.
    key = _group_key(specs[0])[0]
    if key is None or any(_group_key(s)[0] != key for s in specs[1:]):
        raise ValueError("units do not form one compatible batch group")
    app_name, _kind, n_steps, noise_model = key
    app = build_app(app_name)
    names = app.service_names
    n_cells = len(units)

    for spec in specs:
        spec.validate()
    seeds = [spec.seed + repeat for spec, repeat in units]
    engine_seeds = [
        seed + spec.engine.seed_offset for seed, spec in zip(seeds, specs)
    ]
    traces = [
        WORKLOADS.build(s.workload.kind, **s.workload.params) for s in specs
    ]
    intervals = np.asarray([s.interval for s in specs], dtype=np.float64)
    slos = [s.slo if s.slo is not None else app.slo for s in specs]
    start_rates = np.asarray(
        [trace.rate(0.0) for trace in traces], dtype=np.float64
    )
    start = app.generous_allocation_batch(
        start_rates, np.asarray([s.headroom for s in specs], dtype=np.float64)
    )
    # ``noise_model`` is shared by construction: it is part of the batch
    # key, and ``None`` means every cell uses the engine default — the
    # same resolution the scalar engine factory performs.
    engine = BatchedAnalyticalEngine(app, engine_seeds, noise=noise_model)

    bank = _build_bank(app, specs, start, slos, seeds, engine)

    # Decision tracing: cells whose spec requested the channel record one
    # info dict per step from their bank (families without decision info
    # record None, as scalar).
    bank.enable_decision_trace(
        [i for i, s in enumerate(specs) if "decision_trace" in s.capture]
    )

    # Each cell's registered hook callables, dispatched as the scalar
    # loop dispatches them.
    hooked = [
        (fire, _CellLoop(engine, bank, i))
        for i, spec in enumerate(specs)
        if (fire := hooks_on_step(spec)) is not None
    ]

    resp = np.empty((n_steps, n_cells))
    totals = np.empty((n_steps, n_cells))
    slo_rec = np.empty((n_steps, n_cells))
    alloc_hist = np.empty((n_steps, n_cells, len(names)))

    # Pre-evaluate every cell's whole rate series in one vectorized
    # ``rate_batch`` call (bit-identical to the per-step scalar calls —
    # the :func:`~repro.workload.trace.batch_rates` contract), so a
    # 36-hour replay costs one trace evaluation per cell, not one Python
    # call per control interval.
    rates_all = np.stack(
        [
            rate_schedule(traces[i], intervals[i], n_steps)
            for i in range(n_cells)
        ],
        axis=1,
    )

    for step in range(n_steps):
        for fire, view in hooked:
            fire(step, view)
        allocation = bank.allocation
        obs = engine.observe(allocation, rates_all[step], intervals)
        step_totals = allocation.sum(axis=1)
        resp[step] = obs.latency_p95
        totals[step] = step_totals
        slo_rec[step] = bank.slo
        alloc_hist[step] = allocation
        bank.step(obs, step_totals)
    violated = resp > slo_rec

    # The loop-exit totals: the last step's ``next_total_cpu`` (the same
    # row-sum the scalar loop's final ``allocation.total()`` takes).
    final_totals = bank.allocation.sum(axis=1)

    steps = np.arange(n_steps)
    results: list[UnitResult] = []
    for i, spec in enumerate(specs):
        history = LoopResult(
            names,
            step=steps,
            time=steps * intervals[i],
            workload=rates_all[:, i],
            response=resp[:, i],
            total_cpu=totals[:, i],
            violated=violated[:, i],
            slo=slo_rec[:, i],
            allocations=alloc_hist[:, i],
        )
        results.append(
            UnitResult.computed(
                history,
                spec.capture,
                manager_state=lambda: bank.manager_state(i),
                decision_trace=lambda: _decision_trace(
                    history, bank.decision_trace(i), float(final_totals[i])
                ),
            )
        )
    return results


def _decision_trace(
    history: LoopResult, infos: list | None, final_total: float
) -> list[dict[str, Any]]:
    """One cell's ``decision_trace`` channel from its history columns.

    Step ``s``'s ``next_total_cpu`` is step ``s+1``'s recorded total; the
    last step reads the loop-exit allocation's total.
    """
    totals = history.total_cpu.tolist()
    return [
        decision_record(
            step=step,
            workload=workload,
            response=response,
            slo=slo,
            violated=violated,
            total_cpu=total,
            next_total_cpu=next_total,
            decision=infos[step] if infos is not None else None,
        )
        for step, (workload, response, slo, violated, total, next_total) in
        enumerate(
            zip(
                history.workloads.tolist(),
                history.responses.tolist(),
                history.slos.tolist(),
                history.violated.tolist(),
                totals,
                totals[1:] + [final_total],
            )
        )
    ]


def _build_bank(
    app,
    specs: Sequence[ExperimentSpec],
    start: np.ndarray,
    slos: Sequence[float],
    seeds: Sequence[int],
    engine: BatchedAnalyticalEngine,
) -> DecisionBank:
    """The bank of one batch group's cells.

    Each cell's controller is built exactly as the scalar ``build_unit``
    builds it (registry factory, seeding, environment binding); the
    family's bank class takes ``(app, controllers, slos)`` and reads its
    parameters and start allocations from them.
    """
    names = app.service_names
    controllers = []
    for i, s in enumerate(specs):
        controller = AUTOSCALERS.build(
            s.autoscaler.kind,
            app,
            Allocation.from_array(names, start[i]),
            slos[i],
            seed=seeds[i],
            **s.autoscaler.params,
        )
        reason = _bank_reason(s, controller)
        if reason is not None:
            raise ValueError(f"unit cannot run in a batch: {reason}")
        bind = getattr(controller, "bind_environment", None)
        if callable(bind):
            bind(EngineCell(engine, i))
        controllers.append(controller)
    return _bank_class(controllers[0])(app, controllers, slos)
