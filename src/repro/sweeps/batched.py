"""Vectorized batched evaluation of compatible sweep units.

The scheduler's ``batch=True`` path partitions each chunk of pending
(spec, repeat) units into *compatible groups* — same application, same
autoscaler kind, same horizon, analytical engine — and hands every group
to :func:`run_units_batched`, which advances the whole group through the
control loop as one stack of arrays: one
:class:`~repro.sim.batched.BatchedAnalyticalEngine` observation and one
:class:`~repro.sim.batched.DecisionBank` step per interval, instead of
one full scalar Python loop per cell.  The registries stay the one
definition of every controller and hook: each family's bank
(:class:`~repro.core.batch.PEMABatch`,
:class:`~repro.baselines.rule.RuleBatch`, and the optimum, manager and
fixed-allocation banks below) is built from the cells' ``AUTOSCALERS``
controllers, and each cell's hooks are the registered ``HOOKS``
callables, fired against a per-cell view of the batched engine and bank.

Byte-identity: the scalar engine is a 1-row batched engine, so each
row of the batched observation is the scalar observation (see
:mod:`repro.sim.batched`), and every bank replays its scalar
controller's float operations and random draws in order (see
:mod:`repro.core.batch`).  The :class:`~repro.metrics.export.UnitResult`
objects returned here therefore equal what
``repro.experiments.runner.run_unit_result`` returns for the same unit —
the same bytes land in the sweep store either way.

Cells that :func:`classify_unit` cannot place in a group (DES engine,
non-noise engine params, unknown autoscalers/hooks, params the registry
factory rejects) run through the scalar worker unchanged — a fallback,
never an error.  Each fallback carries the machine-readable reason slug
:func:`classify_unit` returns in place of a key, which the scheduler
tallies into ``SweepReport.fallbacks`` so batch coverage is visible
instead of silently degrading.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Hashable, Sequence

import numpy as np

from repro.apps import build_app
from repro.baselines.rule import RuleBatch
from repro.core.batch import PEMABatch
from repro.core.loop import LoopResult
from repro.experiments.registry import AUTOSCALERS, HOOKS, WORKLOADS
from repro.experiments.runner import capture_manager_state, hooks_on_step
from repro.experiments.spec import ExperimentSpec
from repro.faults import ENGINE_FAULT_KINDS, STREAM_FAULT_KINDS
from repro.metrics.export import UnitResult
from repro.obs.decision import capture_decision_info, decision_record
from repro.sim.batched import (
    BatchObservation,
    BatchedAnalyticalEngine,
    DecisionBank,
    EngineCell,
)
from repro.sim.concurrency import gamma_quantile
from repro.sim.noise import NoiseModel
from repro.sim.types import Allocation
from repro.sweeps.store import paused_gc
from repro.workload.replay import rate_schedule

__all__ = [
    "BATCHABLE_AUTOSCALERS",
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


#: Hook kinds whose registered callables touch only what a batch cell's
#: :class:`_CellLoop` view provides: the engine's setters (CPU speed,
#: the engine-fault capacity/demand scales) and ``autoscaler.set_slo``,
#: which only a PEMA bank carries (other autoscalers have no
#: ``set_slo``, exactly as scalar).  Stream faults are delivery
#: disturbances, offline no-ops.
_BATCHABLE_HOOKS = (
    ("set_slo", "set_cpu_speed") + ENGINE_FAULT_KINDS + STREAM_FAULT_KINDS
)


def classify_unit(
    spec: ExperimentSpec,
) -> tuple[tuple[Hashable, ...] | None, str | None]:
    """``(batch key, None)`` for batchable specs, ``(None, reason)`` else.

    Units sharing a key can be stacked into one batch: same app (service
    set and calibration), same autoscaler kind (one vectorized bank),
    same horizon (one time loop), and same engine noise model (one
    vectorized observation).  Everything else — workload level and kind,
    α/β and other autoscaler params, CPU speed and SLO hooks, interval,
    SLO, headroom, seeds — varies freely *within* a batch.

    The reason is a stable machine-readable slug (``engine:des``,
    ``autoscaler:fast_pema``, ``hook:my_hook``, ``pema_horizon``,
    ``engine_params``, ``engine_params:noise``, ``hook_params:set_slo``,
    ``autoscaler_params:rule``, ``set_slo_without_pema``) — the
    scheduler tallies these into ``SweepReport.fallbacks`` and the CLI
    prints them, so nobody mistakes a mostly-scalar "batched" sweep for
    a vectorized one.

    Hook and autoscaler params are probed through their registry
    factories — the calls the scalar path makes — so a spec the scalar
    path would reject at build time falls back to the scalar path and
    fails there, with the same error.
    """
    key, reason = _group_key(spec)
    if key is None:
        return None, reason
    app, probe = _probe_start(spec.app)
    try:
        AUTOSCALERS.build(
            spec.autoscaler.kind,
            app,
            probe,
            spec.slo if spec.slo is not None else app.slo,
            **spec.autoscaler.params,
        )
    except (TypeError, ValueError):
        return None, f"autoscaler_params:{spec.autoscaler.kind}"
    return key, None


def _group_key(
    spec: ExperimentSpec,
) -> tuple[tuple[Hashable, ...] | None, str | None]:
    """:func:`classify_unit` short of its autoscaler-params probe."""
    if spec.engine.kind != "analytical":
        return None, f"engine:{spec.engine.kind}"
    noise_model: NoiseModel | None = None
    if spec.engine.params:
        engine_params = dict(spec.engine.params)
        noise = engine_params.pop("noise", None)
        if engine_params:
            # latency_params/cfs overrides stay scalar: they change the
            # closed-form kernel itself, not just the noise stream.
            return None, "engine_params"
        if noise is not None:
            try:
                noise_model = NoiseModel(**noise)
            except (TypeError, ValueError):
                return None, "engine_params:noise"
    kind = spec.autoscaler.kind
    if kind not in BATCHABLE_AUTOSCALERS:
        return None, f"autoscaler:{kind}"
    # PEMABatch keeps the full history; past the scalar RHDb's trim point
    # (ResourceHistoryDB.max_records) the two would diverge.
    if kind == "pema" and spec.n_steps > 100_000:
        return None, "pema_horizon"
    for hook in spec.hooks:
        if hook.kind not in _BATCHABLE_HOOKS:
            return None, f"hook:{hook.kind}"
        if hook.kind == "set_slo" and kind != "pema":
            return None, "set_slo_without_pema"
        try:
            HOOKS.build(hook.kind, **hook.params)
        except (TypeError, ValueError, KeyError):
            return None, f"hook_params:{hook.kind}"
    return (spec.app, kind, spec.n_steps, noise_model), None


@lru_cache(maxsize=None)  # one entry per registered app
def _probe_start(app_name: str) -> tuple[Any, Allocation]:
    """The (frozen) app and a start allocation to probe factories with.

    Cached: building the app costs more than the probe itself, and the
    probe runs once per sweep unit.
    """
    app = build_app(app_name)
    names = app.service_names
    return app, Allocation.from_array(names, np.ones(len(names)))


class _OptimumBank(DecisionBank):
    """Vectorized :class:`~repro.baselines.OptimumAllocator` bank.

    Each cell pins the cached noiseless optimum for its observed
    workload, re-solving only when the workload changes.  All cells'
    pending solves go through one ``optimum_results`` call per step —
    cache/store read-through plus a single lockstep
    :class:`~repro.baselines.OptimumBatch` frontier drive for the misses
    — so a sweep's OPTM column warms exactly the entries the scalar
    allocator would.
    """

    def __init__(self, app, controllers: Sequence[Any], slos) -> None:
        super().__init__(app, controllers, slos)
        self._app = app
        self._restarts = [c.restarts for c in controllers]
        self._workloads: list[float | None] = [None] * len(self._restarts)

    def step(self, obs: BatchObservation, totals: np.ndarray) -> np.ndarray:
        workloads = obs.workload_rps
        pending = [
            i
            for i, w in enumerate(workloads)
            if self._workloads[i] is None or float(w) != self._workloads[i]
        ]
        if pending:
            from repro.experiments.runner import optimum_results

            payloads = optimum_results(
                self._app.name,
                [(float(workloads[i]), self._restarts[i]) for i in pending],
            )
            allocation = self.allocation.copy()
            for i, payload in zip(pending, payloads):
                values = dict(payload["allocation"])
                allocation[i] = [values[name] for name in self.services]
                self._workloads[i] = float(workloads[i])
            self.allocation = allocation
        return self.allocation


class _CellLoop:
    """One batch cell as the ``ControlLoop`` a registered hook expects:
    ``environment`` is the cell's engine row, ``autoscaler.set_slo`` its
    bank row."""

    def __init__(
        self, engine: BatchedAnalyticalEngine, bank: DecisionBank, cell: int
    ) -> None:
        self.environment = EngineCell(engine, cell)
        self.autoscaler = self
        self._bank = bank
        self._cell = cell

    def set_slo(self, slo: float) -> None:
        # classify_unit batches set_slo hooks only with PEMA banks.
        self._bank.set_slo(self._cell, slo)


class _ManagerBank(DecisionBank):
    """Bank of scalar decision-makers (manager, PID, brownout cells).

    The dynamic-range manager's decision logic is a per-cell state
    machine over a growing range tree — not array math — and the PID and
    brownout baselines are tiny per-cell feedback laws, so, in the
    :class:`_OptimumBank` style, the bank keeps one *scalar* controller
    per cell and only the engine observation is vectorized.  Each step
    hands cell ``i`` the :class:`~repro.sim.types.IntervalMetrics` of
    its observation row (:meth:`BatchObservation.metrics`, the scalar
    engine's own conversion), so every controller consumes the same
    floats and the same private RNG stream as its scalar run —
    decisions, range splits, dimmer writes, and captured manager state
    included.
    """

    def __init__(self, app, managers: Sequence[Any], slos) -> None:
        super().__init__(app, managers, slos)
        self._managers = list(managers)
        self._trace_cells: set[int] = set()
        self.decision_info: dict[int, list] = {}

    def enable_decision_trace(self, cells: Sequence[int]) -> None:
        for cell in cells:
            self._trace_cells.add(int(cell))
            self.decision_info.setdefault(int(cell), [])

    def decision_trace(self, cell: int) -> list | None:
        return self.decision_info.get(cell)

    def manager_state(self, cell: int) -> dict | None:
        return capture_manager_state(self._managers[cell])

    def step(self, obs: BatchObservation, totals: np.ndarray) -> np.ndarray:
        rows = []
        for i, manager in enumerate(self._managers):
            metrics = obs.metrics(i, self.services)
            rows.append(manager.decide(metrics).as_array(self.services))
            if i in self._trace_cells:
                self.decision_info[i].append(capture_decision_info(manager))
        self.allocation = np.stack(rows)
        return self.allocation


class _FixedBank(DecisionBank):
    """``static`` cells: the allocation pinned at build time, never changed."""

    def step(self, obs: BatchObservation, totals: np.ndarray) -> np.ndarray:
        return self.allocation


#: The bank each batchable autoscaler family runs in, built from the
#: group's registry-built controllers as ``bank(app, controllers, slos)``.
#: ``pema``/``rule`` decide through fully vectorized banks; ``optimum``,
#: ``workload_aware_pema``, ``pid``, and ``brownout`` ride the vectorized
#: engine with bank-driven scalar decisions (the expensive closed-form
#: observation is still one call per batch).
_BANKS: dict[str, type[DecisionBank]] = {
    "pema": PEMABatch,
    "rule": RuleBatch,
    "static": _FixedBank,
    "optimum": _OptimumBank,
    "workload_aware_pema": _ManagerBank,
    "pid": _ManagerBank,
    "brownout": _ManagerBank,
}

#: Autoscaler kinds a batch group can hold: the bank table's keys.
BATCHABLE_AUTOSCALERS = tuple(_BANKS)


def _generous_batch(app, rates: np.ndarray, headrooms: np.ndarray) -> np.ndarray:
    """``AppSpec.generous_allocation`` for every cell in one array pass.

    Same formula order as the scalar method (Gamma bottleneck at the 97th
    percentile, scaled by headroom, floored at 0.2 cores), elementwise
    across the batch.  The quantile — an iterative inverse, the costly
    part — runs once per distinct start rate (seed and repeat cells
    share theirs).
    """
    unique_rates, inverse = np.unique(rates, return_inverse=True)
    mean = (
        unique_rates[:, None] * app.visit_array() * app.demand_array()
        + app.baseline_array()
    )
    burst = app.burstiness_array()
    shape = np.where(mean > 1e-12, mean / burst, 0.0)
    base = gamma_quantile(0.97, shape, burst)[inverse]
    return np.maximum(base * headrooms[:, None], 0.2)


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
    app_name, kind, n_steps, noise_model = key
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
    if np.any(start_rates < 0):
        raise ValueError("workload must be >= 0")
    start = _generous_batch(
        app,
        start_rates,
        np.asarray([s.headroom for s in specs], dtype=np.float64),
    )
    # ``noise_model`` is shared by construction: it is part of the batch
    # key, and ``None`` means every cell uses the engine default — the
    # same resolution the scalar engine factory performs.
    engine = BatchedAnalyticalEngine(app, engine_seeds, noise=noise_model)

    bank = _build_bank(kind, app, specs, start, slos, seeds, engine)

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
    kind: str,
    app,
    specs: Sequence[ExperimentSpec],
    start: np.ndarray,
    slos: Sequence[float],
    seeds: Sequence[int],
    engine: BatchedAnalyticalEngine,
) -> DecisionBank:
    """The ``kind`` family's bank over one batch group's cells.

    Each cell's controller is built exactly as the scalar ``build_unit``
    builds it (registry factory, seeding, environment binding), and the
    bank reads its parameters and start allocation from them.
    """
    names = app.service_names
    controllers = []
    for i, s in enumerate(specs):
        controller = AUTOSCALERS.build(
            kind,
            app,
            Allocation.from_array(names, start[i]),
            slos[i],
            seed=seeds[i],
            **s.autoscaler.params,
        )
        bind = getattr(controller, "bind_environment", None)
        if callable(bind):
            bind(EngineCell(engine, i))
        controllers.append(controller)
    return _BANKS[kind](app, controllers, slos)
