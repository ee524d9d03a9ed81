"""Execute :class:`ExperimentSpec` objects: one runner for every scenario.

``run_unit`` materializes one seed of a spec (build app -> engine ->
autoscaler -> trace -> loop, run it); ``run_experiment`` runs every
repeat through the sweep scheduler
(:func:`repro.sweeps.run_sweep_cached`), which fans (spec, repeat) units
out over processes and returns an :class:`ExperimentArtifact`.  Serial
and parallel execution build every component fresh from the serialized
spec, so their artifacts are byte-identical.

Seeding convention (matches the historical benchmark wiring): repeat
``r`` of a spec runs under ``seed_r = spec.seed + r``; the controller
gets ``seed_r`` and the engine gets ``seed_r + engine.seed_offset``.

``run_comparison`` evaluates one Fig. 15 cell — PEMA (averaged over the
spec's repeats) vs the noiseless optimum vs the rule-based baseline —
from a single PEMA spec; ``repro experiment --compare`` prints it.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from copy import deepcopy
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.apps import build_app
from repro.apps.spec import AppSpec
from repro.core.loop import Autoscaler, ControlLoop, LoopResult
from repro.experiments.artifact import ExperimentArtifact
from repro.experiments.registry import AUTOSCALERS, ENGINES, HOOKS, WORKLOADS
from repro.experiments.spec import (
    AutoscalerSpec,
    EngineSpec,
    ExperimentSpec,
)
# perfbench patches loop_result_to_dict and loop_result_from_dict here.
from repro.metrics.export import (  # noqa: F401
    UnitResult,
    loop_result_from_dict,
    loop_result_to_dict,
)
from repro.obs.decision import capture_manager_state
from repro.obs.metrics import default_registry
from repro.sim.environment import Environment
from repro.workload.trace import WorkloadTrace

__all__ = [
    "ExperimentUnit",
    "build_unit",
    "hooks_on_step",
    "run_unit",
    "run_unit_result",
    "unsupported_hook",
    "run_experiment",
    "run_comparison",
    "derive_rule_spec",
    "optimum_total",
    "optimum_result",
    "optimum_results",
    "clear_optimum_cache",
    "reset_optimum_cache_info",
    "optimum_cache_info",
    "set_optimum_store",
    "optimum_store",
]

OnStep = Callable[[int, ControlLoop], None]

# The optimum search is deterministic and several figures reuse the same
# (app, workload) points, so results are cached per process — LRU-bounded
# so open-ended sweeps cannot grow it without limit, and optionally backed
# by a persistent sweep store (see ``optimum_store``) so searches survive
# across processes and runs.  Cache values are full result payloads
# (total, allocation, evaluations, latency); a store entry without an
# allocation is a miss, re-solved and rewritten in full.
OPTIMUM_CACHE_SIZE = 256
_OPTM_CACHE: OrderedDict[tuple[str, float, int], dict[str, Any]] = OrderedDict()
_OPTM_STATS = {"hits": 0, "misses": 0, "store_hits": 0, "solved": 0}
_OPTM_STORE: Any | None = None


@dataclass
class ExperimentUnit:
    """One seed of an experiment: the built components plus its result."""

    spec: ExperimentSpec
    repeat: int
    seed: int
    app: AppSpec
    engine: Environment
    autoscaler: Autoscaler
    trace: WorkloadTrace
    slo: float
    loop: ControlLoop
    result: LoopResult | None = None


def build_unit(spec: ExperimentSpec, repeat: int = 0) -> ExperimentUnit:
    """Materialize repeat ``repeat`` of ``spec`` without running it."""
    if not 0 <= repeat < spec.repeats:
        raise ValueError(f"repeat must be in [0, {spec.repeats}): {repeat}")
    spec.validate()
    seed = spec.seed + repeat
    app = build_app(spec.app)
    trace = WORKLOADS.build(spec.workload.kind, **spec.workload.params)
    engine = ENGINES.build(
        spec.engine.kind,
        app,
        seed=seed + spec.engine.seed_offset,
        **spec.engine.params,
    )
    slo = spec.slo if spec.slo is not None else app.slo
    start = app.generous_allocation(trace.rate(0.0), headroom=spec.headroom)
    autoscaler = AUTOSCALERS.build(
        spec.autoscaler.kind,
        app,
        start,
        slo,
        seed=seed,
        **spec.autoscaler.params,
    )
    hook = unsupported_hook(spec, autoscaler)
    if hook is not None:
        raise ValueError(
            f"hook {hook!r} needs an autoscaler with set_slo; "
            f"{spec.autoscaler.kind!r} has none"
        )
    # Actuating controllers (brownout's service-level dimmer) need the
    # engine they drive; every executor builds units through here, so the
    # binding is identical across scalar, batched, and streamed runs.
    bind = getattr(autoscaler, "bind_environment", None)
    if callable(bind):
        bind(engine)
    # Autoscalers that carry their own (mutable) SLO drive the loop's
    # violation bookkeeping live, so set_slo hooks show up in the records.
    loop = ControlLoop(
        engine,
        autoscaler,
        trace,
        interval=spec.interval,
        slo=None if hasattr(autoscaler, "slo") else slo,
    )
    return ExperimentUnit(
        spec=spec,
        repeat=repeat,
        seed=seed,
        app=app,
        engine=engine,
        autoscaler=autoscaler,
        trace=trace,
        slo=slo,
        loop=loop,
    )


def unsupported_hook(spec: ExperimentSpec, autoscaler: Any) -> str | None:
    """The first of ``spec``'s hooks ``autoscaler`` cannot take (None: none).

    A ``set_slo`` hook calls ``autoscaler.set_slo``, which only some
    families have; :func:`build_unit` and the batched classifier reject
    such a spec before step 0.
    """
    if hasattr(autoscaler, "set_slo"):
        return None
    return next((h.kind for h in spec.hooks if h.kind == "set_slo"), None)


def hooks_on_step(
    spec: ExperimentSpec, on_step: OnStep | None = None
) -> OnStep | None:
    """The spec's hooks (plus an optional extra callback) as one dispatcher.

    Every executor of a spec — the offline runner below, and the
    streaming service's per-app guardians — builds its hook pipeline
    through this one function, so hook firing order is identical across
    entry points.  Returns None when there is nothing to dispatch.
    """
    hook_fns = [HOOKS.build(h.kind, **h.params) for h in spec.hooks]
    if not hook_fns and on_step is None:
        return None

    def dispatch(step: int, loop: ControlLoop) -> None:
        for fn in hook_fns:
            fn(step, loop)
        if on_step is not None:
            on_step(step, loop)

    return dispatch


def run_unit(
    spec: ExperimentSpec,
    repeat: int = 0,
    *,
    on_step: OnStep | None = None,
    decision_log: list[dict[str, Any]] | None = None,
    tracer: Any | None = None,
) -> ExperimentUnit:
    """Run one seed of ``spec`` (hooks dispatched, plus an extra callback).

    ``decision_log`` collects one deterministic decision record per
    step (see :meth:`ControlLoop.run`).  ``tracer`` optionally times
    the run with a :class:`repro.obs.Tracer` span (runtime profiling,
    independent of the ``decision_trace`` capture channel).
    """
    unit = build_unit(spec, repeat)
    unit.result = unit.loop.run(
        spec.n_steps,
        on_step=hooks_on_step(spec, on_step),
        decision_log=decision_log,
        tracer=tracer,
    )
    return unit


def run_unit_result(spec: ExperimentSpec, repeat: int = 0) -> UnitResult:
    """Run one seed of ``spec`` as the scalar executor's :class:`UnitResult`."""
    traced = "decision_trace" in spec.capture
    decision_log: list[dict[str, Any]] = []
    unit = run_unit(spec, repeat, decision_log=decision_log if traced else None)
    assert unit.result is not None
    return UnitResult.computed(
        unit.result,
        spec.capture,
        manager_state=lambda: capture_manager_state(unit.autoscaler),
        decision_trace=lambda: decision_log,
    )


def _run_unit_worker(spec_data: dict[str, Any], repeat: int) -> dict[str, Any]:
    """The records-form payload of one unit, from its serialized spec."""
    spec = ExperimentSpec.from_dict(spec_data)
    return run_unit_result(spec, repeat).to_payload()


def run_experiment(
    spec: ExperimentSpec, *, parallel: int = 1
) -> ExperimentArtifact:
    """Run every repeat of one spec and return its artifact.

    The repeats fan out over ``parallel`` worker processes; ``parallel=1``
    and ``parallel=N`` produce byte-identical artifacts.
    """
    from repro.sweeps.scheduler import run_sweep_cached

    return run_sweep_cached([spec], parallel=parallel)[0][0]


# -- baseline comparison (Fig. 15 cells) ---------------------------------------
def set_optimum_store(store: Any | None) -> Any | None:
    """Back the OPTM cache with a persistent sweep store (or None).

    ``store`` is any object with the :class:`repro.sweeps.SweepStore`
    ``get_raw``/``put_raw``/``optimum_key`` surface.  Returns the
    previously active store so callers can restore it.
    """
    global _OPTM_STORE
    previous = _OPTM_STORE
    _OPTM_STORE = store
    return previous


@contextmanager
def optimum_store(store: Any | None) -> Iterator[Any | None]:
    """Scope in which optimum searches read/write ``store`` (None: no-op)."""
    previous = set_optimum_store(store)
    try:
        yield store
    finally:
        set_optimum_store(previous)


def _optimum_cache_put(
    key: tuple[str, float, int], payload: dict[str, Any]
) -> None:
    _OPTM_CACHE[key] = payload
    while len(_OPTM_CACHE) > OPTIMUM_CACHE_SIZE:
        _OPTM_CACHE.popitem(last=False)


def _optimum_lookup(key: tuple[str, float, int]) -> dict[str, Any] | None:
    """One cell's payload from the LRU cache or the store, with stats."""
    payload = _OPTM_CACHE.get(key)
    if payload is not None:
        _OPTM_STATS["hits"] += 1
        _OPTM_CACHE.move_to_end(key)
        return payload
    _OPTM_STATS["misses"] += 1
    if _OPTM_STORE is not None:
        app_name, workload, restarts = key
        raw = _OPTM_STORE.get_raw(
            _OPTM_STORE.optimum_key(app_name, workload, restarts)
        )
        if isinstance(raw, dict) and "allocation" in raw:
            _OPTM_STATS["store_hits"] += 1
            _optimum_cache_put(key, raw)
            return raw
    return None


def _optimum_solve(
    app_name: str, cells: Sequence[tuple[tuple[str, float, int], float]]
) -> list[dict[str, Any]]:
    """Batch-solve cells as one lockstep frontier; cache and persist all."""
    from repro.baselines import OptimumBatch, OptimumRequest
    from repro.sim import AnalyticalEngine

    app = build_app(app_name)
    batch = OptimumBatch(AnalyticalEngine(app))
    results = batch.find_many(
        [
            OptimumRequest(workload, restarts=key[2])
            for key, workload in cells
        ]
    )
    payloads = []
    for (key, _workload), result in zip(cells, results):
        _OPTM_STATS["solved"] += 1
        payload: dict[str, Any] = {
            "total_cpu": result.total_cpu,
            "allocation": [
                [name, value] for name, value in result.allocation.items()
            ],
            "evaluations": result.evaluations,
            "latency": result.latency,
            "workload": result.workload,
        }
        _optimum_cache_put(key, payload)
        if _OPTM_STORE is not None:
            _OPTM_STORE.put_raw(
                _OPTM_STORE.optimum_key(key[0], key[1], key[2]), payload
            )
        payloads.append(payload)
    return payloads


def optimum_results(
    app_name: str, cells: Sequence[tuple[float, int]]
) -> list[dict[str, Any]]:
    """Full OPTM payloads for many (workload, restarts) cells of one app.

    Cache and store are consulted per cell; every miss is solved in one
    :class:`~repro.baselines.OptimumBatch` lockstep frontier drive and
    written back to both.  Payloads carry ``total_cpu``, the
    ``allocation`` (name/value pairs in service order), ``evaluations``,
    ``latency``, and ``workload``.
    """
    indices: dict[tuple[str, float, int], list[int]] = {}
    order: list[tuple[tuple[str, float, int], float]] = []
    for i, (workload, restarts) in enumerate(cells):
        key = (app_name, round(float(workload), 6), int(restarts))
        occurrences = indices.setdefault(key, [])
        occurrences.append(i)
        if len(occurrences) == 1:
            order.append((key, float(workload)))
    resolved: dict[tuple[str, float, int], dict[str, Any]] = {}
    missing: list[tuple[tuple[str, float, int], float]] = []
    for key, workload in order:
        payload = _optimum_lookup(key)
        if payload is not None:
            resolved[key] = payload
        else:
            missing.append((key, workload))
    if missing:
        for (key, _workload), payload in zip(
            missing, _optimum_solve(app_name, missing)
        ):
            resolved[key] = payload
    payloads: list[dict[str, Any] | None] = [None] * len(cells)
    for key, occurrences in indices.items():
        # Repeat occurrences would have hit the cache as sequential calls.
        _OPTM_STATS["hits"] += len(occurrences) - 1
        for i in occurrences:
            # Defensive copy: the cached dict must not alias what callers
            # receive (and possibly mutate).
            payloads[i] = deepcopy(resolved[key])
    assert all(p is not None for p in payloads)
    return payloads  # type: ignore[return-value]


def optimum_result(
    app_name: str, workload: float, *, restarts: int = 2
) -> dict[str, Any]:
    """The full cached OPTM payload for one (app, workload) cell."""
    return optimum_results(app_name, [(workload, restarts)])[0]


def optimum_total(
    app_name: str, workload: float, *, restarts: int = 2
) -> float:
    """Cached OPTM total CPU for (app, workload) on the noiseless model."""
    return float(
        optimum_result(app_name, workload, restarts=restarts)["total_cpu"]
    )


def reset_optimum_cache_info() -> None:
    """Zero the OPTM hit/miss counters without dropping cached solutions.

    Benchmarks and gates call this at run start so their reported cache
    statistics are per-run; the counters otherwise accumulate for the
    process lifetime, which made BENCH_optm.json numbers cumulative
    across back-to-back in-process runs.
    """
    for counter in _OPTM_STATS:
        _OPTM_STATS[counter] = 0


def clear_optimum_cache() -> None:
    """Reset the OPTM cache (tests that tweak calibration need this)."""
    _OPTM_CACHE.clear()
    reset_optimum_cache_info()


def optimum_cache_info() -> dict[str, Any]:
    """Size/hit statistics of the in-process OPTM cache."""
    return {
        "size": len(_OPTM_CACHE),
        "max_size": OPTIMUM_CACHE_SIZE,
        "hits": _OPTM_STATS["hits"],
        "misses": _OPTM_STATS["misses"],
        "store_hits": _OPTM_STATS["store_hits"],
        "solved": _OPTM_STATS["solved"],
        "store_active": _OPTM_STORE is not None,
    }


def _publish_optimum_metrics() -> None:
    """Render-time collector: mirror OPTM cache counters into gauges."""
    registry = default_registry()
    info = optimum_cache_info()
    for field_name in ("size", "hits", "misses", "store_hits", "solved"):
        registry.gauge(
            f"repro_optimum_cache_{field_name}",
            "In-process OPTM solution cache statistic.",
        ).set(float(info[field_name]))


default_registry().add_collector(_publish_optimum_metrics)


def derive_rule_spec(
    spec: ExperimentSpec, *, n_steps: int = 30
) -> ExperimentSpec:
    """The rule-based counterpart of a PEMA spec (same app and workload).

    RULE (utilization mode) converges to a fixed point, so it runs once
    (``repeats=1``) for ``n_steps`` intervals under the cell-independent
    seed 0; its engine observes an independent noise stream (historical
    offset +2000) so PEMA and RULE never share measurements.
    """
    return spec.with_(
        name=f"{spec.name}-rule" if spec.name else "rule",
        autoscaler=AutoscalerSpec("rule", {"mode": "utilization"}),
        engine=EngineSpec(
            kind=spec.engine.kind,
            seed_offset=2000,
            params=spec.engine.params,
        ),
        n_steps=n_steps,
        seed=0,
        repeats=1,
        hooks=(),
    )


def run_comparison(
    spec: ExperimentSpec,
    *,
    rule_steps: int = 30,
    pema_artifact: ExperimentArtifact | None = None,
) -> dict[str, float]:
    """One Fig. 15 cell from a single PEMA spec: PEMA vs OPTM vs RULE.

    Returns settled totals (PEMA averaged over the spec's repeats, OPTM
    with the default two restarts) plus the derived ratios the paper
    reports.  Callers that already ran the spec pass its artifact via
    ``pema_artifact`` to skip the re-run.
    """
    if pema_artifact is not None and pema_artifact.spec != spec:
        raise ValueError("pema_artifact was produced by a different spec")
    workload = WORKLOADS.build(
        spec.workload.kind, **spec.workload.params
    ).rate(0.0)
    if pema_artifact is None:
        pema_artifact = run_experiment(spec)
    pema = pema_artifact.mean_settled_total()
    optm = optimum_total(spec.app, workload)
    rule = run_experiment(
        derive_rule_spec(spec, n_steps=rule_steps)
    ).mean_settled_total()
    return {
        "workload_rps": float(workload),
        "pema_total": pema,
        "optm_total": optm,
        "rule_total": rule,
        "pema_over_optm": pema / optm,
        "rule_over_optm": rule / optm,
        "pema_savings_vs_rule": 1.0 - pema / rule,
    }
