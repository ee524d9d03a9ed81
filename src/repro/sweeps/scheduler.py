"""Chunked, cache-aware sweep execution.

``run_sweep_cached`` is the one executor of (spec, repeat) units, and
:func:`repro.experiments.run_experiment` is a one-spec call of it.  It
expands specs to unit tasks, satisfies whatever it can from a
:class:`SweepStore`, and fans the remainder out over one process pool in
bounded chunks — each chunk's results are persisted and reported through
a progress callback as soon as the chunk lands, instead of one giant
end-of-run gather.  Killing a sweep between chunks therefore loses at
most one chunk of work, and re-running with the same store recomputes
only the units that never completed.

``batch=True`` additionally partitions every chunk into compatible
groups (same app, autoscaler kind, and horizon — see
:func:`repro.sweeps.batched.classify_unit`) and evaluates each group as one
NumPy-vectorized batch inside a single worker call; units no group can
hold (DES engine, custom engine params, unknown hooks) fall back to the
scalar worker, with per-reason counts reported in
``SweepReport.fallbacks``.  Batched and scalar execution produce equal
unit results, so a store is freely shared between the two modes.

Every unit rebuilds its components from the serialized spec whether it
runs inline or in a worker (:func:`compute_units`), and a cached unit's
history round-trips losslessly through the store's raw columns, so
serial, parallel, cold, resumed, and batched runs all produce
byte-identical artifacts.  Each unit is one
:class:`~repro.metrics.export.UnitResult` from the moment it exists —
returned by the executor, or decoded once by ``get_result`` for a
cached unit — and that one object feeds both the store write and the
artifact.  A corrupt cached entry is a miss like any other: the unit is
recomputed and its entry rewritten.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

from repro.experiments.artifact import ExperimentArtifact
from repro.experiments.runner import (
    optimum_cache_info,
    optimum_store,
    run_unit_result,
)
from repro.experiments.spec import ExperimentSpec
from repro.metrics.export import UnitResult
from repro.obs.metrics import Histogram, default_registry
from repro.sweeps.grid import SweepCell, SweepGrid
from repro.sweeps.store import SweepStore

__all__ = [
    "SweepProgress",
    "SweepReport",
    "GridRun",
    "build_artifacts",
    "compute_units",
    "run_sweep_cached",
    "run_grid",
]

OnProgress = Callable[["SweepProgress"], None]

#: Per-cell latency bucket bounds — also used for the in-report profile
#: histogram, so BENCH trends and /metrics scrapes bin identically.
CELL_SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 120.0,
)

_REG = default_registry()
_SWEEP_CHUNK_SECONDS = _REG.histogram(
    "repro_sweep_chunk_seconds",
    "Wall-clock seconds per scheduler chunk (workers + persistence).",
)
_SWEEP_CELL_SECONDS = _REG.histogram(
    "repro_sweep_cell_seconds",
    "Worker-side seconds per computed unit (task time / units in task).",
    buckets=CELL_SECONDS_BUCKETS,
)
_SWEEP_BATCH_GROUP_SIZE = _REG.histogram(
    "repro_sweep_batch_group_size",
    "Units per vectorized batch group handed to one worker call.",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0),
)
_SWEEP_FALLBACKS = _REG.counter(
    "repro_sweep_fallback_total",
    "Units that ran scalar under batch=True, by reason slug.",
    labelnames=("reason",),
)


@dataclass(frozen=True)
class SweepProgress:
    """A snapshot delivered after the cache scan and after every chunk.

    ``completed``/``cached``/``computed`` count *units* — (spec, repeat)
    pairs — and are exact even when the final chunk is partial or a chunk
    mixes batched groups with scalar units.  ``cells_completed`` counts
    specs whose every repeat has finished, so multi-repeat sweeps can
    report cell-level progress too.
    """

    total: int
    completed: int
    cached: int
    computed: int
    chunk: int
    n_chunks: int
    cells_total: int = 0
    cells_completed: int = 0
    fallbacks: dict[str, int] = field(default_factory=dict)
    """Scalar-fallback reason tallies accrued so far under ``batch=True``
    (a snapshot of what ``SweepReport.fallbacks`` will report), so live
    progress lines can show batch coverage as it degrades, not only at
    the end."""

    @property
    def done(self) -> bool:
        return self.completed >= self.total


@dataclass
class SweepReport:
    """What one ``run_sweep_cached`` call did (for logs and CI trends)."""

    specs: int
    units: int
    cache_hits: int
    computed: int
    chunks: int
    seconds: float
    batched_units: int = 0
    scalar_units: int = 0
    fallbacks: dict[str, int] = field(default_factory=dict)
    """Why computed units ran scalar under ``batch=True``: reason slug →
    unit count (see :func:`repro.sweeps.batched.classify_unit`).
    Empty when every unit batched, or when batching was off."""
    replay_units: int = 0
    """Units whose workload is the ``replay`` kind (trace-replay cells)."""
    manager_states: int = 0
    """Units that captured a non-null ``manager_state`` payload."""
    optimum: dict[str, Any] = field(default_factory=dict)
    """In-process OPTM cache activity during the sweep: hits, misses,
    store-backed loads, and fresh solves (``optimum_cache_info`` deltas;
    solves inside scalar worker processes are not visible here)."""
    profile: dict[str, Any] = field(default_factory=dict)
    """Where the sweep's wall-clock went: per-phase seconds
    (``phases``: plan/load/run/persist/aggregate), the
    batched-vs-scalar worker-time split (``batched_seconds`` /
    ``scalar_seconds``), and the per-cell worker-latency histogram
    (``cell_seconds``: count/sum/buckets/p50/p95)."""

    @property
    def units_per_sec(self) -> float:
        return self.units / self.seconds if self.seconds > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "specs": self.specs,
            "units": self.units,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "chunks": self.chunks,
            "seconds": self.seconds,
            "units_per_sec": self.units_per_sec,
            "batched_units": self.batched_units,
            "scalar_units": self.scalar_units,
            "fallbacks": dict(self.fallbacks),
            "replay_units": self.replay_units,
            "manager_states": self.manager_states,
            "optimum": dict(self.optimum),
            "profile": dict(self.profile),
        }


def _sweep_report(
    specs: Sequence[ExperimentSpec],
    results: dict[tuple[int, int], UnitResult],
    **counts: Any,
) -> SweepReport:
    """The report of a finished sweep: totals read from ``specs`` and
    every unit's ``results``, plus the executor's own ``counts``."""
    return SweepReport(
        specs=len(specs),
        units=len(results),
        replay_units=sum(
            spec.repeats for spec in specs if spec.workload.kind == "replay"
        ),
        manager_states=sum(
            unit.channels.holds("manager_state") for unit in results.values()
        ),
        **counts,
    )


def _chunked(items: Sequence, size: int) -> Iterable[Sequence]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


def build_artifacts(
    specs: Sequence[ExperimentSpec],
    results: dict[tuple[int, int], UnitResult],
) -> list[ExperimentArtifact]:
    """Assemble per-spec artifacts from ``(spec_index, repeat)`` units.

    The one aggregation step every execution mode funnels through —
    serial, process-parallel, batched, and the distributed merge
    (:mod:`repro.sweeps.distributed`).  The artifacts take each unit's
    :class:`LoopResult` as is: however a unit was produced or cached,
    identical histories yield identical artifacts.
    """
    return [
        ExperimentArtifact.from_units(
            spec,
            [results[(spec_index, repeat)] for repeat in range(spec.repeats)],
        )
        for spec_index, spec in enumerate(specs)
    ]


def _partition_chunk(
    chunk: Sequence[tuple[int, ExperimentSpec, int]],
    batch: bool,
    parallel: int,
    fallbacks: dict[str, int] | None = None,
) -> list[tuple[bool, list[tuple[int, ExperimentSpec, int]]]]:
    """Split one chunk of units into ``(batched?, units)`` worker tasks.

    Scalar mode keeps the historical one-unit-per-task granularity.
    Batch mode groups compatible units (first-appearance order) and caps
    each group at an even share of the chunk so ``parallel`` workers all
    get work even when the whole chunk is one compatible family; each
    incompatible unit's reason slug is tallied into ``fallbacks``.
    """
    if not batch:
        return [(False, [unit]) for unit in chunk]
    from repro.sweeps.batched import classify_unit

    tasks: list[tuple[bool, list[tuple[int, ExperimentSpec, int]]]] = []
    groups: dict[tuple, list[tuple[int, ExperimentSpec, int]]] = {}
    for unit in chunk:
        key, reason = classify_unit(unit[1])
        if key is None:
            if fallbacks is not None:
                fallbacks[reason] = fallbacks.get(reason, 0) + 1
            _SWEEP_FALLBACKS.inc(reason=reason)
            tasks.append((False, [unit]))
        else:
            groups.setdefault(key, []).append(unit)
    cap = max(1, -(-len(chunk) // max(parallel, 1)))  # ceil division
    for units in groups.values():
        for start in range(0, len(units), cap):
            group = units[start : start + cap]
            _SWEEP_BATCH_GROUP_SIZE.observe(float(len(group)))
            tasks.append((True, group))
    return tasks


def compute_units(
    batched: bool, units: Sequence[tuple[ExperimentSpec, int]]
) -> list[UnitResult]:
    """Compute ``units``: one batched group, or scalar units one by one.

    The one compute step of every executor — the scheduler's tasks, a
    distributed worker's, and the merge's repair.  Each unit runs from
    its serialized spec, exactly as a worker process would see it, so
    inline and pooled runs are identical.
    """
    units = [(ExperimentSpec.from_dict(s.to_dict()), int(r)) for s, r in units]
    if batched:
        from repro.sweeps import batched as batched_runner

        return batched_runner.run_units_batched(units)
    return [run_unit_result(spec, repeat) for spec, repeat in units]


def _run_sweep_task(
    batched: bool, units: Sequence[tuple[ExperimentSpec, int]]
) -> tuple[list[UnitResult], float]:
    """Worker entry point: :func:`compute_units` plus its wall-clock
    seconds (which feed the scheduler's profile, never the results)."""
    started = perf_counter()
    results = compute_units(batched, units)
    return results, perf_counter() - started


def run_sweep_cached(
    specs: Sequence[ExperimentSpec] | Iterable[ExperimentSpec],
    *,
    store: SweepStore | None = None,
    reuse: bool = True,
    parallel: int = 1,
    chunk_size: int | None = None,
    batch: bool = False,
    on_progress: OnProgress | None = None,
) -> tuple[list[ExperimentArtifact], SweepReport]:
    """Run every (spec, repeat) unit, reusing and filling ``store``.

    ``reuse=False`` ignores existing entries (a refresh run) but still
    persists fresh results.  ``chunk_size`` bounds how much work is in
    flight between persistence points; the default keeps every worker busy
    without batching the whole sweep into one gather.  ``batch=True``
    evaluates compatible unit groups as vectorized batches (byte-identical
    results; un-batchable units silently run scalar) — the default chunk
    grows accordingly, since a chunk is also the largest possible batch.
    """
    start_time = perf_counter()
    optimum_before = optimum_cache_info()
    specs = list(specs)
    if parallel < 1:
        raise ValueError("parallel must be >= 1")
    if chunk_size is None:
        chunk_size = max(parallel, 1) * (256 if batch else 4)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")

    tasks = [
        (spec_index, spec, repeat)
        for spec_index, spec in enumerate(specs)
        for repeat in range(spec.repeats)
    ]
    phases = {
        "plan": perf_counter() - start_time,
        "load": 0.0,
        "run": 0.0,
        "persist": 0.0,
        "aggregate": 0.0,
    }
    # Every unit is a UnitResult from the moment it exists: a cached one
    # is decoded by ``get_result``, a computed one returned as such.
    results: dict[tuple[int, int], UnitResult] = {}
    pending: list[tuple[int, ExperimentSpec, int]] = []
    unit_counts = [spec.repeats for spec in specs]
    remaining = list(unit_counts)
    cached = 0
    load_started = perf_counter()
    # ``is not None``, never ``bool(store)``: truth-testing the store
    # calls ``__len__``, which scans the whole directory.
    probe = store is not None and reuse
    for spec_index, spec, repeat in tasks:
        unit = store.get_result(spec, repeat) if probe else None
        if unit is not None:
            results[(spec_index, repeat)] = unit
            remaining[spec_index] -= 1
            cached += 1
        else:
            pending.append((spec_index, spec, repeat))
    phases["load"] = perf_counter() - load_started

    def cells_completed() -> int:
        return sum(1 for left in remaining if left == 0)

    chunks = list(_chunked(pending, chunk_size))
    if on_progress is not None:
        on_progress(
            SweepProgress(
                total=len(tasks),
                completed=cached,
                cached=cached,
                computed=0,
                chunk=0,
                n_chunks=len(chunks),
                cells_total=len(specs),
                cells_completed=cells_completed(),
            )
        )
    computed = 0
    batched_units = 0
    scalar_units = 0
    batched_seconds = 0.0
    scalar_seconds = 0.0
    fallbacks: dict[str, int] = {}
    # Standalone (unregistered) histogram so the report's profile covers
    # exactly this sweep, while the registry series keep accumulating
    # across sweeps in the same process.
    cell_hist = Histogram(
        "cell_seconds", "per-cell worker seconds", buckets=CELL_SECONDS_BUCKETS
    )
    # One long-lived pool for the whole sweep: workers are spawned once,
    # not once per chunk (chunking only bounds the persistence interval).
    pool = (
        ProcessPoolExecutor(max_workers=min(parallel, len(pending)))
        if parallel > 1 and len(pending) > 1
        else None
    )
    try:
        for chunk_index, chunk in enumerate(chunks, start=1):
            chunk_started = perf_counter()
            worker_tasks = _partition_chunk(chunk, batch, parallel, fallbacks)
            task_args = [
                (batched, [(spec, repeat) for _, spec, repeat in units])
                for batched, units in worker_tasks
            ]
            if pool is None:
                done = [_run_sweep_task(*args) for args in task_args]
            else:
                futures = [
                    pool.submit(_run_sweep_task, *args) for args in task_args
                ]
                done = [future.result() for future in futures]
            fresh: list[tuple[ExperimentSpec, int, UnitResult]] = []
            for (batched, units), (unit_results, task_seconds) in zip(
                worker_tasks, done
            ):
                if batched:
                    batched_seconds += task_seconds
                else:
                    scalar_seconds += task_seconds
                per_cell = task_seconds / max(len(units), 1)
                for (spec_index, spec, repeat), unit in zip(
                    units, unit_results
                ):
                    results[(spec_index, repeat)] = unit
                    fresh.append((spec, repeat, unit))
                    remaining[spec_index] -= 1
                    computed += 1
                    cell_hist.observe(per_cell)
                    _SWEEP_CELL_SECONDS.observe(per_cell)
                    if batched:
                        batched_units += 1
                    else:
                        scalar_units += 1
            if store is not None:
                # The chunk is the persistence point: its entries share
                # one durability barrier, timed with the writes.
                persist_started = perf_counter()
                with store.write_group():
                    for spec, repeat, unit in fresh:
                        store.put_result(spec, repeat, unit)
                phases["persist"] += perf_counter() - persist_started
            chunk_seconds = perf_counter() - chunk_started
            _SWEEP_CHUNK_SECONDS.observe(chunk_seconds)
            phases["run"] += chunk_seconds
            if on_progress is not None:
                on_progress(
                    SweepProgress(
                        total=len(tasks),
                        completed=cached + computed,
                        cached=cached,
                        computed=computed,
                        chunk=chunk_index,
                        n_chunks=len(chunks),
                        cells_total=len(specs),
                        cells_completed=cells_completed(),
                        fallbacks=dict(fallbacks),
                    )
                )
    finally:
        if pool is not None:
            pool.shutdown()
    # Persistence happens inside the chunk wall-clock; report it as its
    # own phase without double counting the total.
    phases["run"] -= phases["persist"]

    aggregate_started = perf_counter()
    artifacts = build_artifacts(specs, results)
    phases["aggregate"] = perf_counter() - aggregate_started
    optimum_after = optimum_cache_info()
    report = _sweep_report(
        specs,
        results,
        cache_hits=cached,
        computed=computed,
        chunks=len(chunks),
        seconds=perf_counter() - start_time,
        batched_units=batched_units,
        scalar_units=scalar_units,
        fallbacks=dict(sorted(fallbacks.items())),
        optimum={
            counter: optimum_after[counter] - optimum_before[counter]
            for counter in ("hits", "misses", "store_hits", "solved")
        },
        profile={
            "phases": {k: round(v, 6) for k, v in phases.items()},
            "batched_seconds": round(batched_seconds, 6),
            "scalar_seconds": round(scalar_seconds, 6),
            "cell_seconds": cell_hist.to_dict(),
        },
    )
    return artifacts, report


@dataclass(frozen=True)
class GridRun:
    """An expanded grid together with one artifact per cell."""

    grid: SweepGrid
    cells: tuple[SweepCell, ...]
    artifacts: tuple[ExperimentArtifact, ...]
    report: SweepReport

    def __iter__(self):
        return iter(zip(self.cells, self.artifacts))

    def artifact(self, **coords: str) -> ExperimentArtifact:
        """The artifact of the unique cell matching the given coordinates."""
        matches = [
            artifact
            for cell, artifact in zip(self.cells, self.artifacts)
            if all(cell.coords.get(k) == v for k, v in coords.items())
        ]
        if len(matches) != 1:
            raise LookupError(
                f"{len(matches)} cells match {coords} in grid "
                f"{self.grid.name!r}"
            )
        return matches[0]


def run_grid(
    grid: SweepGrid,
    *,
    store: SweepStore | None = None,
    reuse: bool = True,
    parallel: int = 1,
    chunk_size: int | None = None,
    batch: bool = False,
    on_progress: OnProgress | None = None,
    cells: Sequence[SweepCell] | None = None,
) -> GridRun:
    """Expand ``grid`` and execute every cell through the cached scheduler.

    While the sweep runs, ``store`` also backs the optimum-search cache, so
    OPTM baselines computed alongside grid cells persist across runs too.
    Callers that already expanded the grid (e.g. to validate or count it)
    pass their ``cells`` list to avoid re-expanding.
    """
    cells = tuple(grid.cells() if cells is None else cells)
    with optimum_store(store):
        artifacts, report = run_sweep_cached(
            [cell.spec for cell in cells],
            store=store,
            reuse=reuse,
            parallel=parallel,
            chunk_size=chunk_size,
            batch=batch,
            on_progress=on_progress,
        )
    return GridRun(
        grid=grid, cells=cells, artifacts=tuple(artifacts), report=report
    )
