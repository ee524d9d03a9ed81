"""Resumable, content-addressed sweep orchestration.

Every benchmark figure is really a parameter grid — workload level, α/β,
CPU speed, SLO, seeds — and this package turns such a grid into a spec
file plus an incremental execution pipeline:

* :class:`SweepGrid` (:mod:`repro.sweeps.grid`) — a frozen,
  JSON-round-tripping grid: cartesian axes (one dotted field path over
  scalar values) and zipped axes (override mappings that move several
  fields together) expanded over a base
  :class:`~repro.experiments.ExperimentSpec`;
* :class:`SweepStore` (:mod:`repro.sweeps.store`) — a content-addressed
  on-disk cache keyed by the hash of each (spec, repeat), with atomic
  writes and corruption-tolerant loads, shared by every grid that sweeps
  overlapping points; unit histories rest as packed columns and come
  back as decoded :class:`UnitResult` objects;
* :func:`run_sweep_cached` / :func:`run_grid`
  (:mod:`repro.sweeps.scheduler`) — chunked process-parallel scheduling
  with per-chunk persistence and progress callbacks, so an interrupted
  sweep resumes with zero recomputation; ``batch=True`` evaluates
  compatible cell groups as vectorized NumPy batches
  (:mod:`repro.sweeps.batched`), byte-identical to the scalar path;
* :mod:`repro.sweeps.aggregate` — grouped reductions (mean/p95/cost over
  seeds, per-axis tables), a byte-stable aggregate JSON, and the
  fixed-width :func:`format_table` every benchmark report prints;
* :func:`run_worker` / :func:`run_distributed` / :func:`wait_for_grid`
  (:mod:`repro.sweeps.distributed`) — lease/claim workers pulling task
  chunks from one shared store directory (``repro sweep --worker``),
  healing from worker death via stale-lease reclamation, with the merged
  run byte-identical to a serial one.

Quickstart::

    from repro.sweeps import SweepGrid, SweepStore, run_grid, grid_summary

    grid = SweepGrid.read("benchmarks/grids/fig16_alpha_sensitivity.json")
    run = run_grid(grid, store=SweepStore(".sweep-cache"), parallel=4)
    print(grid_summary(run)["cells"][0]["metrics"])

The CLI equivalent is ``python -m repro sweep --grid <file> --cache
<dir> --resume``.
"""

from repro.sweeps.aggregate import (
    METRIC_NAMES,
    artifact_metrics,
    axis_table,
    cells_table,
    format_table,
    grid_summary,
    grid_summary_json,
    group_reduce,
)
from repro.sweeps.batched import (
    BATCHABLE_AUTOSCALERS,
    batch_from_env,
    classify_unit,
    run_units_batched,
)
from repro.sweeps.distributed import (
    DEFAULT_LEASE_TTL,
    DistPlan,
    DistTask,
    WorkerReport,
    merge_grid,
    missing_units,
    plan_tasks,
    run_distributed,
    run_worker,
    wait_for_grid,
    worker_reports,
)
from repro.sweeps.grid import (
    SweepAxis,
    SweepCell,
    SweepGrid,
    set_path,
    validate_override_path,
)
from repro.sweeps.scheduler import (
    GridRun,
    SweepProgress,
    SweepReport,
    build_artifacts,
    run_grid,
    run_sweep_cached,
)
from repro.sweeps.store import (
    JsonDirectoryStore,
    Lease,
    LeaseNamespace,
    StoreStats,
    SweepStore,
    UnitResult,
    canonical_key,
)

__all__ = [
    "SweepGrid",
    "SweepAxis",
    "SweepCell",
    "set_path",
    "validate_override_path",
    "SweepStore",
    "JsonDirectoryStore",
    "Lease",
    "LeaseNamespace",
    "StoreStats",
    "UnitResult",
    "canonical_key",
    "run_sweep_cached",
    "run_grid",
    "build_artifacts",
    "GridRun",
    "DEFAULT_LEASE_TTL",
    "DistPlan",
    "DistTask",
    "WorkerReport",
    "plan_tasks",
    "run_worker",
    "missing_units",
    "merge_grid",
    "wait_for_grid",
    "run_distributed",
    "worker_reports",
    "BATCHABLE_AUTOSCALERS",
    "batch_from_env",
    "classify_unit",
    "run_units_batched",
    "SweepProgress",
    "SweepReport",
    "artifact_metrics",
    "METRIC_NAMES",
    "grid_summary",
    "grid_summary_json",
    "group_reduce",
    "cells_table",
    "axis_table",
    "format_table",
]
