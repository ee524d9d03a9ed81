"""Grouped reductions over sweep results.

Turns a :class:`~repro.sweeps.scheduler.GridRun` into the numbers a figure
reports: per-cell reductions over seeds (mean/std/p95 settled CPU,
violation rate, p95 response, CPU-time cost), per-axis tables that average
the remaining axes away, and a canonical JSON summary whose bytes depend
only on the grid and its results — an interrupted-then-resumed sweep and
an uninterrupted one aggregate to identical files.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.bench.tables import format_table
from repro.experiments.artifact import ExperimentArtifact
from repro.sweeps.scheduler import GridRun

__all__ = [
    "artifact_metrics",
    "METRIC_NAMES",
    "grid_summary",
    "grid_summary_json",
    "group_reduce",
    "cells_table",
    "axis_table",
]

#: The per-cell metrics, in report order.
METRIC_NAMES = (
    "settled_total_mean",
    "settled_total_std",
    "settled_total_p95",
    "violation_rate_mean",
    "recovery_steps_max",
    "response_p95_mean",
    "cost_cpu_seconds_mean",
)


def _longest_violation_streak(violated: np.ndarray) -> int:
    """Length of the longest run of consecutive SLO-violating intervals.

    The robustness report's recovery-time proxy: after a disturbance, a
    controller that re-establishes the SLO quickly has a short worst
    streak, one that never recovers has a streak the length of the
    remaining horizon.  ``violated`` is a run's boolean column; runs are
    delimited by the edges of the ``False``-padded flags.
    """
    flags = np.concatenate(([False], np.asarray(violated, dtype=bool), [False]))
    edges = np.flatnonzero(flags[1:] != flags[:-1])
    if not edges.size:
        return 0
    return int((edges[1::2] - edges[::2]).max())


_REDUCERS: dict[str, Callable[[Sequence[float]], float]] = {
    "mean": lambda v: float(np.mean(v)),
    "p95": lambda v: float(np.percentile(v, 95)),
    "min": lambda v: float(np.min(v)),
    "max": lambda v: float(np.max(v)),
    "total": lambda v: float(np.sum(v)),
}


def artifact_metrics(
    artifact: ExperimentArtifact, *, tail: int = 5
) -> dict[str, float]:
    """One cell's reductions over its seeds.

    ``cost_cpu_seconds`` integrates the allocation over the run
    (CPU·seconds actually held, not just the settled level), which is the
    quantity a per-core bill scales with.
    """
    settled = artifact.settled_totals(tail)
    rates = artifact.violation_rates()
    p95s = [
        float(np.percentile(result.responses, 95))
        for result in artifact.results
    ]
    interval = artifact.spec.interval
    costs = [
        float(np.sum(result.total_cpu)) * interval
        for result in artifact.results
    ]
    streaks = [
        _longest_violation_streak(result.violated)
        for result in artifact.results
    ]
    return {
        "settled_total_mean": float(np.mean(settled)),
        "settled_total_std": float(np.std(settled)),
        "settled_total_p95": float(np.percentile(settled, 95)),
        "violation_rate_mean": float(np.mean(rates)),
        "recovery_steps_max": float(np.max(streaks)),
        "response_p95_mean": float(np.mean(p95s)),
        "cost_cpu_seconds_mean": float(np.mean(costs)),
    }


def grid_summary(run: GridRun, *, tail: int = 5) -> dict[str, Any]:
    """The canonical aggregate of a grid run (JSON-ready, deterministic)."""
    return {
        "grid": run.grid.name,
        "axes": [axis.name for axis in run.grid.axes],
        "cells": [
            {
                "name": cell.spec.name,
                "coords": dict(cell.coords),
                "metrics": artifact_metrics(artifact, tail=tail),
            }
            for cell, artifact in zip(run.cells, run.artifacts)
        ],
    }


def grid_summary_json(run: GridRun, *, tail: int = 5) -> str:
    """Byte-stable summary encoding (the ``repro sweep --out`` format)."""
    return json.dumps(grid_summary(run, tail=tail), indent=2, sort_keys=True)


def group_reduce(
    run: GridRun,
    by: Sequence[str],
    *,
    metrics: Iterable[str] = METRIC_NAMES,
    reduce: str = "mean",
    tail: int = 5,
) -> list[dict[str, Any]]:
    """Reduce cells that share coordinates on the ``by`` axes.

    Cells are grouped by their labels on the named axes (in grid order);
    every requested metric is reduced across each group with ``reduce``
    (one of ``mean``/``p95``/``min``/``max``/``total``).  Returns one row
    dict per group: the group's coordinates, its cell count, and the
    reduced metrics.
    """
    axis_names = [axis.name for axis in run.grid.axes]
    for name in by:
        if name not in axis_names:
            raise KeyError(
                f"unknown axis {name!r} (grid axes: {axis_names})"
            )
    try:
        reducer = _REDUCERS[reduce]
    except KeyError:
        raise KeyError(
            f"unknown reducer {reduce!r} (known: {sorted(_REDUCERS)})"
        ) from None
    metrics = list(metrics)
    groups: dict[tuple[str, ...], list[dict[str, float]]] = {}
    for cell, artifact in zip(run.cells, run.artifacts):
        key = tuple(cell.coords[name] for name in by)
        groups.setdefault(key, []).append(artifact_metrics(artifact, tail=tail))
    rows = []
    for key, members in groups.items():
        row: dict[str, Any] = dict(zip(by, key))
        row["cells"] = len(members)
        for metric in metrics:
            row[metric] = reducer([m[metric] for m in members])
        rows.append(row)
    return rows


def cells_table(
    run: GridRun,
    *,
    metrics: Iterable[str] = ("settled_total_mean", "violation_rate_mean"),
    tail: int = 5,
    title: str = "",
) -> str:
    """One row per cell: axis coordinates plus the selected metrics."""
    metrics = list(metrics)
    # Zero-axis grids (single-cell regression anchors) key rows by name.
    key_headers = [a.name for a in run.grid.axes] or ["cell"]
    rows = []
    for cell, artifact in zip(run.cells, run.artifacts):
        keys = (
            [cell.coords[name] for name in key_headers]
            if run.grid.axes
            else [cell.spec.name]
        )
        cell_metrics = artifact_metrics(artifact, tail=tail)
        rows.append(keys + [cell_metrics[m] for m in metrics])
    return format_table(
        key_headers + metrics,
        rows,
        title=title or (run.grid.title or run.grid.name),
    )


def axis_table(
    run: GridRun,
    axis: str,
    *,
    metrics: Iterable[str] = ("settled_total_mean", "violation_rate_mean"),
    reduce: str = "mean",
    tail: int = 5,
    title: str = "",
) -> str:
    """A per-axis view: other axes reduced away with ``reduce``."""
    metrics = list(metrics)
    rows = group_reduce(
        run, [axis], metrics=metrics, reduce=reduce, tail=tail
    )
    return format_table(
        [axis, "cells"] + metrics,
        [[r[axis], r["cells"]] + [r[m] for m in metrics] for r in rows],
        title=title or f"{run.grid.name} by {axis} ({reduce})",
    )
