"""Per-visit latency model and end-to-end aggregation.

Latency of one visit to service *i* decomposes into:

* a latency floor ``l0_i`` — service time with ample CPU;
* queueing inflation proportional to the overload pressure
  ``E[(N_i - x_i)+] / x_i`` (work that could not run immediately);
* a throttle penalty that kicks in once the throttled-period fraction
  crosses the tail-critical level (≈5% of periods, at which point the p95
  request is hit by a frozen period).

Both penalty terms scale with the service's own latency floor so that the
model is self-consistent across applications whose SLOs span 50 ms to
900 ms (see DESIGN.md §4: the DES realizes the absolute CFS period; the
analytical engine works in relative latency units).

End-to-end latency aggregates per-visit latencies over a request class's
execution plan: stages are sequential, entries within a stage run in
parallel (the max governs), repeated visits to a service within an entry
are sequential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.sim.concurrency import (
    gamma_quantile,
    gamma_sf,
    gamma_shape,
    nondegenerate_gamma,
    tail_expectation,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.apps.spec import AppSpec

__all__ = [
    "LatencyParams",
    "visit_latency",
    "end_to_end_latency",
    "end_to_end_latency_batch",
    "KernelSignals",
    "NoiselessLatencyKernel",
    "CellKernel",
]

_EPS = 1e-12


@dataclass(frozen=True)
class LatencyParams:
    """Tunables of the visit-latency model (shared across apps)."""

    queue_gain: float = 3.0
    """Latency floors multiplied by ``1 + queue_gain * overload``."""

    throttle_gain: float = 5.0
    """Scale of the throttle penalty once past the critical fraction."""

    frac_critical: float = 0.05
    """Throttled-period fraction at which the p95 request is affected."""

    throttle_power: float = 3.0
    """Exponent of the normalized throttle ratio.  Cubic makes operating
    *below* the bottleneck knee rapidly catastrophic (every extra frozen
    period compounds through queue growth on a real system) while leaving
    the above-knee region, where the controllers live, gentle."""

    saturation: float = 20.0
    """Cap on the normalized throttle ratio, keeping latency finite.

    High enough that starving any service far below its bottleneck is
    catastrophic for end-to-end latency (as on a real system, where a
    fully-throttled service's queue grows without bound) while still
    keeping the search landscape finite."""

    def __post_init__(self) -> None:
        if self.queue_gain < 0 or self.throttle_gain < 0:
            raise ValueError("gains must be non-negative")
        if self.throttle_power < 1:
            raise ValueError("throttle_power must be >= 1")
        if not 0 < self.frac_critical < 1:
            raise ValueError("frac_critical must be in (0, 1)")
        if self.saturation <= 0:
            raise ValueError("saturation must be positive")


def visit_latency(
    floors: np.ndarray,
    overload: np.ndarray,
    throttled_frac: np.ndarray,
    params: LatencyParams,
) -> np.ndarray:
    """p95-scale latency of one visit to each service (vectorized).

    Monotonicity: both ``overload`` and ``throttled_frac`` are non-increasing
    in the allocation, so visit latency is non-increasing in the allocation —
    the property behind the paper's monotone-reduction navigation (Fig. 7).
    """
    floors = np.asarray(floors, dtype=np.float64)
    overload = np.asarray(overload, dtype=np.float64)
    throttled_frac = np.asarray(throttled_frac, dtype=np.float64)
    ratio = np.minimum(throttled_frac / params.frac_critical, params.saturation)
    inflation = (
        1.0
        + params.queue_gain * overload
        + params.throttle_gain * ratio**params.throttle_power
    )
    return floors * inflation


def end_to_end_latency(
    app: "AppSpec", per_visit: Mapping[str, float] | np.ndarray
) -> float:
    """Aggregate per-visit latencies into application p95 latency (seconds).

    ``per_visit`` is either a mapping ``service -> latency`` or an array in
    the app's service order.  Traffic classes are mixed by weight; each
    class walks its stages sequentially, taking the max across parallel
    entries and adding the per-hop network latency.
    """
    if isinstance(per_visit, np.ndarray):
        lat = {name: float(v) for name, v in zip(app.service_names, per_visit)}
    else:
        lat = {name: float(per_visit[name]) for name in app.service_names}

    total = 0.0
    for rc in app.request_classes:
        class_latency = 0.0
        for stage in rc.stages:
            branch = max(visits * lat[svc] for svc, visits in stage.parallel)
            class_latency += branch + app.hop_latency
        total += rc.weight * class_latency
    return total


def end_to_end_latency_batch(app: "AppSpec", per_visit: np.ndarray) -> np.ndarray:
    """Batched :func:`end_to_end_latency`: ``(B, S)`` visits → ``(B,)`` p95s.

    Walks the same plan in the same order as the scalar aggregation —
    per-stage maxima, then sequential sums — with every float operation
    applied elementwise across the batch, so each row is bit-identical to
    the scalar result for that row.
    """
    per_visit = np.asarray(per_visit, dtype=np.float64)
    if per_visit.ndim != 2 or per_visit.shape[1] != len(app.service_names):
        raise ValueError(
            f"per_visit must be (B, {len(app.service_names)}): {per_visit.shape}"
        )
    column = {name: per_visit[:, j] for j, name in enumerate(app.service_names)}
    total = np.zeros(per_visit.shape[0], dtype=np.float64)
    for rc in app.request_classes:
        class_latency = np.zeros_like(total)
        for stage in rc.stages:
            branch: np.ndarray | None = None
            for svc, visits in stage.parallel:
                term = visits * column[svc]
                branch = term if branch is None else np.maximum(branch, term)
            class_latency += branch + app.hop_latency
        total += rc.weight * class_latency
    return total


class _AggregationPlan:
    """Index-array form of an app's execution plans for fast aggregation.

    ``aggregate`` computes exactly what :func:`end_to_end_latency_batch`
    computes — per-entry terms, left-folded stage maxima, left-folded
    stage sums per class, weighted class sum — via ``ufunc.reduceat`` and
    ``ufunc.accumulate`` (which apply the ufunc sequentially, preserving
    the walk's operation order bit-for-bit) instead of ~4 NumPy calls per
    plan entry.
    """

    def __init__(self, app: "AppSpec") -> None:
        index = {name: j for j, name in enumerate(app.service_names)}
        svc: list[int] = []
        visits: list[float] = []
        stage_starts: list[int] = []
        class_stages: list[list[int]] = []
        weights: list[float] = []
        for rc in app.request_classes:
            weights.append(rc.weight)
            stages: list[int] = []
            for stage in rc.stages:
                stages.append(len(stage_starts))
                stage_starts.append(len(svc))
                for name, count in stage.parallel:
                    svc.append(index[name])
                    visits.append(count)
            class_stages.append(stages)
        self._svc = np.asarray(svc, dtype=np.intp)
        self._visits = np.asarray(visits, dtype=np.float64)
        self._stage_starts = np.asarray(stage_starts, dtype=np.intp)
        self._n_stages = len(stage_starts)
        # (C, M) stage-column gather map, right-padded with a sentinel
        # column that holds exactly 0.0 — ``x + 0.0`` is bitwise ``x`` for
        # the positive stage latencies, so padding preserves the fold.
        width = max(len(stages) for stages in class_stages)
        self._stage_index = np.asarray(
            [
                stages + [self._n_stages] * (width - len(stages))
                for stages in class_stages
            ],
            dtype=np.intp,
        )
        self._weights = np.asarray(weights, dtype=np.float64)
        self._hop = app.hop_latency

    def aggregate(self, per_visit: np.ndarray) -> np.ndarray:
        """``(B, S)`` per-visit latencies → ``(B,)`` end-to-end p95s.

        ``maximum.reduceat`` is order-independent bit-for-bit (the max of
        a set of non-NaN floats is one of them).  The stage-sum fold and
        the weighted class sum are the last prefix of ``add.accumulate``,
        which adds strictly left to right — the walk's exact sequential
        order (its ``0.0 +`` start is bitwise the first positive term).
        """
        batch = per_visit.shape[0]
        terms = per_visit[:, self._svc] * self._visits
        stage_max = np.maximum.reduceat(terms, self._stage_starts, axis=1)
        stage_latency = np.empty((batch, self._n_stages + 1), dtype=np.float64)
        stage_latency[:, : self._n_stages] = stage_max + self._hop
        stage_latency[:, self._n_stages] = 0.0
        padded = stage_latency[:, self._stage_index]  # (B, C, M)
        class_latency = np.add.accumulate(padded, axis=2)[:, :, -1]
        return np.add.accumulate(class_latency * self._weights, axis=1)[:, -1]


@dataclass(frozen=True)
class KernelSignals:
    """Deterministic signals of one batched noiseless evaluation.

    Everything downstream evaluators need beyond the latency itself:
    scalars are ``(B,)``, per-service signals ``(B, S)`` (``scale`` is the
    workload-independent ``(S,)`` Gamma scale).  ``p90`` is the Gamma
    concurrency 90th percentile, present only when requested.
    """

    mean: np.ndarray
    shape: np.ndarray
    scale: np.ndarray
    exceed: np.ndarray
    overload: np.ndarray
    per_visit: np.ndarray
    latency: np.ndarray
    p90: np.ndarray | None = None


class NoiselessLatencyKernel:
    """The one deterministic ``(B, S) → (B,)`` p95-latency implementation.

    The scalar :class:`~repro.sim.engine.AnalyticalEngine` (``observe``
    on a 1-row batch, and ``noiseless_latency``), the
    :class:`~repro.sim.batched.BatchedAnalyticalEngine` observation
    path, and the OPTM frontier search all evaluate allocations through
    this kernel, so a latency computed anywhere in the codebase is the
    same IEEE float64 value: the Gamma concurrency closed forms, the
    visit-latency inflation, and the end-to-end aggregation are applied
    elementwise across the batch in the exact scalar operation order.
    """

    def __init__(self, app: "AppSpec", *, params: LatencyParams | None = None):
        self._app = app
        self.params = params or LatencyParams()
        self._visits = app.visit_array()
        self._demands = app.demand_array()
        self._burst = app.burstiness_array()
        self._floors = app.floor_array()
        self._baselines = app.baseline_array()
        self._scale_valid = bool((self._burst > _EPS).all())
        self._plan = _AggregationPlan(app)

    @property
    def app(self) -> "AppSpec":
        return self._app

    def mean(
        self,
        workload_rps: np.ndarray,
        cpu_speed: float | np.ndarray = 1.0,
        demand_scale: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(B, S)`` mean CPU concurrency of ``(B,)`` workloads.

        The Gamma mean :meth:`evaluate` uses, in its operation order (see
        there for ``cpu_speed`` and ``demand_scale``).
        """
        speed = np.asarray(cpu_speed, dtype=np.float64)
        col = speed if speed.ndim == 0 else speed[:, None]
        if demand_scale is None:
            demands = self._demands
        else:
            demands = self._demands * np.asarray(demand_scale, dtype=np.float64)
        return (
            workload_rps[:, None] * self._visits * demands + self._baselines
        ) / col

    def evaluate(
        self,
        alloc: np.ndarray,
        workload_rps: np.ndarray,
        cpu_speed: float | np.ndarray = 1.0,
        demand_scale: np.ndarray | None = None,
        *,
        p90: bool = False,
    ) -> KernelSignals:
        """All deterministic signals for a ``(B, S)`` batch of allocations.

        ``workload_rps`` is ``(B,)``; ``cpu_speed`` is a scalar shared by
        the batch or a per-row ``(B,)`` array.  ``demand_scale``, when
        given, multiplies the calibrated per-service CPU demands (the
        fault-injection drift channel): a ``(B, S)`` array applied as
        ``demands * demand_scale`` — the exact operation order the scalar
        engine uses, so a row with an all-ones scale stays bit-identical
        to the unscaled evaluation.  ``p90=True`` adds the concurrency
        90th percentile the engines report as usage p90.
        """
        alloc = np.asarray(alloc, dtype=np.float64)
        workload = np.asarray(workload_rps, dtype=np.float64)
        n_services = len(self._app.service_names)
        if alloc.ndim != 2 or alloc.shape[1] != n_services:
            raise ValueError(
                f"alloc must be (B, {n_services}): {alloc.shape}"
            )
        if workload.shape != (alloc.shape[0],):
            raise ValueError(
                f"workload must be ({alloc.shape[0]},): {workload.shape}"
            )
        if np.any(workload < 0):
            raise ValueError("workload must be >= 0")
        speed = np.asarray(cpu_speed, dtype=np.float64)
        col = speed if speed.ndim == 0 else speed[:, None]
        mean = self.mean(workload, speed, demand_scale)
        shape = gamma_shape(mean, self._burst)
        scale = self._burst
        level = 0.90 if p90 else None
        # ``shape > eps`` implies ``mean > eps`` (shape is 0 elsewhere),
        # so this is the wrappers' every-mask-true condition.
        if self._scale_valid and (shape > _EPS).all():
            exceed, excess, quantile = nondegenerate_gamma(
                alloc, mean, shape, scale, level
            )
        else:
            exceed = gamma_sf(alloc, shape, scale)
            excess = tail_expectation(alloc, mean, shape, scale, sf=exceed)
            quantile = (
                None if level is None else gamma_quantile(level, shape, scale)
            )
        overload = excess / np.maximum(alloc, _EPS)
        floors = self._floors / col
        per_visit = visit_latency(floors, overload, exceed, self.params)
        latency = self._plan.aggregate(per_visit)
        return KernelSignals(
            mean=mean,
            shape=shape,
            scale=scale,
            exceed=exceed,
            overload=overload,
            per_visit=per_visit,
            latency=latency,
            p90=quantile,
        )

    def latency(
        self,
        alloc: np.ndarray,
        workload_rps: np.ndarray,
        cpu_speed: float | np.ndarray = 1.0,
    ) -> np.ndarray:
        """Noise-free p95 latency of every row — what OPTM probes measure."""
        return self.evaluate(alloc, workload_rps, cpu_speed).latency

    def cell(
        self, workload_rps: float, cpu_speed: float = 1.0
    ) -> "CellKernel":
        """A fixed-(workload, speed) evaluator with per-level memoization."""
        return CellKernel(self, workload_rps, cpu_speed)


class CellKernel:
    """Frontier evaluator for one (workload, cpu-speed) operating point.

    A coordinate search probes allocations that differ from their
    neighbours in one or two services, so the same per-service
    ``(service, level) → visit latency`` values recur thousands of times.
    Visit latency is elementwise in the allocation, so this evaluator
    memoizes it per (service, level): cold pairs are computed through the
    same Gamma closed forms as :meth:`NoiselessLatencyKernel.evaluate`
    (gathered into one vectorized call per batch), warm pairs come from
    the memo, and only the end-to-end aggregation runs per row.  Every
    returned latency is bit-identical to a fresh
    :meth:`NoiselessLatencyKernel.latency` call on the same rows — the
    memo only skips recomputing IEEE-identical elementwise values.
    """

    def __init__(
        self, kernel: NoiselessLatencyKernel, workload_rps: float, cpu_speed: float
    ) -> None:
        if workload_rps < 0:
            raise ValueError("workload must be >= 0")
        self._app = kernel.app
        self.params = kernel.params
        speed = np.float64(cpu_speed)
        self._mean = (
            np.float64(workload_rps) * kernel._visits * kernel._demands
            + kernel._baselines
        ) / speed
        self._shape = gamma_shape(self._mean, kernel._burst)
        self._scale = kernel._burst
        self._floors = kernel._floors / speed
        self._plan = kernel._plan
        # The degenerate-service masks of gamma_sf / tail_expectation
        # depend only on (shape, scale, mean), fixed here: when every
        # service is non-degenerate (the calibrated apps), cold pairs take
        # the mask-free nondegenerate_gamma path.
        valid = (self._shape > _EPS) & (self._scale > _EPS) & (self._mean > _EPS)
        self._all_valid = bool(valid.all())
        self._memo: list[dict[float, float]] = [
            {} for _ in kernel._visits
        ]

    def _fill_memo(self, services: list[int], levels: list[float]) -> None:
        """Compute the missing (service, level) visit latencies, vectorized."""
        jv = np.asarray(services, dtype=np.intp)
        xv = np.asarray(levels, dtype=np.float64)
        shape = self._shape[jv]
        scale = self._scale[jv]
        mean = self._mean[jv]
        if self._all_valid:
            exceed, excess, _ = nondegenerate_gamma(xv, mean, shape, scale)
        else:
            exceed = gamma_sf(xv, shape, scale)
            excess = tail_expectation(xv, mean, shape, scale, sf=exceed)
        overload = excess / np.maximum(xv, _EPS)
        values = visit_latency(self._floors[jv], overload, exceed, self.params)
        for j, level, value in zip(services, levels, values):
            self._memo[j][level] = float(value)

    def latency(self, alloc: np.ndarray) -> np.ndarray:
        """Noise-free p95 latency of ``(K, S)`` allocation rows."""
        rows = np.asarray(alloc, dtype=np.float64)
        n_services = len(self._app.service_names)
        if rows.ndim != 2 or rows.shape[1] != n_services:
            raise ValueError(f"alloc must be (K, {n_services}): {rows.shape}")
        if rows.shape[0] == 1:
            # Single probe (bisection levels, feasibility/summary checks):
            # straight memo lookups, no column analysis.
            row = rows[0]
            miss = [j for j in range(n_services) if float(row[j]) not in self._memo[j]]
            if miss:
                self._fill_memo(miss, [float(row[j]) for j in miss])
            per_visit = np.asarray(
                [self._memo[j][float(row[j])] for j in range(n_services)]
            )
            return self._plan.aggregate(per_visit[None, :])
        # Most columns hold a single level across the whole batch (the
        # frontier varies one or two services per row): detect them in one
        # vectorized pass, resolve them by memo lookup, and np.unique only
        # the varying columns.
        first_row = rows[0]
        constant = (rows == first_row).all(axis=0)
        varying: list[tuple[int, list[float], np.ndarray]] = []
        miss_j: list[int] = []
        miss_v: list[float] = []
        for j in np.flatnonzero(~constant):
            unique, inverse = np.unique(rows[:, j], return_inverse=True)
            levels = [float(u) for u in unique]
            memo = self._memo[j]
            # Levels are unique within a column, so no duplicate misses.
            for level in levels:
                if level not in memo:
                    miss_j.append(j)
                    miss_v.append(level)
            varying.append((j, levels, inverse))
        for j in np.flatnonzero(constant):
            if float(first_row[j]) not in self._memo[j]:
                miss_j.append(j)
                miss_v.append(float(first_row[j]))
        if miss_j:
            self._fill_memo(miss_j, miss_v)
        per_visit = np.empty_like(rows)
        const_values = [
            self._memo[j][float(first_row[j])]
            for j in np.flatnonzero(constant)
        ]
        per_visit[:, constant] = const_values
        for j, levels, inverse in varying:
            memo = self._memo[j]
            per_visit[:, j] = np.asarray([memo[level] for level in levels])[
                inverse
            ]
        return self._plan.aggregate(per_visit)
