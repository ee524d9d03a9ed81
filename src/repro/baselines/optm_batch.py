"""Multi-cell OPTM drivers: lockstep frontier search and the allocator.

:class:`OptimumBatch` advances many (workload, restarts, seed, deep)
cells of one application through their
:meth:`~repro.baselines.optm.OptimumSearch.frontier` generators in
lockstep: each round stacks every active cell's pending candidate batch,
evaluates each cell's slice on its own memoizing
:class:`~repro.sim.latency.CellKernel` (cells differ in workload, so
their Gamma parameters differ), and feeds the latencies back.  Because a
frontier's trajectory is fully determined inside the generator and every
latency comes from the shared noiseless kernel, the results are
bit-identical to running :meth:`OptimumSearch.find` per cell — and to the
scalar reference search.

:class:`OptimumAllocator` packages OPTM as an autoscaler: it pins the
noiseless optimum allocation for the workload it observes, re-solving
only when the observed workload changes.  It routes every solve through
:func:`repro.experiments.runner.optimum_result`, so solves hit the same
in-process LRU cache and persistent ``optimum_store`` as
``optimum_total`` — an "optimum" experiment unit warms exactly the cache
entries the figure benchmarks read.  :class:`OptimumBank` is its batched
form: one :func:`~repro.experiments.runner.optimum_results` call per
step for every cell whose workload changed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.baselines.optm import OptimumResult, OptimumSearch
from repro.sim.batched import BatchObservation, DecisionBank
from repro.sim.engine import AnalyticalEngine
from repro.sim.types import Allocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apps.spec import AppSpec

__all__ = ["OptimumAllocator", "OptimumBank", "OptimumBatch", "OptimumRequest"]


class OptimumRequest:
    """One cell of a batched optimum search."""

    __slots__ = ("workload", "restarts", "seed", "deep", "start")

    def __init__(
        self,
        workload: float,
        *,
        restarts: int = 3,
        seed: int = 0,
        deep: bool = False,
        start: Allocation | None = None,
    ) -> None:
        self.workload = float(workload)
        self.restarts = int(restarts)
        self.seed = int(seed)
        self.deep = bool(deep)
        self.start = start


class OptimumBatch:
    """Lockstep OPTM search over many cells of one application.

    All cells share the engine's app, latency params, and CPU speed —
    exactly the regime of a sweep's OPTM column, where one app is probed
    at many workloads.
    """

    def __init__(
        self,
        engine: AnalyticalEngine,
        *,
        step: float = 0.1,
        min_cpu: float = 0.05,
    ) -> None:
        self.engine = engine
        self.step = step
        self.min_cpu = min_cpu

    @property
    def app(self) -> "AppSpec":
        return self.engine.app

    def find_many(
        self, requests: Sequence[OptimumRequest]
    ) -> list[OptimumResult]:
        """All cells' optimum results, advanced one frontier round at a time.

        Each round evaluates every active cell's pending candidate batch;
        a cell whose generator finishes drops out.  Identical cells (same
        workload, restarts, seed, deep, start) share one search.
        """
        results: list[OptimumResult | None] = [None] * len(requests)
        # Dedup identical cells: the search is deterministic in its
        # request, so aliases simply copy the first cell's result.
        owners: dict[tuple, int] = {}
        alias: dict[int, int] = {}
        active = []
        for i, req in enumerate(requests):
            key = (
                req.workload,
                req.restarts,
                req.seed,
                req.deep,
                req.start,
            )
            if key in owners:
                alias[i] = owners[key]
                continue
            owners[key] = i
            search = OptimumSearch(
                self.engine,
                step=self.step,
                min_cpu=self.min_cpu,
                restarts=req.restarts,
                seed=req.seed,
                deep=req.deep,
            )
            gen = search.frontier(req.workload, req.start)
            evaluate = search.evaluator(req.workload)
            active.append([i, gen, evaluate, None])
        while active:
            still_active = []
            for entry in active:
                i, gen, evaluate, latencies = entry
                try:
                    rows = (
                        gen.send(latencies)
                        if latencies is not None
                        else next(gen)
                    )
                except StopIteration as stop:
                    results[i] = stop.value
                    continue
                entry[3] = evaluate(rows)
                still_active.append(entry)
            active = still_active
        for i, owner in alias.items():
            results[i] = results[owner]
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]


class OptimumBank(DecisionBank):
    """Vectorized :class:`OptimumAllocator` bank.

    Each cell pins the cached noiseless optimum for its observed
    workload, re-solving only when the workload changes.  All cells'
    pending solves go through one ``optimum_results`` call per step —
    cache/store read-through plus a single lockstep
    :class:`OptimumBatch` frontier drive for the misses — so a sweep's
    OPTM column warms exactly the entries the scalar allocator would.
    """

    def __init__(
        self,
        app: "AppSpec",
        allocators: "Sequence[OptimumAllocator]",
        slos: Sequence[float],
    ) -> None:
        super().__init__(app, allocators, slos)
        self._app = app
        self._restarts = [a.restarts for a in allocators]
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


class OptimumAllocator:
    """OPTM as a pinned autoscaler (the ``"optimum"`` registry kind).

    Holds its starting allocation until the first observation arrives,
    then pins the cached noiseless optimum for the observed workload —
    re-solving only when the workload changes.  Solves go through
    :func:`repro.experiments.runner.optimum_result`: deterministic
    (search seed 0 on a noiseless engine, like ``optimum_total``), LRU-
    cached in process, and persisted to the active ``optimum_store``.
    The controller seed is deliberately unused — the paper's OPTM is a
    property of (app, workload), not of the run.
    """

    #: The batched sweep runner's form of this allocator.
    decision_bank = OptimumBank

    def __init__(
        self,
        app: "AppSpec",
        start: Allocation,
        *,
        restarts: int = 2,
    ) -> None:
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1: {restarts}")
        self._app = app
        self.restarts = int(restarts)
        self._allocation = start
        self._workload: float | None = None

    @property
    def allocation(self) -> Allocation:
        return self._allocation

    def decide(self, metrics) -> Allocation:
        workload = float(metrics.workload_rps)
        if self._workload is None or workload != self._workload:
            from repro.experiments.runner import optimum_result

            payload = optimum_result(
                self._app.name, workload, restarts=self.restarts
            )
            self._allocation = Allocation(dict(payload["allocation"]))
            self._workload = workload
        return self._allocation
