"""Batched analytical engine: one vectorized observation for many cells.

The scalar :class:`~repro.sim.engine.AnalyticalEngine` evaluates one
(allocation, workload) pair per call; a large sweep therefore pays the
full NumPy/scipy call overhead once per *cell* per control interval.
:class:`BatchedAnalyticalEngine` stacks ``B`` compatible cells of the same
application into ``(B, S)`` arrays and runs the identical closed forms
(Gamma concurrency → throttling/overload → visit latency → end-to-end
aggregation) once per *batch* per interval.

Bit-exactness contract: every deterministic operation is the same IEEE
float64 operation in the same order as the scalar engine, applied
elementwise across the batch (scipy's incomplete-gamma ufuncs and NumPy's
arithmetic/``exp``/``power`` kernels are value-deterministic regardless of
array shape), and every *stochastic* draw comes from a dedicated per-cell
``np.random.default_rng(seed)`` stream consumed in exactly the scalar
call order (latency noise factor first, then the per-service usage
normals).  Row ``i`` of a batched observation is therefore byte-identical
to what a scalar engine seeded like cell ``i`` would observe —
``tests/test_batched.py`` enforces this cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.sim.cfs import CFSModel
from repro.sim.latency import LatencyParams, NoiselessLatencyKernel
from repro.sim.noise import NoiseModel

if TYPE_CHECKING:  # pragma: no cover - avoids a package import cycle
    from repro.apps.spec import AppSpec

__all__ = ["BatchObservation", "BatchedAnalyticalEngine", "DecisionBank"]


@dataclass(frozen=True)
class BatchObservation:
    """One monitoring interval observed for a whole batch of cells.

    The batched counterpart of ``B`` :class:`~repro.sim.types.IntervalMetrics`
    objects, kept as arrays: scalars are ``(B,)``, per-service signals are
    ``(B, S)`` in the app's service order.
    """

    latency_p95: np.ndarray
    workload_rps: np.ndarray
    utilization: np.ndarray
    throttle_seconds: np.ndarray
    usage_cores: np.ndarray
    usage_p90_cores: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.latency_p95.shape[0]


class DecisionBank:
    """``C`` cells of one autoscaler family, decided together per interval.

    The surface the batched sweep runner
    (:func:`repro.sweeps.batched.run_units_batched`) drives every family
    through.  A bank is built from its cells' registry-built scalar
    controllers: this constructor stacks their start allocations into
    ``allocation`` — the ``(C, S)`` allocations serving the next
    interval — and the cells' SLOs into ``slo`` — the ``(C,)`` row this
    interval's records carry.  Subclasses read their parameters from the
    same controllers and implement :meth:`step`.  The trace and state
    defaults fit families whose scalar autoscaler exposes neither: their
    capture channels record None, exactly as scalar runs do.
    """

    def __init__(
        self, app: "AppSpec", controllers: Sequence[Any], slos: Sequence[float]
    ) -> None:
        self.services = app.service_names
        self.allocation = np.stack(
            [c.allocation.as_array(self.services) for c in controllers]
        )
        self.slo = np.asarray(slos, dtype=np.float64)

    def step(self, obs: BatchObservation, totals: np.ndarray) -> np.ndarray:
        """Decide every cell's next allocation; returns ``allocation``.

        ``obs`` was observed under the current ``allocation``, and
        ``totals`` is its row sum.
        """
        raise NotImplementedError

    def enable_decision_trace(self, cells: Sequence[int]) -> None:
        """Record per-step decision info for ``cells`` from now on."""

    def decision_trace(self, cell: int) -> list | None:
        """``cell``'s per-step decision info (None: the family has none)."""
        return None

    def manager_state(self, cell: int) -> dict | None:
        """``cell``'s autoscaler state snapshot (None: it exposes none)."""
        return None


class BatchedAnalyticalEngine:
    """Closed-form engine evaluating ``B`` same-app cells per call.

    Parameters
    ----------
    app:
        The (shared) application specification.
    seeds:
        One measurement-noise seed per cell; cell ``i`` observes the same
        noise stream as ``AnalyticalEngine(app, seed=seeds[i])``.
    latency_params, cfs, noise:
        Model tunables, shared across the batch (cells whose engine params
        differ belong in different batches).
    """

    def __init__(
        self,
        app: "AppSpec",
        seeds: Sequence[int],
        *,
        latency_params: LatencyParams | None = None,
        cfs: CFSModel | None = None,
        noise: NoiseModel | None = None,
    ) -> None:
        if not len(seeds):
            raise ValueError("need at least one cell seed")
        self._app = app
        self.latency_params = latency_params or LatencyParams()
        self.cfs = cfs or CFSModel()
        self.noise = noise if noise is not None else NoiseModel()
        self._rngs = [np.random.default_rng(int(s)) for s in seeds]
        self._kernel = NoiselessLatencyKernel(app, params=self.latency_params)
        self.cpu_speed = np.ones(len(self._rngs), dtype=np.float64)
        # Scalar-engine replica: ``AnalyticalEngine._model_workload`` maps
        # each (round(workload, 9), cpu_speed) key to the first workload
        # seen, so two workloads equal to 9 decimals but one ulp apart
        # observe the *first* one's model.  Each cell keeps the same
        # canonical-workload mapping so those collisions resolve
        # identically here (bit-exactness).
        self._canonical_workloads: list[dict[tuple[float, float], float]] = [
            {} for _ in self._rngs
        ]
        # Fault-injection channels (repro.faults), per cell × service.
        # All-ones means "no disturbance"; ``x * 1.0`` is bitwise identity
        # for finite floats, so clean cells inside a faulted batch still
        # produce their clean bytes.  ``_faulted`` keeps fully clean
        # batches on the exact pre-fault code path.
        shape = (len(self._rngs), len(app.service_names))
        self._capacity_scale = np.ones(shape)
        self._demand_scale = np.ones(shape)
        self._service_level = np.ones(len(self._rngs))
        self._faulted = False

    @property
    def app(self) -> "AppSpec":
        return self._app

    @property
    def n_cells(self) -> int:
        return len(self._rngs)

    def set_cpu_speed(self, cell: int, speed: float) -> None:
        """Change one cell's CPU clock (the Fig. 19 ``set_cpu_speed`` hook)."""
        if speed <= 0:
            raise ValueError(f"speed must be positive: {speed}")
        self.cpu_speed[cell] = float(speed)
        # The scalar engine clears its canonical-workload map here.
        self._canonical_workloads[cell].clear()

    # -- fault-injection channels (repro.faults) ---------------------------------
    def _service_index(self, service: str | None) -> int | slice:
        if service is None:
            return slice(None)
        try:
            return self._app.service_names.index(service)
        except ValueError:
            raise ValueError(
                f"unknown service {service!r} for app {self._app.name!r}"
            ) from None

    def set_capacity_scale(
        self, cell: int, scale: float, service: str | None = None
    ) -> None:
        """One cell's effective-capacity scale (``service_crash``).

        Mirrors :meth:`AnalyticalEngine.set_capacity_scale`: capacity does
        not enter the concurrency model, so no cache invalidation.
        """
        if scale < 0:
            raise ValueError(f"capacity scale must be >= 0: {scale}")
        self._capacity_scale[cell, self._service_index(service)] = float(scale)
        self._faulted = True

    def set_demand_scale(
        self, cell: int, scale: float, service: str | None = None
    ) -> None:
        """One cell's CPU-demand scale (``calibration_drift``).

        Demands enter the concurrency model: the cell's canonical-workload
        map is cleared, exactly as the scalar engine clears its model
        cache.
        """
        if scale <= 0:
            raise ValueError(f"demand scale must be positive: {scale}")
        self._demand_scale[cell, self._service_index(service)] = float(scale)
        self._faulted = True
        self._canonical_workloads[cell].clear()

    def set_service_level(self, cell: int, level: float) -> None:
        """One cell's app-wide service-level dimmer (brownout actuation)."""
        if not 0 < level <= 1.0:
            raise ValueError(f"service level must be in (0, 1]: {level}")
        self._service_level[cell] = float(level)
        self._faulted = True
        self._canonical_workloads[cell].clear()

    def observe(
        self,
        alloc: np.ndarray,
        workload_rps: np.ndarray,
        interval: np.ndarray,
    ) -> BatchObservation:
        """One interval's metrics for every cell, with measurement noise.

        ``alloc`` is ``(B, S)`` in service order; ``workload_rps`` and
        ``interval`` are ``(B,)``.
        """
        alloc = np.asarray(alloc, dtype=np.float64)
        workload = np.asarray(workload_rps, dtype=np.float64)
        interval = np.asarray(interval, dtype=np.float64)
        if np.any(workload < 0):
            raise ValueError("workload must be >= 0")
        if np.any(interval <= 0):
            raise ValueError("interval must be positive")
        if self._faulted:
            # Same rebinding as the scalar engine: the recorded allocation
            # stays the controller's; everything downstream sees the
            # effective capacity.
            alloc = alloc * self._capacity_scale

        # Deterministic closed forms: the shared noiseless kernel, which
        # the scalar engine evaluates on a 1-row batch.  The model workload
        # is canonicalized through the scalar engine's round-to-9-decimals
        # key first (the recorded/observed workload stays exact).
        model_workload = workload.copy()
        for i, seen in enumerate(self._canonical_workloads):
            key = (round(float(workload[i]), 9), float(self.cpu_speed[i]))
            canonical = seen.get(key)
            if canonical is None:
                if len(seen) > 4096:  # the scalar cache's size bound
                    seen.clear()
                seen[key] = float(workload[i])
            else:
                model_workload[i] = canonical
        if self._faulted:
            demand_scale = self._demand_scale * self._service_level[:, None]
            sig = self._kernel.evaluate(
                alloc, model_workload, self.cpu_speed, demand_scale, p90=True
            )
        else:
            sig = self._kernel.evaluate(
                alloc, model_workload, self.cpu_speed, p90=True
            )
        excess_arr = sig.overload * np.maximum(alloc, 1e-12)
        frac = self.cfs.throttled_fraction(sig.exceed, excess_arr, alloc)
        thr_seconds = frac * interval[:, None]
        thr_seconds[thr_seconds < self.cfs.zero_floor] = 0.0
        latency = sig.latency

        # Stochastic draws, per cell, in the scalar engine's exact order:
        # the latency-noise factor, then the per-service usage normals.
        n_services = alloc.shape[1]
        factors = np.empty(len(self._rngs), dtype=np.float64)
        normals = np.empty_like(alloc)
        for i, rng in enumerate(self._rngs):
            factors[i] = self.noise.sample(rng)
            normals[i] = rng.normal(0.0, 0.03, size=n_services)
        latency = latency * factors

        usage = np.minimum(sig.mean, alloc)
        svc_noise = np.exp(normals)
        usage_noisy = usage * svc_noise
        util = np.clip(usage_noisy / np.maximum(alloc, 1e-12), 0.0, 1.0)
        p90 = np.minimum(alloc, sig.p90)

        return BatchObservation(
            latency_p95=latency,
            workload_rps=workload,
            utilization=util,
            throttle_seconds=thr_seconds,
            usage_cores=usage_noisy,
            usage_p90_cores=p90,
        )
