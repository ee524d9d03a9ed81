"""The analytical engine: one vectorized observation for many cells.

:class:`BatchedAnalyticalEngine` is the one implementation of the
closed-form observation (Gamma concurrency → throttling/overload → visit
latency → end-to-end aggregation, plus measurement noise) and of its
operating-condition channels (CPU speed, the fault-injection capacity
and demand scales, the brownout service level).  It stacks ``B``
compatible cells of the same application into ``(B, S)`` arrays and
evaluates them once per control interval.

:class:`EngineCell` is one row of such a batch behind the scalar setter
signatures.  Registered hooks and brownout's dimmer drive a sweep cell
through it, and the scalar :class:`~repro.sim.engine.AnalyticalEngine`
*is* one: the only cell of a 1-row batch it owns.  A scalar observation
is therefore row 0 of a batched one by construction.

Row independence: every deterministic operation is elementwise across
the batch (scipy's incomplete-gamma ufuncs and NumPy's
arithmetic/``exp``/``power`` kernels are value-deterministic regardless
of array shape), and every *stochastic* draw comes from a dedicated
per-cell ``np.random.default_rng(seed)`` stream, consumed in a fixed
order (latency noise factor first, then the per-service usage normals).
Row ``i`` of a batched observation is therefore byte-identical to what
a 1-row engine seeded like cell ``i`` observes, whatever else shares the
batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

import numpy as np

from repro.sim.cfs import CFSModel
from repro.sim.latency import LatencyParams, NoiselessLatencyKernel
from repro.sim.noise import NoiseModel
from repro.sim.types import IntervalMetrics

if TYPE_CHECKING:  # pragma: no cover - avoids a package import cycle
    from repro.apps.spec import AppSpec

__all__ = [
    "BatchObservation",
    "BatchedAnalyticalEngine",
    "DecisionBank",
    "EngineCell",
]


class BatchObservation(NamedTuple):
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

    def metrics(self, cell: int, names: Sequence[str]) -> IntervalMetrics:
        """Row ``cell`` as the :class:`IntervalMetrics` a controller reads.

        ``names`` is the app's service order.  The analytical engine
        reports no mean latency of its own: it is the p95 over 1.6.
        """
        latency = float(self.latency_p95[cell])
        return IntervalMetrics.from_arrays(
            names,
            latency,
            self.workload_rps[cell],
            self.utilization[cell],
            self.throttle_seconds[cell],
            self.usage_cores[cell],
            self.usage_p90_cores[cell],
            latency_mean=latency / 1.6,
        )


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
        One measurement-noise seed per cell.  Two cells with the same
        seed observe identical noise — sweeps reuse seeds for paired
        comparisons.
    latency_params, cfs, noise:
        Model tunables, shared across the batch (cells whose engine params
        differ belong in different batches); the defaults reproduce the
        paper's phenomenology.
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
        # Per cell, each (round(workload, 9), cpu_speed) key maps to the
        # first workload seen (see canonical_workload).
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

    # -- operating conditions ----------------------------------------------------
    def set_cpu_speed(self, cell: int, speed: float) -> None:
        """Change one cell's relative CPU clock (Fig. 19's 1.8→1.6/2.0 GHz).

        The speed enters the concurrency model, so the cell's
        canonical-workload map is cleared.
        """
        if speed <= 0:
            raise ValueError(f"speed must be positive: {speed}")
        self.cpu_speed[cell] = float(speed)
        self._canonical_workloads[cell].clear()

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
        """Scale one cell's *effective* capacity (``service_crash``).

        The allocation the controller chose is recorded unchanged; the
        engine behaves as if only ``scale`` of it were usable.  Capacity
        does not enter the concurrency model, so the canonical-workload
        map stays valid.
        """
        if scale < 0:
            raise ValueError(f"capacity scale must be >= 0: {scale}")
        self._capacity_scale[cell, self._service_index(service)] = float(scale)
        self._faulted = True

    def set_demand_scale(
        self, cell: int, scale: float, service: str | None = None
    ) -> None:
        """Scale one cell's calibrated CPU demand (``calibration_drift``).

        Demands enter the concurrency model, so the cell's
        canonical-workload map is cleared, as :meth:`set_cpu_speed` does.
        """
        if scale <= 0:
            raise ValueError(f"demand scale must be positive: {scale}")
        self._demand_scale[cell, self._service_index(service)] = float(scale)
        self._faulted = True
        self._canonical_workloads[cell].clear()

    def set_service_level(self, cell: int, level: float) -> None:
        """Set one cell's app-wide service-level dimmer (brownout actuation).

        ``level`` multiplies every service's CPU demand — serving a
        degraded (cheaper) response — and clears the canonical-workload
        map like :meth:`set_demand_scale`.
        """
        if not 0 < level <= 1.0:
            raise ValueError(f"service level must be in (0, 1]: {level}")
        self._service_level[cell] = float(level)
        self._faulted = True
        self._canonical_workloads[cell].clear()

    def canonical_workload(self, cell: int, workload_rps: float) -> float:
        """The workload ``cell``'s concurrency model is evaluated at.

        Workloads equal to 9 decimals share one model per CPU speed: the
        first one seen, until a speed, demand or service-level change
        clears the map (those change the model).  The recorded and
        observed workload stays exact.
        """
        seen = self._canonical_workloads[cell]
        key = (round(workload_rps, 9), float(self.cpu_speed[cell]))
        canonical = seen.get(key)
        if canonical is None:
            if len(seen) > 4096:
                seen.clear()
            canonical = seen[key] = workload_rps
        return canonical

    def demand_scale(self) -> np.ndarray | None:
        """The ``(B, S)`` demand multiplier the faults impose (None: clean)."""
        if not self._faulted:
            return None
        return self._demand_scale * self._service_level[:, None]

    # -- observation ---------------------------------------------------------------
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
        return self._observe(alloc, workload, interval)

    def _observe(
        self, alloc: np.ndarray, workload: np.ndarray, interval: np.ndarray
    ) -> BatchObservation:
        """:meth:`observe` on float64 arrays already validated."""
        if self._faulted:
            # A crashed service *behaves* as a fraction of its nominal
            # capacity; the recorded allocation stays the controller's,
            # everything downstream sees the effective one.
            alloc = alloc * self._capacity_scale
        model_workload = np.array(
            [
                self.canonical_workload(i, w)
                for i, w in enumerate(workload.tolist())
            ]
        )
        sig = self._kernel.evaluate(
            alloc, model_workload, self.cpu_speed, self.demand_scale(), p90=True
        )
        excess_arr = sig.overload * np.maximum(alloc, 1e-12)
        frac = self.cfs.throttled_fraction(sig.exceed, excess_arr, alloc)
        thr_seconds = frac * interval[:, None]
        thr_seconds[thr_seconds < self.cfs.zero_floor] = 0.0

        # Stochastic draws, per cell: the latency-noise factor, then the
        # per-service usage normals.
        n_services = alloc.shape[1]
        factors = np.empty(len(self._rngs), dtype=np.float64)
        normals = np.empty_like(alloc)
        for i, rng in enumerate(self._rngs):
            factors[i] = self.noise.sample(rng)
            normals[i] = rng.normal(0.0, 0.03, size=n_services)
        latency = sig.latency * factors

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


class EngineCell:
    """One row of a :class:`BatchedAnalyticalEngine` as a scalar engine.

    Exposes the scalar setter signatures for ``cell``, so registered
    hooks (CPU speed, the engine-fault schedule) and actuating
    controllers (brownout's service-level dimmer) drive a batch row
    through exactly the calls they make against a scalar engine.
    """

    def __init__(self, engine: BatchedAnalyticalEngine, cell: int) -> None:
        self._engine = engine
        self._cell = cell

    def set_cpu_speed(self, speed: float) -> None:
        """Change the relative CPU clock (see the batched engine)."""
        self._engine.set_cpu_speed(self._cell, speed)

    def set_capacity_scale(self, scale: float, service: str | None = None) -> None:
        """Scale the effective capacity (``service_crash``)."""
        self._engine.set_capacity_scale(self._cell, scale, service=service)

    def set_demand_scale(self, scale: float, service: str | None = None) -> None:
        """Scale the calibrated CPU demand (``calibration_drift``)."""
        self._engine.set_demand_scale(self._cell, scale, service=service)

    def set_service_level(self, level: float) -> None:
        """Set the app-wide service-level dimmer (brownout actuation)."""
        self._engine.set_service_level(self._cell, level)
