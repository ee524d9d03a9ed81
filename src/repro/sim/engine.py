"""Analytical performance engine.

Evaluates an allocation + workload into interval metrics using closed forms
(Gamma concurrency → throttling and overload → visit latency → end-to-end
aggregation).  Fast enough for tens of thousands of controller iterations,
which is what the parameter sweeps and 36-hour replays need.

The discrete-event engine (:mod:`repro.sim.des`) produces the same metric
signatures from first principles and is used for cross-validation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sim.cfs import CFSModel
from repro.sim.concurrency import ConcurrencyModel
from repro.sim.latency import LatencyParams, NoiselessLatencyKernel
from repro.sim.noise import NoiseModel
from repro.sim.types import Allocation, IntervalMetrics

if TYPE_CHECKING:  # pragma: no cover - avoids a package import cycle
    from repro.apps.spec import AppSpec

__all__ = ["AnalyticalEngine"]


class AnalyticalEngine:
    """Closed-form implementation of the :class:`Environment` protocol.

    Parameters
    ----------
    app:
        The application specification.
    latency_params, cfs, noise:
        Model tunables; defaults reproduce the paper's phenomenology.
    p_crit:
        Concurrency quantile that defines each service's bottleneck
        allocation (DESIGN.md §4).
    seed:
        Seed for the measurement-noise stream.  Two engines with the same
        seed observe identical noise — sweeps reuse seeds for paired
        comparisons.
    """

    def __init__(
        self,
        app: AppSpec,
        *,
        latency_params: LatencyParams | None = None,
        cfs: CFSModel | None = None,
        noise: NoiseModel | None = None,
        p_crit: float = 0.97,
        seed: int = 0,
    ) -> None:
        if not 0 < p_crit < 1:
            raise ValueError(f"p_crit must be in (0, 1): {p_crit}")
        self._app = app
        self.latency_params = latency_params or LatencyParams()
        self.cfs = cfs or CFSModel()
        self.noise = noise if noise is not None else NoiseModel()
        self.p_crit = p_crit
        self._rng = np.random.default_rng(seed)
        self._cpu_speed = 1.0
        self._canonical: dict[tuple[float, float], float] = {}
        self._kernel = NoiselessLatencyKernel(app, params=self.latency_params)
        # Fault-injection channels (repro.faults).  All-ones / 1.0 means
        # "no disturbance"; ``_faulted`` keeps clean runs on the exact
        # pre-fault code path so their bytes are provably unchanged.
        n_services = len(app.service_names)
        self._capacity_scale = np.ones(n_services)
        self._demand_scale = np.ones(n_services)
        self._service_level = 1.0
        self._faulted = False

    # -- Environment protocol --------------------------------------------------
    @property
    def app(self) -> AppSpec:
        return self._app

    def observe(
        self,
        allocation: Allocation,
        workload_rps: float,
        interval: float = 120.0,
    ) -> IntervalMetrics:
        """One monitoring interval's metrics, with measurement noise.

        The deterministic signals are the shared kernel's on a 1-row
        batch, so this observation equals row ``i`` of a
        :class:`~repro.sim.batched.BatchedAnalyticalEngine` seeded alike.
        """
        names = self._app.service_names
        alloc = allocation.as_array(names)
        if self._faulted:
            # A crashed service *behaves* as a fraction of its nominal
            # capacity; the controller still accounts the CPU it asked for
            # (the recorded allocation is the controller's, not the
            # effective one).
            alloc = alloc * self._capacity_scale
        sig = self._kernel.evaluate(
            alloc[None, :],
            np.array([self._model_workload(workload_rps)]),
            self._cpu_speed,
            self._model_demand_scale(),
            p90=True,
        )
        exceed = sig.exceed[0]
        excess_arr = sig.overload[0] * np.maximum(alloc, 1e-12)
        thr_seconds = self.cfs.throttle_seconds(exceed, excess_arr, alloc, interval)

        # p95 latency is driven by how often a request's CFS period freezes
        # (the exceed probability), not by the average frozen time.
        latency = float(sig.latency[0]) * self.noise.sample(self._rng)

        usage = np.minimum(sig.mean[0], alloc)
        svc_noise = np.exp(self._rng.normal(0.0, 0.03, size=usage.shape))
        usage_noisy = usage * svc_noise
        util = np.clip(usage_noisy / np.maximum(alloc, 1e-12), 0.0, 1.0)
        p90 = np.minimum(alloc, sig.p90[0])
        return IntervalMetrics.from_arrays(
            names,
            latency,
            workload_rps,
            util,
            thr_seconds,
            usage_noisy,
            p90,
            latency_mean=latency / 1.6,
        )

    # -- noise-free evaluation (search / tests) ---------------------------------
    @property
    def noiseless_kernel(self) -> NoiselessLatencyKernel:
        """The shared deterministic latency kernel (OPTM evaluates on it)."""
        return self._kernel

    def noiseless_latency(self, allocation: Allocation, workload_rps: float) -> float:
        """Deterministic p95 latency — what OPTM's trial-and-error measures."""
        alloc = allocation.as_array(self._app.service_names)
        return float(self.noiseless_latency_batch(alloc[None, :], workload_rps)[0])

    def noiseless_latency_batch(
        self, allocs: np.ndarray, workload_rps: float | np.ndarray
    ) -> np.ndarray:
        """Noise-free p95 of ``(B, S)`` allocation rows in one kernel call.

        ``workload_rps`` is a scalar shared by the batch or a per-row
        ``(B,)`` array.  Row ``i`` is bit-identical to
        ``noiseless_latency`` of that row — both run the shared
        :class:`~repro.sim.latency.NoiselessLatencyKernel`.
        """
        allocs = np.asarray(allocs, dtype=np.float64)
        workload = np.asarray(workload_rps, dtype=np.float64)
        if workload.ndim == 0:
            workload = np.full(allocs.shape[0], float(workload))
        return self._kernel.latency(allocs, workload, self._cpu_speed)

    def bottleneck_allocation(self, workload_rps: float) -> Allocation:
        """Per-service bottleneck resources at this workload (Fig. 8 knee)."""
        model = self._concurrency(workload_rps)
        return Allocation.from_array(
            self._app.service_names, np.maximum(model.bottleneck(self.p_crit), 0.05)
        )

    # -- operating conditions ----------------------------------------------------
    @property
    def cpu_speed(self) -> float:
        """Relative CPU clock speed (1.0 = nominal, e.g. 1.8 GHz)."""
        return self._cpu_speed

    def set_cpu_speed(self, speed: float) -> None:
        """Change the hardware speed (Fig. 19's 1.8→1.6/2.0 GHz experiment)."""
        if speed <= 0:
            raise ValueError(f"speed must be positive: {speed}")
        self._cpu_speed = float(speed)
        self._canonical.clear()

    # -- fault-injection channels (repro.faults) ---------------------------------
    def _service_index(self, service: str) -> int:
        try:
            return self._app.service_names.index(service)
        except ValueError:
            raise ValueError(
                f"unknown service {service!r} for app {self._app.name!r}"
            ) from None

    def set_capacity_scale(self, scale: float, service: str | None = None) -> None:
        """Scale a service's *effective* capacity (``service_crash``).

        The allocation the controller chose is recorded unchanged; the
        engine behaves as if only ``scale`` of it were usable.  Capacity
        does not enter the concurrency model, so the canonical-workload
        map stays valid.
        """
        if scale < 0:
            raise ValueError(f"capacity scale must be >= 0: {scale}")
        if service is None:
            self._capacity_scale[:] = float(scale)
        else:
            self._capacity_scale[self._service_index(service)] = float(scale)
        self._faulted = True

    def set_demand_scale(self, scale: float, service: str | None = None) -> None:
        """Scale a service's calibrated CPU demand (``calibration_drift``).

        Demands enter the concurrency model, so the canonical-workload map
        is cleared — the same invalidation :meth:`set_cpu_speed` performs.
        """
        if scale <= 0:
            raise ValueError(f"demand scale must be positive: {scale}")
        if service is None:
            self._demand_scale[:] = float(scale)
        else:
            self._demand_scale[self._service_index(service)] = float(scale)
        self._faulted = True
        self._canonical.clear()

    def set_service_level(self, level: float) -> None:
        """Set the app-wide service-level dimmer (brownout actuation).

        ``level`` multiplies every service's CPU demand — serving a
        degraded (cheaper) response.  Clears the canonical-workload map like
        :meth:`set_demand_scale`.
        """
        if not 0 < level <= 1.0:
            raise ValueError(f"service level must be in (0, 1]: {level}")
        self._service_level = float(level)
        self._faulted = True
        self._canonical.clear()

    # -- internals ------------------------------------------------------------------
    def _model_workload(self, workload_rps: float) -> float:
        """The workload the concurrency model is evaluated at.

        Workloads equal to 9 decimals share one model per CPU speed: the
        first one seen, until a speed, demand or service-level change
        clears the map (those change the model).
        """
        if workload_rps < 0:
            raise ValueError(f"workload must be >= 0: {workload_rps}")
        key = (round(float(workload_rps), 9), self._cpu_speed)
        canonical = self._canonical.get(key)
        if canonical is None:
            if len(self._canonical) > 4096:
                self._canonical.clear()
            canonical = self._canonical[key] = float(workload_rps)
        return canonical

    def _concurrency(self, workload_rps: float) -> ConcurrencyModel:
        """The Gamma concurrency model :meth:`observe` evaluates at."""
        mean = self._kernel.mean(
            np.array([self._model_workload(workload_rps)]),
            self._cpu_speed,
            self._model_demand_scale(),
        )[0]
        return ConcurrencyModel(mean=mean, burstiness=self._app.burstiness_array())

    def _model_demand_scale(self) -> np.ndarray | None:
        """The demand multiplier the faults impose (``None`` when clean)."""
        if not self._faulted:
            return None
        return self._demand_scale * self._service_level
