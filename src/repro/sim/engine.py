"""Analytical performance engine.

Evaluates an allocation + workload into interval metrics using closed forms
(Gamma concurrency → throttling and overload → visit latency → end-to-end
aggregation).  Fast enough for tens of thousands of controller iterations,
which is what the parameter sweeps and 36-hour replays need.  The closed
forms, the noise and the operating-condition channels live once, in
:class:`~repro.sim.batched.BatchedAnalyticalEngine`; the scalar engine is
one cell of it.

The discrete-event engine (:mod:`repro.sim.des`) produces the same metric
signatures from first principles and is used for cross-validation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.sim.batched import BatchedAnalyticalEngine, EngineCell
from repro.sim.cfs import CFSModel
from repro.sim.concurrency import gamma_quantile, gamma_shape
from repro.sim.latency import LatencyParams, NoiselessLatencyKernel
from repro.sim.noise import NoiseModel
from repro.sim.types import Allocation, IntervalMetrics

if TYPE_CHECKING:  # pragma: no cover - avoids a package import cycle
    from repro.apps.spec import AppSpec

__all__ = ["AnalyticalEngine", "analytical_params"]


def _checked_p_crit(p_crit: float) -> float:
    if not 0 < p_crit < 1:
        raise ValueError(f"p_crit must be in (0, 1): {p_crit}")
    return p_crit


def analytical_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """A spec's analytical ``engine.params`` as engine keyword arguments.

    Only ``noise`` (:class:`NoiseModel` fields) and ``p_crit`` are spec
    params; any other key is a TypeError.  The ``ENGINES`` factory and
    the batched classifier both resolve through here.
    """
    unknown = sorted(set(params) - {"noise", "p_crit"})
    if unknown:
        raise TypeError(f"unknown analytical engine params: {unknown}")
    resolved: dict[str, Any] = {}
    if params.get("noise") is not None:
        resolved["noise"] = NoiseModel(**params["noise"])
    if "p_crit" in params:
        resolved["p_crit"] = _checked_p_crit(params["p_crit"])
    return resolved


class AnalyticalEngine(EngineCell):
    """Closed-form implementation of the :class:`Environment` protocol.

    The only cell of a 1-row
    :class:`~repro.sim.batched.BatchedAnalyticalEngine` it owns: the
    observation, the measurement noise and the operating-condition
    setters (``set_cpu_speed``, ``set_capacity_scale``,
    ``set_demand_scale``, ``set_service_level``) are the batched
    engine's, so a scalar observation equals row ``i`` of any batched
    engine whose cell ``i`` is seeded alike, by construction.

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
        self.p_crit = _checked_p_crit(p_crit)
        super().__init__(
            BatchedAnalyticalEngine(
                app, [seed], latency_params=latency_params, cfs=cfs, noise=noise
            ),
            0,
        )
        self._app = app

    @property
    def latency_params(self) -> LatencyParams:
        return self._engine.latency_params

    @property
    def cfs(self) -> CFSModel:
        return self._engine.cfs

    @property
    def noise(self) -> NoiseModel:
        return self._engine.noise

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
        """One monitoring interval's metrics, with measurement noise."""
        if workload_rps < 0:
            raise ValueError(f"workload must be >= 0: {workload_rps}")
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        names = self._app.service_names
        obs = self._engine._observe(
            allocation.as_array(names)[None, :],
            np.array([workload_rps], dtype=np.float64),
            np.array([interval], dtype=np.float64),
        )
        return obs.metrics(0, names)

    # -- noise-free evaluation (search / tests) ---------------------------------
    @property
    def noiseless_kernel(self) -> NoiselessLatencyKernel:
        """The shared deterministic latency kernel (OPTM evaluates on it)."""
        return self._engine._kernel

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
        return self.noiseless_kernel.latency(allocs, workload, self.cpu_speed)

    def bottleneck_allocation(self, workload_rps: float) -> Allocation:
        """Per-service bottleneck resources at this workload (Fig. 8 knee).

        The allocation below which more than ``1 - p_crit`` of CFS periods
        throttle: the ``p_crit`` quantile of each service's concurrency.
        """
        mean = self._mean_concurrency(workload_rps)
        burst = self._app.burstiness_array()
        bottleneck = gamma_quantile(self.p_crit, gamma_shape(mean, burst), burst)
        return Allocation.from_array(
            self._app.service_names, np.maximum(bottleneck, 0.05)
        )

    @property
    def cpu_speed(self) -> float:
        """Relative CPU clock speed (1.0 = nominal, e.g. 1.8 GHz)."""
        return float(self._engine.cpu_speed[0])

    def _mean_concurrency(self, workload_rps: float) -> np.ndarray:
        """Mean CPU concurrency per service, as :meth:`observe` evaluates it."""
        if workload_rps < 0:
            raise ValueError(f"workload must be >= 0: {workload_rps}")
        engine = self._engine
        return engine._kernel.mean(
            np.array([engine.canonical_workload(0, float(workload_rps))]),
            engine.cpu_speed,
            engine.demand_scale(),
        )[0]
