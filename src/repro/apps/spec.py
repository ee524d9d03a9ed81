"""Application specifications: services, request classes, topologies.

An :class:`AppSpec` captures everything the performance engines need about a
microservice application:

* the set of :class:`ServiceSpec` (CPU demand per visit, latency floor,
  burstiness, tier, language — mirroring the heterogeneity the paper
  stresses in §2.1);
* the :class:`RequestClass` execution plans (sequential stages of parallel
  service calls) that define both the call topology and the latency
  critical path;
* the SLO (p95 end-to-end response latency) and per-hop network latency.

The three prototype apps from the paper are built in
:mod:`repro.apps.sockshop`, :mod:`repro.apps.trainticket`, and
:mod:`repro.apps.hotelreservation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.sim.types import Allocation

__all__ = ["ServiceSpec", "Stage", "RequestClass", "AppSpec"]

VALID_TIERS = ("frontend", "logic", "db", "cache", "queue")


@dataclass(frozen=True)
class ServiceSpec:
    """Static description of one microservice."""

    name: str
    cpu_demand: float
    """CPU-seconds consumed per visit."""

    latency_floor: float
    """Per-visit response time (seconds) with ample resources."""

    burstiness: float = 3.0
    """Variance inflation of instantaneous CPU concurrency (> 0).

    1.0 is Poisson-like; bursty fan-out services sit well above 1, while a
    smooth steadily-loaded query service can sit below it."""

    baseline_cores: float = 0.0
    """Workload-independent CPU demand (runtime/GC/heartbeat overhead).

    Java services carry substantial fixed demand; this is what makes the
    paper's optimum totals nearly flat in workload (Fig. 5: TrainTicket
    needs 40.5 CPU at 100 rps but only 47 at 300 rps)."""

    tier: str = "logic"
    """One of frontend / logic / db / cache / queue."""

    language: str = "go"
    memory_mb: float = 256.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("service name must be non-empty")
        if self.cpu_demand < 0:
            raise ValueError(f"{self.name}: cpu_demand must be >= 0")
        if self.latency_floor <= 0:
            raise ValueError(f"{self.name}: latency_floor must be > 0")
        if self.burstiness <= 0.0:
            raise ValueError(f"{self.name}: burstiness must be > 0")
        if self.baseline_cores < 0:
            raise ValueError(f"{self.name}: baseline_cores must be >= 0")
        if self.tier not in VALID_TIERS:
            raise ValueError(f"{self.name}: unknown tier {self.tier!r}")
        if self.memory_mb <= 0:
            raise ValueError(f"{self.name}: memory_mb must be > 0")


@dataclass(frozen=True)
class Stage:
    """One sequential step of an execution plan.

    Entries in ``parallel`` are (service, visit-count) pairs issued
    concurrently (fan-out); the stage completes when the slowest entry
    does.  Visit counts may be fractional to encode probabilistic calls
    (e.g. 0.3 = the call happens for 30% of requests).
    """

    parallel: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.parallel:
            raise ValueError("a stage needs at least one service call")
        for svc, visits in self.parallel:
            if visits <= 0:
                raise ValueError(f"visit count for {svc!r} must be > 0")

    @classmethod
    def seq(cls, service: str, visits: float = 1.0) -> "Stage":
        """A single sequential call."""
        return cls(((service, visits),))

    @classmethod
    def fanout(cls, *calls: tuple[str, float] | str) -> "Stage":
        """A parallel fan-out; bare strings mean one visit."""
        norm = tuple(
            (c, 1.0) if isinstance(c, str) else (c[0], float(c[1])) for c in calls
        )
        return cls(norm)


@dataclass(frozen=True)
class RequestClass:
    """A traffic class: a weighted execution plan through the services."""

    name: str
    weight: float
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        if not 0 < self.weight <= 1:
            raise ValueError(f"{self.name}: weight must be in (0, 1]")
        if not self.stages:
            raise ValueError(f"{self.name}: needs at least one stage")

    def visits(self) -> dict[str, float]:
        """Total visits per service for one request of this class."""
        out: dict[str, float] = {}
        for stage in self.stages:
            for svc, v in stage.parallel:
                out[svc] = out.get(svc, 0.0) + v
        return out


@dataclass(frozen=True)
class AppSpec:
    """Complete application model."""

    name: str
    services: tuple[ServiceSpec, ...]
    request_classes: tuple[RequestClass, ...]
    slo: float
    """p95 end-to-end response-latency SLO in seconds."""

    hop_latency: float = 0.001
    """Per-stage network/RPC overhead in seconds."""

    reference_workload: float = 100.0
    """A representative requests-per-second level (used for defaults)."""

    description: str = ""
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.slo <= 0:
            raise ValueError("slo must be positive")
        if self.hop_latency < 0:
            raise ValueError("hop_latency must be >= 0")
        names = [s.name for s in self.services]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.name}: duplicate service names")
        known = set(names)
        for rc in self.request_classes:
            for stage in rc.stages:
                for svc, _ in stage.parallel:
                    if svc not in known:
                        raise ValueError(
                            f"{self.name}: class {rc.name!r} references "
                            f"unknown service {svc!r}"
                        )
        total_weight = sum(rc.weight for rc in self.request_classes)
        if abs(total_weight - 1.0) > 1e-6:
            raise ValueError(
                f"{self.name}: request class weights sum to {total_weight}, not 1"
            )

    # -- lookups -------------------------------------------------------------
    @cached_property
    def service_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.services)

    @cached_property
    def _by_name(self) -> dict[str, ServiceSpec]:
        return {s.name: s for s in self.services}

    def service(self, name: str) -> ServiceSpec:
        return self._by_name[name]

    @property
    def n_services(self) -> int:
        return len(self.services)

    # -- derived performance inputs -------------------------------------------
    @cached_property
    def visit_rates(self) -> dict[str, float]:
        """Expected visits per end-to-end request, per service.

        Weighted over request classes; services never visited get 0.
        """
        rates = {name: 0.0 for name in self.service_names}
        for rc in self.request_classes:
            for svc, v in rc.visits().items():
                rates[svc] += rc.weight * v
        return rates

    def visit_array(self) -> np.ndarray:
        return np.asarray(
            [self.visit_rates[n] for n in self.service_names], dtype=np.float64
        )

    def demand_array(self) -> np.ndarray:
        return np.asarray([s.cpu_demand for s in self.services], dtype=np.float64)

    def burstiness_array(self) -> np.ndarray:
        return np.asarray([s.burstiness for s in self.services], dtype=np.float64)

    def baseline_array(self) -> np.ndarray:
        return np.asarray(
            [s.baseline_cores for s in self.services], dtype=np.float64
        )

    def floor_array(self) -> np.ndarray:
        return np.asarray([s.latency_floor for s in self.services], dtype=np.float64)

    # -- allocations -------------------------------------------------------------
    def uniform_allocation(self, cpu_per_service: float) -> Allocation:
        return Allocation({name: cpu_per_service for name in self.service_names})

    def generous_allocation(
        self, workload_rps: float, headroom: float = 2.0
    ) -> Allocation:
        """A comfortably over-provisioned starting allocation.

        The paper's premise: the initial allocation comes from a rule-based
        manager and has abundant slack.  We give every service ``headroom``
        times a high quantile of its concurrency demand.
        """
        values = self.generous_allocation_batch(
            np.array([workload_rps], dtype=np.float64),
            np.array([headroom], dtype=np.float64),
        )
        return Allocation.from_array(self.service_names, values[0])

    def generous_allocation_batch(
        self, rates: np.ndarray, headrooms: np.ndarray
    ) -> np.ndarray:
        """:meth:`generous_allocation` of ``(B,)`` rates and headrooms as
        ``(B, S)`` rows.

        Every service gets ``headroom`` times the 97th percentile of its
        Gamma concurrency, floored at 0.2 cores.  The quantile (an
        iterative inverse, the costly part) runs once per distinct rate.
        """
        from repro.sim.concurrency import gamma_quantile, gamma_shape

        if np.any(rates < 0):
            raise ValueError("workload must be >= 0")
        unique_rates, inverse = np.unique(rates, return_inverse=True)
        mean = (
            unique_rates[:, None] * self.visit_array() * self.demand_array()
            + self.baseline_array()
        )
        burst = self.burstiness_array()
        base = gamma_quantile(0.97, gamma_shape(mean, burst), burst)[inverse]
        return np.maximum(base * headrooms[:, None], 0.2)
