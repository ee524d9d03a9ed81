"""Core value types shared across the simulator, controller, and baselines.

The central abstraction is the :class:`Allocation` — a mapping from
microservice name to CPU allocation (in cores, fractional allowed, matching
Kubernetes CPU requests/limits semantics).  Controllers manipulate
allocations; environments evaluate them into :class:`IntervalMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Allocation",
    "ServiceMetrics",
    "IntervalMetrics",
]


class Allocation(Mapping[str, float]):
    """Immutable per-microservice CPU allocation vector.

    Behaves like a read-only mapping ``{service_name: cpu_cores}`` and adds
    the vector-style helpers the controller and baselines need.  CPU values
    are in cores (e.g. ``0.5`` = half a core, as in Kubernetes ``500m``).

    Instances are hashable and comparable, which lets the resource-history
    database (RHDb) deduplicate configurations.
    """

    __slots__ = ("_names", "_values")

    def __init__(self, values: Mapping[str, float] | Iterable[tuple[str, float]]):
        items = dict(values)
        if not items:
            raise ValueError("Allocation cannot be empty")
        cpus = np.asarray(list(items.values()))
        # One min and one max pass validate every value (NaN fails >= 0).
        if not (
            cpus.dtype.kind in "biuf"
            and cpus.shape == (len(items),)
            and cpus.min() >= 0
            and cpus.max() < np.inf
        ):
            # Check value by value to name the first offending service
            # (non-numeric values included); other scalars are converted.
            for name, cpu in items.items():
                try:
                    valid = bool(np.isfinite(cpu)) and cpu >= 0
                except (TypeError, ValueError):
                    valid = False
                if not valid:
                    raise ValueError(f"invalid CPU value for {name!r}: {cpu}")
            cpus = np.asarray([float(cpu) for cpu in items.values()])
        self._names: tuple[str, ...] = tuple(items)
        self._values: np.ndarray = cpus.astype(np.float64, copy=False)
        self._values.flags.writeable = False

    # -- Mapping protocol ---------------------------------------------------
    def __getitem__(self, name: str) -> float:
        try:
            idx = self._names.index(name)
        except ValueError:
            raise KeyError(name) from None
        return float(self._values[idx])

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    # -- identity -----------------------------------------------------------
    def __hash__(self) -> int:
        return hash((self._names, self._values.tobytes()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return self._names == other._names and np.array_equal(
            self._values, other._values
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{n}={v:.3g}" for n, v in zip(self._names, self._values))
        return f"Allocation({body})"

    # -- vector helpers -----------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Service names in a stable order."""
        return self._names

    def as_array(self, order: Iterable[str] | None = None) -> np.ndarray:
        """Return CPU values as a float array, optionally reordered.

        ``order`` in the allocation's own name order (the common case:
        engines and controllers share the app's service tuple) is a plain
        copy; any other order looks each name up.
        """
        if order is None or order is self._names:
            return self._values.copy()
        order = tuple(order)
        if order == self._names:
            return self._values.copy()
        return np.asarray([self[name] for name in order], dtype=np.float64)

    @classmethod
    def from_array(cls, names: Iterable[str], values: np.ndarray) -> "Allocation":
        names = tuple(names)
        values = np.asarray(values, dtype=np.float64)
        if len(names) != values.shape[0]:
            raise ValueError("names/values length mismatch")
        return cls(dict(zip(names, values.tolist())))

    def total(self) -> float:
        """Aggregate CPU across all services (the paper's objective, Eqn 1)."""
        return float(self._values.sum())

    def with_value(self, name: str, cpu: float) -> "Allocation":
        """Return a copy with a single service's CPU replaced."""
        if name not in self._names:
            raise KeyError(name)
        items = dict(zip(self._names, self._values.tolist()))
        items[name] = float(cpu)
        return Allocation(items)

    def reduce(
        self, names: Iterable[str], fraction: float, floor: float = 0.05
    ) -> "Allocation":
        """Multiply the listed services' CPU by ``(1 - fraction)``.

        ``fraction`` is the paper's per-step reduction ``Δt`` expressed as a
        fraction (0.1 = reduce by 10%).  ``floor`` prevents allocations from
        collapsing to zero, mirroring Kubernetes' minimum CPU requests.
        """
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"fraction must be in [0, 1): {fraction}")
        target = set(names)
        unknown = target - set(self._names)
        if unknown:
            raise KeyError(f"unknown services: {sorted(unknown)}")
        items = {
            n: max(floor, v * (1.0 - fraction)) if n in target else v
            for n, v in zip(self._names, self._values.tolist())
        }
        return Allocation(items)

    def scale(self, factor: float) -> "Allocation":
        """Uniformly scale every service's CPU."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return Allocation(
            {n: v * factor for n, v in zip(self._names, self._values.tolist())}
        )

    def clamp(self, lower: float = 0.05, upper: float = float("inf")) -> "Allocation":
        """Clamp every service's CPU into ``[lower, upper]``."""
        return Allocation(
            {
                n: min(max(v, lower), upper)
                for n, v in zip(self._names, self._values.tolist())
            }
        )

    def monotone_le(self, other: "Allocation") -> bool:
        """True iff every service has CPU ≤ the other allocation's.

        This is the paper's *monotonic reduction* partial order: ``a`` is a
        monotonic reduction of ``b`` iff ``a.monotone_le(b)``.
        """
        if self._names != other._names:
            raise ValueError("allocations cover different services")
        return bool(np.all(self._values <= other._values + 1e-12))


@dataclass(frozen=True)
class ServiceMetrics:
    """Per-microservice metrics for one monitoring interval.

    Mirrors what the paper scrapes from Prometheus/cAdvisor:

    * ``utilization`` — mean CPU usage divided by allocation, in [0, 1+]
      (``cpu_usage_seconds_total`` rate over the limit);
    * ``throttle_seconds`` — CFS throttled time accumulated in the interval
      (``cpu_cfs_throttled_seconds_total`` delta);
    * ``usage_cores`` — mean CPU cores actually consumed;
    * ``usage_p90_cores`` — 90th percentile of fine-grained usage samples
      (what the rule-based baseline keys on).
    """

    utilization: float
    throttle_seconds: float
    usage_cores: float
    usage_p90_cores: float = 0.0


@dataclass(frozen=True)
class IntervalMetrics:
    """One control interval's observation of the whole application."""

    latency_p95: float
    """End-to-end 95th percentile response latency (seconds)."""

    workload_rps: float
    """Offered load during the interval (requests per second)."""

    services: Mapping[str, ServiceMetrics] = field(default_factory=dict)
    """Per-microservice metrics keyed by service name."""

    latency_mean: float = 0.0
    """Mean end-to-end latency (seconds); 0 if not measured."""

    completed_requests: int = 0
    """Requests completed in the interval (DES only; 0 for analytical)."""

    @classmethod
    def from_arrays(
        cls,
        names: Sequence[str],
        latency_p95: float,
        workload_rps: float,
        utilization: np.ndarray,
        throttle_seconds: np.ndarray,
        usage_cores: np.ndarray,
        usage_p90_cores: np.ndarray,
        latency_mean: float = 0.0,
    ) -> "IntervalMetrics":
        """Metrics from per-service arrays in ``names`` order.

        One ``tolist()`` per signal converts to exactly the Python floats
        a ``float(array[j])`` per value would give.
        """
        services = {
            name: ServiceMetrics(u, h, c, p)
            for name, u, h, c, p in zip(
                names,
                utilization.tolist(),
                throttle_seconds.tolist(),
                usage_cores.tolist(),
                usage_p90_cores.tolist(),
            )
        }
        return cls(
            latency_p95=float(latency_p95),
            workload_rps=float(workload_rps),
            services=services,
            latency_mean=float(latency_mean),
        )

    def utilization(self, name: str) -> float:
        return self.services[name].utilization

    def throttle(self, name: str) -> float:
        return self.services[name].throttle_seconds

    def violates(self, slo: float) -> bool:
        """True iff the interval's p95 latency exceeds the SLO."""
        return self.latency_p95 > slo
