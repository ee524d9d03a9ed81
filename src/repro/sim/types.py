"""Core value types shared across the simulator, controller, and baselines.

The central abstraction is the :class:`Allocation` — a mapping from
microservice name to CPU allocation (in cores, fractional allowed, matching
Kubernetes CPU requests/limits semantics).  Controllers manipulate
allocations; environments evaluate them into :class:`IntervalMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

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

    __slots__ = ("_names", "_values", "_total", "_hash")

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
        self._total: float | None = None
        self._hash: int | None = None

    @classmethod
    def _from_list(cls, names: tuple[str, ...], values: list[float]) -> "Allocation":
        """An allocation from ``values`` in ``names`` order, checked once.

        ``names`` is an existing allocation's name tuple (the controllers'
        per-step results).  One vectorized finite/non-negative pass
        replaces the mapping construction; a failing value is reported
        by ``__init__``, naming its service.
        """
        cpus = np.array(values, dtype=np.float64)
        if not (cpus.min() >= 0 and cpus.max() < np.inf):
            return cls(dict(zip(names, values)))
        out = cls.__new__(cls)
        cpus.flags.writeable = False
        out._names = names
        out._values = cpus
        out._total = None
        out._hash = None
        return out

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
        # Immutable, so hashed once: the RHDb scans test every record's
        # allocation against its taint set on each query.
        if self._hash is None:
            self._hash = hash((self._names, self._values.tobytes()))
        return self._hash

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
        if self._total is None:
            self._total = float(self._values.sum())
        return self._total

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
        return Allocation._from_list(
            self._names,
            [
                max(floor, v * (1.0 - fraction)) if n in target else v
                for n, v in zip(self._names, self._values.tolist())
            ],
        )

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


class _ServiceView(Mapping[str, ServiceMetrics]):
    """Read-only ``{name: ServiceMetrics}`` view of an interval's columns.

    Each lookup builds its :class:`ServiceMetrics` from the columns, so
    the per-service objects exist only while a caller holds them.
    """

    __slots__ = ("_metrics",)

    def __init__(self, metrics: "IntervalMetrics") -> None:
        self._metrics = metrics

    def __getitem__(self, name: str) -> ServiceMetrics:
        m = self._metrics
        i = m.position(name)
        return ServiceMetrics(
            m.utilizations[i], m.throttles[i], m.usages[i], m.usages_p90[i]
        )

    def __contains__(self, name: object) -> bool:
        return name in self._metrics._positions()

    def __iter__(self) -> Iterator[str]:
        return iter(self._metrics.names)

    def __len__(self) -> int:
        return len(self._metrics.names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(dict(self.items()))


class IntervalMetrics:
    """One control interval's observation of the whole application.

    Per-service signals are columns: ``names`` and one tuple of values
    per signal (``utilizations``, ``throttles``, ``usages``,
    ``usages_p90``), all in the producer's service order.  Engines build
    them from arrays with :meth:`from_arrays`; other producers pass the
    columns as sequences.  Controllers read the columns by position;
    :attr:`services` is the read-only ``{name: ServiceMetrics}`` view for
    callers that look services up by name.  Immutable.
    """

    __slots__ = (
        "names",
        "latency_p95",
        "workload_rps",
        "utilizations",
        "throttles",
        "usages",
        "usages_p90",
        "latency_mean",
        "completed_requests",
        "_index",
    )

    names: tuple[str, ...]

    latency_p95: float
    """End-to-end 95th percentile response latency (seconds)."""

    workload_rps: float
    """Offered load during the interval (requests per second)."""

    utilizations: tuple[float, ...]
    throttles: tuple[float, ...]
    usages: tuple[float, ...]
    usages_p90: tuple[float, ...]

    latency_mean: float
    """Mean end-to-end latency (seconds); 0 if not measured."""

    completed_requests: int
    """Requests completed in the interval (DES only; 0 for analytical)."""

    def __init__(
        self,
        names: Sequence[str],
        latency_p95: float,
        workload_rps: float,
        utilizations: Sequence[float],
        throttles: Sequence[float],
        usages: Sequence[float],
        usages_p90: Sequence[float],
        latency_mean: float = 0.0,
        completed_requests: int = 0,
    ) -> None:
        set_ = object.__setattr__
        set_(self, "names", tuple(names))
        set_(self, "latency_p95", latency_p95)
        set_(self, "workload_rps", workload_rps)
        set_(self, "utilizations", tuple(utilizations))
        set_(self, "throttles", tuple(throttles))
        set_(self, "usages", tuple(usages))
        set_(self, "usages_p90", tuple(usages_p90))
        set_(self, "latency_mean", latency_mean)
        set_(self, "completed_requests", completed_requests)
        set_(self, "_index", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"IntervalMetrics is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"IntervalMetrics is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # The slots in ``__init__``'s argument order (``_index`` is a cache).
        return (IntervalMetrics, tuple(getattr(self, s) for s in self.__slots__[:-1]))

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
        completed_requests: int = 0,
    ) -> "IntervalMetrics":
        """Metrics from per-service arrays in ``names`` order.

        One ``tolist()`` per signal converts to exactly the Python floats
        a ``float(array[j])`` per value would give; no per-service object
        is built.
        """
        return cls(
            names,
            float(latency_p95),
            float(workload_rps),
            utilization.tolist(),
            throttle_seconds.tolist(),
            usage_cores.tolist(),
            usage_p90_cores.tolist(),
            float(latency_mean),
            int(completed_requests),
        )

    # -- by-name access -----------------------------------------------------
    def _positions(self) -> dict[str, int]:
        index = self._index
        if index is None:
            index = {name: i for i, name in enumerate(self.names)}
            object.__setattr__(self, "_index", index)
        return index

    def position(self, name: str) -> int:
        """Column position of service ``name`` (``KeyError`` if absent)."""
        return self._positions()[name]

    @property
    def services(self) -> Mapping[str, ServiceMetrics]:
        """Per-microservice metrics keyed by service name (a view)."""
        return _ServiceView(self)

    def in_order(self, names: Sequence[str]) -> "IntervalMetrics":
        """These metrics with their columns in ``names`` order.

        ``self`` when the order already matches (the common case:
        engines and controllers share the app's service tuple).  A
        service of ``names`` missing here, or one here missing from
        ``names``, raises ``KeyError``.
        """
        if names is self.names or tuple(names) == self.names:
            return self
        unknown = set(self.names).difference(names)
        if unknown:
            raise KeyError(f"unknown service in metrics: {sorted(unknown)!r}")
        order = [self.position(name) for name in names]
        return IntervalMetrics(
            names,
            self.latency_p95,
            self.workload_rps,
            *(
                [column[i] for i in order]
                for column in (
                    self.utilizations,
                    self.throttles,
                    self.usages,
                    self.usages_p90,
                )
            ),
            self.latency_mean,
            self.completed_requests,
        )

    def violates(self, slo: float) -> bool:
        """True iff the interval's p95 latency exceeds the SLO."""
        return self.latency_p95 > slo

    # -- value semantics ----------------------------------------------------
    def _by_name(self) -> dict[str, tuple[float, float, float, float]]:
        return dict(
            zip(
                self.names,
                zip(self.utilizations, self.throttles, self.usages, self.usages_p90),
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalMetrics):
            return NotImplemented
        return (
            self.latency_p95 == other.latency_p95
            and self.workload_rps == other.workload_rps
            and self.latency_mean == other.latency_mean
            and self.completed_requests == other.completed_requests
            and self._by_name() == other._by_name()
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntervalMetrics(latency_p95={self.latency_p95!r}, "
            f"workload_rps={self.workload_rps!r}, "
            f"services={dict(self.services.items())!r}, "
            f"latency_mean={self.latency_mean!r}, "
            f"completed_requests={self.completed_requests!r})"
        )

