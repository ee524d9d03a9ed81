"""Unified telemetry: decision tracing, metrics, Prometheus rendering.

``repro.obs`` is the zero-dependency (stdlib-only) observability
substrate every other layer reports through:

* :mod:`repro.obs.metrics` — process-wide :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` instruments in a
  :class:`MetricsRegistry`, rendered in Prometheus text exposition
  format (the service's ``GET /metrics`` endpoint and ``repro sweep
  --metrics-out`` both serve :func:`default_registry`'s render);
* :mod:`repro.obs.trace` — a :class:`Tracer` of nested spans and
  events with monotonic-clock timestamps, serialized as JSONL;
* :mod:`repro.obs.decision` — the *deterministic* per-step decision
  records behind the ``decision_trace`` capture channel.  These carry
  no timestamps, so scalar, batched, and streamed-service executions
  of the same (spec, repeat) produce byte-identical traces.

Nothing here imports from the rest of ``repro`` — the dependency
arrow points only inward, so core/sweeps/service modules are free to
instrument themselves without cycles.
"""

from repro.obs.decision import (
    capture_decision_info,
    capture_manager_state,
    decision_record,
    pema_decision_info,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.obs.trace import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "capture_decision_info",
    "capture_manager_state",
    "decision_record",
    "default_registry",
    "pema_decision_info",
]
