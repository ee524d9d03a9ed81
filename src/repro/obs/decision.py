"""Deterministic per-step decision records (the ``decision_trace`` channel).

Unlike :mod:`repro.obs.trace`, nothing here carries a timestamp: a
decision record is a pure function of the control loop's state at one
step, so scalar, ``--batch``, and streamed-service executions of the
same ``(spec, repeat)`` must produce byte-identical traces (canonical
JSON).  That property is what the trace-determinism tests and the obs
gate assert, and it is why every numeric field is coerced through
``float()``/``int()`` — numpy scalars are not JSON-serializable and
would also render differently across code paths.

Record schema (one per control step)::

    {"step": int, "workload": float, "response": float, "slo": float,
     "violated": bool, "total_cpu": float, "next_total_cpu": float,
     "decision": <autoscaler-specific dict or None>}

``decision`` is whatever the autoscaler's ``last_decision()`` hook
returned — :func:`pema_decision_info` for the PEMA controller family,
a manager summary for :class:`WorkloadAwarePEMA`, ``None`` for
autoscalers without a hook (rule/static/optimum).
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = [
    "capture_decision_info",
    "capture_manager_state",
    "decision_record",
    "pema_decision_info",
]


def decision_record(
    *,
    step: int,
    workload: float,
    response: float,
    slo: float,
    violated: bool,
    total_cpu: float,
    next_total_cpu: float,
    decision: dict[str, Any] | None,
) -> dict[str, Any]:
    """One causal record: observation in, allocation decision out."""
    return {
        "step": int(step),
        "workload": float(workload),
        "response": float(response),
        "slo": float(slo),
        "violated": bool(violated),
        "total_cpu": float(total_cpu),
        "next_total_cpu": float(next_total_cpu),
        "decision": decision,
    }


def capture_decision_info(autoscaler: Any) -> dict[str, Any] | None:
    """Ask an autoscaler for its last decision, if it has the hook."""
    hook = getattr(autoscaler, "last_decision", None)
    if callable(hook):
        return hook()
    return None


def capture_manager_state(autoscaler: Any) -> dict[str, Any] | None:
    """The autoscaler's JSON-ready state snapshot, or None.

    The ``manager_state`` artifact channel: autoscalers that expose a
    ``state_snapshot()`` method (the workload-aware manager's range-tree
    splits/slope, the PID and brownout feedback state) contribute a
    payload; plain controllers and baselines contribute None.
    """
    snapshot = getattr(autoscaler, "state_snapshot", None)
    return snapshot() if callable(snapshot) else None


def pema_decision_info(
    *,
    action: str,
    violated: bool = False,
    targets: Iterable[str] = (),
    n_targets: int = 0,
    delta: float = 0.0,
    signal: float = 0.0,
    p_explore: float = 0.0,
    probabilities: Iterable[tuple[str, float]] = (),
) -> dict[str, Any]:
    """The PEMA controller's causal record for one step.

    ``probabilities`` carries the Eqn-5 inclusion probabilities that fed
    target selection, as ``[service, p]`` pairs in the order the
    controller built them (service declaration order — identical in the
    scalar and batched engines, which is part of the byte-identity
    contract).
    """
    return {
        "kind": "pema",
        "action": str(action),
        "violated": bool(violated),
        "targets": [str(name) for name in targets],
        "n_targets": int(n_targets),
        "delta": float(delta),
        "signal": float(signal),
        "p_explore": float(p_explore),
        "probabilities": [[str(name), float(p)] for name, p in probabilities],
    }
