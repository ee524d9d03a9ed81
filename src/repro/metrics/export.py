"""Export utilities: metrics store and run histories to CSV/JSON.

Downstream users want the raw series (for plotting in their own stack);
these writers keep the on-disk format trivial — plain CSV with one header
row, or plain-dict JSON.  The JSON form round-trips exactly (it is what
:class:`repro.experiments.ExperimentArtifact` persists).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.metrics.store import MetricsStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.loop import LoopRecord, LoopResult

__all__ = [
    "store_to_csv",
    "loop_record_to_dict",
    "loop_result_to_csv",
    "loop_result_to_dict",
    "loop_result_from_dict",
]


def store_to_csv(store: MetricsStore, path: str | Path) -> int:
    """Dump every series as long-form CSV: metric,labels,time,value.

    Returns the number of data rows written.
    """
    path = Path(path)
    rows = 0
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "labels", "time", "value"])
        for metric in store.metrics():
            for labels in store.label_sets(metric):
                label_str = ";".join(
                    f"{k}={v}" for k, v in sorted(labels.items())
                )
                series = store.series(metric, **labels)
                for t, v in series:
                    writer.writerow([metric, label_str, f"{t:.6g}", f"{v:.9g}"])
                    rows += 1
    return rows


def loop_result_to_csv(result: "LoopResult", path: str | Path) -> int:
    """Dump a run history: one row per control interval plus per-service
    allocations (wide format)."""
    path = Path(path)
    if not result.records:
        raise ValueError("empty run")
    service_names = list(result.records[0].allocation.names)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "time", "workload_rps", "response_s", "total_cpu",
             "violated", "slo_s"]
            + [f"cpu[{name}]" for name in service_names]
        )
        for rec in result.records:
            writer.writerow(
                [
                    rec.step,
                    f"{rec.time:.6g}",
                    f"{rec.workload:.6g}",
                    f"{rec.response:.9g}",
                    f"{rec.total_cpu:.6g}",
                    int(rec.violated),
                    f"{rec.slo:.6g}",
                ]
                + [f"{rec.allocation[name]:.6g}" for name in service_names]
            )
    return len(result.records)


def loop_record_to_dict(rec: "LoopRecord") -> dict[str, Any]:
    """One interval record in the canonical JSON encoding.

    Allocations are encoded as ``[name, cpu]`` pairs rather than an
    object: JSON writers that sort keys would otherwise reorder the
    services, and summation order matters to the last ulp of
    ``Allocation.total()``.  The streaming service's per-tick decision
    feed uses exactly this encoding, so a streamed history and an
    offline one compare byte-for-byte.
    """
    return {
        "step": rec.step,
        "time": rec.time,
        "workload": rec.workload,
        "response": rec.response,
        "total_cpu": rec.total_cpu,
        "violated": bool(rec.violated),
        "slo": rec.slo,
        "allocation": [
            [name, cpu]
            for name, cpu in zip(
                rec.allocation.names, rec.allocation.as_array().tolist()
            )
        ],
    }


def loop_result_to_dict(result: "LoopResult") -> dict[str, Any]:
    """A JSON-serializable run history (lossless; see the inverse below)."""
    return {"records": [loop_record_to_dict(rec) for rec in result.records]}


def loop_result_from_dict(data: dict[str, Any]) -> "LoopResult":
    """Rebuild a :class:`LoopResult` from :func:`loop_result_to_dict` output."""
    from repro.core.loop import LoopRecord, LoopResult
    from repro.sim.types import Allocation

    result = LoopResult()
    for rec in data["records"]:
        result.records.append(
            LoopRecord(
                step=int(rec["step"]),
                time=float(rec["time"]),
                workload=float(rec["workload"]),
                response=float(rec["response"]),
                total_cpu=float(rec["total_cpu"]),
                violated=bool(rec["violated"]),
                slo=float(rec["slo"]),
                allocation=Allocation(
                    [(name, float(cpu)) for name, cpu in rec["allocation"]]
                ),
            )
        )
    return result
