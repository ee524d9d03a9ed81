"""Extension — vertical vs horizontal scaling (paper §6, unaddressed).

The paper manages CPU purely vertically and defers the horizontal
(replica) dimension.  We quantify the trade-off it hints at, which turns
out to cut both ways:

* small pods ⇒ many replicas ⇒ the per-replica baseline demand (JVM/GC
  overhead per copy) is duplicated — raw CPU exceeds effective CPU;
* large pods ⇒ integer quantization — each of TrainTicket's many small
  services still needs ≥ 1 pod, so coarse pods strand capacity;
* either way, an HPA holding the same QoS provisions substantially more
  raw CPU than vertical RULE, let alone vertical PEMA.
"""

from __future__ import annotations

from benchmarks._report import emit
from repro.apps import build_app
from repro.baselines.horizontal import (
    HorizontalRuleAutoscaler,
    ReplicaAllocator,
)
from repro.core import ControlLoop
from repro.experiments import ExperimentSpec, run_comparison
from repro.sim import AnalyticalEngine
from repro.sweeps import format_table
from repro.workload import ConstantWorkload

WORKLOAD = 225.0
POD_SIZES = (0.5, 1.0, 2.0)


def run_ext_horizontal():
    app = build_app("trainticket")
    rows = []
    raw_totals = {}
    for pod in POD_SIZES:
        allocator = ReplicaAllocator(app, pod_cpu=pod, max_replicas=32)
        hpa = HorizontalRuleAutoscaler(
            allocator, target_utilization=0.10, initial_replicas=4
        )
        engine = AnalyticalEngine(app, seed=400)
        result = ControlLoop(
            engine, hpa, ConstantWorkload(WORKLOAD), slo=app.slo
        ).run(30)
        raw = hpa.raw_total()
        raw_totals[pod] = raw
        rows.append(
            [
                f"HPA pod={pod:g}",
                round(raw, 1),
                round(hpa.allocation.total(), 1),
                int(sum(hpa.replicas.values())),
                f"{result.violation_rate() * 100:.0f}%",
            ]
        )
    # One Fig. 15 cell: vertical PEMA, its RULE counterpart and OPTM.
    cell = run_comparison(
        ExperimentSpec(
            app="trainticket", workload=WORKLOAD, n_steps=60, seed=401
        )
    )
    vertical_rule = cell["rule_total"]
    pema = cell["pema_total"]
    opt = cell["optm_total"]
    rows.append(["RULE (vertical)", round(vertical_rule, 1), "-", "-", "-"])
    rows.append(["PEMA (vertical)", round(pema, 1), "-", "-", "-"])
    rows.append(["OPTM", round(opt, 1), "-", "-", "-"])
    return rows, raw_totals, vertical_rule, pema


def test_ext_horizontal(benchmark):
    rows, raw_totals, vertical_rule, pema = benchmark.pedantic(
        run_ext_horizontal, rounds=1, iterations=1
    )
    emit(
        "ext_horizontal",
        format_table(
            ["strategy", "raw_cpu", "effective_cpu", "replicas", "violations"],
            rows,
            title="Extension (§6) — horizontal vs vertical scaling, "
            f"TrainTicket @ {WORKLOAD:.0f} rps (per-replica baseline "
            "overhead drives the gap)",
        ),
    )
    # Coarse pods strand capacity on the many small services.
    assert raw_totals[2.0] > raw_totals[1.0]
    # Every horizontal configuration costs more raw CPU than vertical RULE.
    assert min(raw_totals.values()) > vertical_rule
    # Vertical PEMA beats every horizontal configuration on raw CPU.
    assert pema < min(raw_totals.values())
