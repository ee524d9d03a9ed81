#!/usr/bin/env python
"""Workload-aware PEMA on TrainTicket under a diurnal workload.

Demonstrates §3.4 of the paper: dynamic workload ranges that split as
PEMA learns (parent keeps the upper child, the lower child bootstraps from
the parent's allocation), plus the dynamic response target R(λ) learned by
regressing response on workload at startup.

Run:  python examples/workload_aware_scaling.py
"""

from repro import AnalyticalEngine, ControlLoop, WorkloadAwarePEMA, build_app
from repro.workload import NoisyTrace, SinusoidalWorkload

HOURS = 8
STEPS = HOURS * 30  # 2-minute control intervals


def main() -> None:
    app = build_app("trainticket")
    print(f"app: {app.name} ({app.n_services} services, "
          f"SLO {app.slo * 1000:.0f} ms)\n")

    manager = WorkloadAwarePEMA(
        app.service_names,
        app.slo,
        app.generous_allocation(300.0),
        workload_low=150.0,
        workload_high=350.0,
        min_range_width=25.0,
        split_after=10,
        slope_samples=6,
        seed=0,
    )
    trace = NoisyTrace(
        SinusoidalWorkload(low=170.0, high=330.0, period=4 * 3600.0),
        sigma=0.05,
        seed=1,
    )
    engine = AnalyticalEngine(app, seed=2)
    loop = ControlLoop(engine, manager, trace, slo=app.slo)
    result = loop.run(STEPS)

    print(f"learned latency slope m = {manager.slope * 1000:.3f} ms/rps\n")
    print("hour  workload  total_cpu  p95/SLO  active_range")
    control_steps = [s for s in manager.history if s.phase == "control"]
    for hour in range(HOURS):
        idx = hour * 30
        rec = result.records[idx]
        step = manager.history[min(idx, len(manager.history) - 1)]
        print(f"{hour:4d}  {rec.workload:8.0f}  {rec.total_cpu:9.1f}  "
              f"{rec.response / app.slo:7.2f}  {step.range_label}")

    print(f"\nrange splits ({len(manager.tree.splits)}):")
    for s in manager.tree.splits:
        print(f"  step {s.step:4d}: {s.parent[0]:g}~{s.parent[1]:g} -> "
              f"{s.lower[0]:g}~{s.lower[1]:g} (new PEMA #{s.lower_pema_id}) + "
              f"{s.upper[0]:g}~{s.upper[1]:g} (PEMA #{s.upper_pema_id})")
    print(f"\nfinal leaf ranges: {', '.join(manager.range_labels())}")
    print(f"SLO violations: {result.violation_count()}/{len(result)} intervals")


if __name__ == "__main__":
    main()
