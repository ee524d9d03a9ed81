"""Fig. 14 — 36-hour SockShop run under a Wikipedia-like diurnal workload.

Paper: workload swings between 200 and 1100 rps following the Wikipedia
trace; PEMA's total CPU tracks the workload (it is not a simple
proportional scaling — distribution matters), and the normalized response
stays at or below the SLO almost everywhere, with the moving average
smoothing transient dips.

The whole scenario is ``benchmarks/grids/fig14_extended.json``: one
1080-interval replay cell (the synthetic Wikipedia diurnal trace as a
declarative ``replay`` segment bounded at 36 hours) with the
``manager_state`` channel captured, so the range-tree refinement this
report asserts comes from the persisted artifact.
"""

from __future__ import annotations

import numpy as np

from benchmarks._grids import run_figure_grid
from benchmarks._report import emit
from repro.sweeps import format_table

HOURS = 36
STEPS = HOURS * 30  # 2-minute control intervals


def run_fig14():
    run = run_figure_grid("fig14_extended")
    artifact = run.artifacts[0]
    return artifact.manager_state(0), artifact.results[0]


def test_fig14_extended(benchmark):
    state, result = benchmark.pedantic(run_fig14, rounds=1, iterations=1)
    rows = []
    for hour in range(0, HOURS, 2):
        idx = hour * 30
        window = slice(idx, idx + 30)
        rows.append(
            [
                hour,
                round(float(result.workloads[window].mean()), 0),
                round(float(result.total_cpu[window].mean()), 2),
                round(float(result.responses[window].mean() / 0.250), 3),
            ]
        )
    corr = float(
        np.corrcoef(result.workloads[60:], result.total_cpu[60:])[0, 1]
    )
    range_labels = [
        f"{r['low']:g}~{r['high']:g}" for r in state["ranges"]
    ]
    emit(
        "fig14_extended",
        format_table(
            ["hour", "workload_rps", "total_cpu", "response/SLO"],
            rows,
            title="Fig. 14 — 36-hour SockShop run, Wikipedia-like workload "
            f"(CPU-vs-workload correlation {corr:.2f}; "
            f"violations {result.violation_count()}/{len(result)})",
        )
        + f"\n\nfinal ranges: {', '.join(range_labels)}",
    )
    # CPU tracks the diurnal workload.
    assert corr > 0.6
    # QoS: response below SLO almost everywhere.
    assert result.violation_rate() < 0.10
    # The workload range tree was actually refined.
    assert len(state["splits"]) >= 3
