"""Fig. 13 — dynamic workload ranges on TrainTicket, λ ∈ [200, 300].

Paper: PEMA starts with the wide 200~300 range; it splits around iteration
50 into 300/250, then again (250→250/225, 300→300/275) near iterations
80-85; each child starts from the parent's allocation and needs only a few
iterations, with occasional mitigated SLO violations.

The whole scenario is ``benchmarks/grids/fig13_dynamic_range.json``: one
replay cell (the noisy 250-rps trace as a declarative ``replay`` segment)
whose spec opts into the ``manager_state`` artifact channel, so the range
splits and final leaf ranges this report inspects come out of the
persisted artifact instead of a live manager object.
"""

from __future__ import annotations

import numpy as np

from benchmarks._grids import run_figure_grid
from benchmarks._report import emit
from repro.sweeps import format_table

ITERS = 120


def run_fig13():
    run = run_figure_grid("fig13_dynamic_range")
    artifact = run.artifacts[0]
    return artifact.manager_state(0), artifact.results[0]


def test_fig13_dynamic_range(benchmark):
    state, result = benchmark.pedantic(run_fig13, rounds=1, iterations=1)
    rows = [
        [
            it,
            round(float(result.workloads[it]), 0),
            round(float(result.total_cpu[it]), 1),
            round(float(result.responses[it] * 1000), 0),
        ]
        for it in range(0, ITERS, 8)
    ]
    split_rows = [
        [
            s["step"],
            f"{s['parent'][0]:g}~{s['parent'][1]:g}",
            f"{s['lower'][0]:g}~{s['lower'][1]:g} (#{s['lower_pema_id']})",
            f"{s['upper'][0]:g}~{s['upper'][1]:g} (#{s['upper_pema_id']})",
        ]
        for s in state["splits"]
    ]
    range_labels = [
        f"{r['low']:g}~{r['high']:g}" for r in state["ranges"]
    ]
    emit(
        "fig13_dynamic_range",
        format_table(
            ["iter", "workload_rps", "total_cpu", "response_ms"],
            rows,
            title="Fig. 13 — PEMA on TrainTicket with dynamic workload "
            "ranges (SLO 900 ms)",
        )
        + "\n\n"
        + format_table(
            ["at_step", "parent", "lower_child", "upper_child"],
            split_rows,
            title="Range splits (paper: 200~300 splits ~iter 50, children "
            "split again ~80-85)",
        )
        + f"\n\nfinal ranges: {', '.join(range_labels)}",
    )
    # Shape claims: splitting actually happened, down toward 25-rps ranges.
    assert len(state["splits"]) >= 2
    widths = sorted({r["high"] - r["low"] for r in state["ranges"]})
    assert widths[0] <= 50.0
    # Parents keep the upper child: PEMA #1 owns the topmost range.
    top = max(state["ranges"], key=lambda r: r["high"])
    assert top["pema_id"] == 1
    assert result.violation_rate() < 0.25
