"""Fig. 11 — PEMA execution on SockShop @ 700 rps, high vs low exploration.

Paper: optimum total CPU is 8.8 (found by exhaustive search); PEMA starts
generous, walks down in ~20 iterations, occasionally jumps back up via
exploration (high setting: A=0.1, B=0.01; low: A=0.05, B=0.005), and both
settle near the optimum within 70 iterations with only a few unintentional
SLO violations.

The two exploration settings are
``benchmarks/grids/fig11_pema_sockshop.json``; OPTM is the analytical
exhaustive search at the same point.
"""

from __future__ import annotations

import numpy as np

from benchmarks._grids import figure_optimum, run_figure_grid
from benchmarks._report import emit
from repro.sweeps import format_table

WORKLOAD = 700.0
ITERS = 70


def run_fig11():
    run = run_figure_grid("fig11_pema_sockshop")
    results = {
        cell.coords["exploration"]: artifact.results[0]
        for cell, artifact in run
    }
    optimum = figure_optimum("sockshop", WORKLOAD)
    return results, optimum


def test_fig11_pema_sockshop(benchmark):
    results, optimum = benchmark.pedantic(run_fig11, rounds=1, iterations=1)
    rows = []
    for it in range(0, ITERS, 5):
        rows.append(
            [
                it,
                round(float(results["high"].total_cpu[it]), 2),
                round(float(results["high"].responses[it] * 1000), 0),
                round(float(results["low"].total_cpu[it]), 2),
                round(float(results["low"].responses[it] * 1000), 0),
            ]
        )
    summary = [
        [
            label,
            round(result.settled_total(), 2),
            round(result.settled_total() / optimum, 2),
            result.violation_count(),
        ]
        for label, result in results.items()
    ]
    emit(
        "fig11_pema_sockshop",
        format_table(
            ["iter", "cpu_high", "resp_ms_high", "cpu_low", "resp_ms_low"],
            rows,
            title=f"Fig. 11 — PEMA on SockShop @ {WORKLOAD:.0f} rps "
            f"(optimum total CPU {optimum:.2f}; paper: 8.8, SLO 250 ms)",
        )
        + "\n\n"
        + format_table(
            ["exploration", "settled_cpu", "settled/optimum", "violations"],
            summary,
            title="Convergence summary",
        ),
    )
    for label, result in results.items():
        # Walks down from the generous start...
        assert result.settled_total() < result.total_cpu[0] * 0.7
        # ...to near the optimum (paper: both settings converge)...
        assert result.settled_total() / optimum < 1.35
        # ...with only a few unintentional SLO violations.
        assert result.violation_count() <= 12
