"""Fig. 12 — PEMA execution on TrainTicket and HotelReservation.

Paper: the same controller, unchanged, finds efficient allocations on the
41-service TrainTicket (SLO 900 ms) within ~35 iterations and on the
18-service HotelReservation (SLO 50 ms) within ~30, with a few mitigated
SLO violations.

The two scenarios are ``benchmarks/grids/fig12_pema_tt_hr.json``.
"""

from __future__ import annotations

from benchmarks._grids import figure_optimum, run_figure_grid
from benchmarks._report import emit
from repro.apps import build_app
from repro.sweeps import format_table


def run_fig12():
    return run_figure_grid("fig12_pema_tt_hr")


def test_fig12_pema_tt_hr(benchmark):
    run = benchmark.pedantic(run_fig12, rounds=1, iterations=1)
    blocks = []
    for cell, artifact in run:
        app = cell.spec.app
        wl = cell.spec.workload.params["rps"]
        iters = cell.spec.n_steps
        result = artifact.results[0]
        rows = [
            [
                it,
                round(float(result.total_cpu[it]), 2),
                round(float(result.responses[it] * 1000), 1),
            ]
            for it in range(0, iters, 3)
        ]
        optimum = figure_optimum(app, wl)
        blocks.append(
            format_table(
                ["iter", "total_cpu", "response_ms"],
                rows,
                title=f"Fig. 12 — PEMA on {app} @ {wl:.0f} rps "
                f"(SLO {build_app(app).slo * 1000:.0f} ms, "
                f"optimum {optimum:.2f})",
            )
        )
        assert result.settled_total() < result.total_cpu[0] * 0.85
        assert result.settled_total() / optimum < 1.4
        assert result.violation_rate() < 0.3
    emit("fig12_pema_tt_hr", "\n\n".join(blocks))
