"""Fig. 10(a) — response time vs. workload at a fixed allocation.

Paper: response grows with workload roughly linearly over the operating
band, which is what justifies the linear dynamic response target of
Eqn. (9) and the slope regression PEMA runs at startup.

The 2 apps x 10 workload points are
``benchmarks/grids/fig10_workload_response.json``: static cells pinned at
the band-high bottleneck allocation (x1.15) on a noise-free analytical
engine, so each cell's recorded response is exactly the noiseless scan
the figure plots.
"""

from __future__ import annotations

import numpy as np

from benchmarks._grids import run_figure_grid
from benchmarks._report import emit
from repro.apps import build_app
from repro.core.target import learn_slope
from repro.sweeps import format_table

BANDS = {"trainticket": (150.0, 320.0), "sockshop": (400.0, 1000.0)}


def run_fig10():
    run = run_figure_grid("fig10_workload_response")
    cells = list(run)
    rows = []
    fits = {}
    cursor = 0
    for app_name, (lo, hi) in BANDS.items():
        app = build_app(app_name)
        workloads = np.linspace(lo, hi, 10)
        responses = [
            cells[cursor + k][1].results[0].records[0].response
            for k in range(10)
        ]
        cursor += 10
        slope = learn_slope(workloads, responses)
        # Linearity: r^2 of the linear fit.
        pred = np.polyval(np.polyfit(workloads, responses, 1), workloads)
        ss_res = float(np.sum((np.asarray(responses) - pred) ** 2))
        ss_tot = float(np.sum((responses - np.mean(responses)) ** 2))
        r2 = 1.0 - ss_res / ss_tot
        fits[app_name] = (slope, r2)
        for w, r in zip(workloads, responses):
            rows.append(
                [
                    app_name,
                    round(float(w), 0),
                    round((w - lo) / (hi - lo), 2),
                    round(r / app.slo, 3),
                ]
            )
        rows.append([app_name, "slope", f"{slope * 1e3:.3f} ms/rps", f"r2={r2:.3f}"])
    return rows, fits


def test_fig10_workload_response(benchmark):
    rows, fits = benchmark.pedantic(run_fig10, rounds=1, iterations=1)
    emit(
        "fig10_workload_response",
        format_table(
            ["app", "workload_rps", "norm_workload", "response/SLO"],
            rows,
            title="Fig. 10a — response vs workload at fixed allocation "
            "(paper: approximately linear growth)",
        ),
    )
    for app_name, (slope, r2) in fits.items():
        assert slope > 0.0, f"{app_name}: response must grow with workload"
        assert r2 > 0.90, f"{app_name}: relation should be near-linear (r2={r2})"
