"""Fig. 17 — sensitivity to β (α = 0.5).

Paper: large β (big per-step reductions) overshoots — many violations and
sub-optimal settled resource; small β is gentle and safe.

The 2 apps x 5 β x 3 seeds sweep is
``benchmarks/grids/fig17_beta_sensitivity.json``.
"""

from __future__ import annotations

import numpy as np

from benchmarks._grids import figure_optimum, run_figure_grid
from benchmarks._report import emit
from repro.sweeps import format_table

def run_fig17():
    run = run_figure_grid("fig17_beta_sensitivity")
    # Group the β curve of each (app, workload) point by its grid
    # coordinate (robust to grid-file edits: axis sizes aren't hard-coded).
    groups: dict[str, list] = {}
    for cell, artifact in run:
        groups.setdefault(cell.coords["cell"], []).append((cell, artifact))
    rows = []
    curves: dict[str, dict[str, list[float]]] = {}
    for group in groups.values():
        app_name = group[0][0].spec.app
        wl = group[0][0].spec.workload.params["rps"]
        opt = figure_optimum(app_name, wl)
        res_norm, viols = [], []
        for cell, artifact in group:
            beta = cell.spec.autoscaler.params["beta"]
            totals = [r.settled_total() for r in artifact.results]
            violations = [r.violation_rate() * 100 for r in artifact.results]
            res_norm.append(float(np.mean(totals)) / opt)
            viols.append(float(np.mean(violations)))
            rows.append(
                [app_name, beta, round(res_norm[-1], 2), round(viols[-1], 1)]
            )
        curves[app_name] = {"resource": res_norm, "violations": viols}
    return rows, curves


def test_fig17_beta_sensitivity(benchmark):
    rows, curves = benchmark.pedantic(run_fig17, rounds=1, iterations=1)
    emit(
        "fig17_beta_sensitivity",
        format_table(
            ["app", "beta", "resource/optimum", "slo_violations_%"],
            rows,
            title="Fig. 17 — β sweep at α=0.5 (paper: aggressive β causes "
            "violations and sub-optimal allocations)",
        ),
    )
    for app_name, c in curves.items():
        vio = c["violations"]
        # Violations grow with β (compare the gentle and aggressive ends).
        assert np.mean(vio[3:]) >= np.mean(vio[:2]) - 1.0, app_name
