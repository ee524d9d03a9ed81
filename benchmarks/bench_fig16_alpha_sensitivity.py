"""Fig. 16 — sensitivity to α (β = 0.3).

Paper: small α is too aggressive — many SLO violations force reverts to
inefficient allocations; large α slows PEMA down prematurely with few
violations but sub-optimal resource.  Both extremes yield worse resource
efficiency than the middle; violations decrease monotonically-ish with α.

The 2 apps x 5 α x 3 seeds sweep is
``benchmarks/grids/fig16_alpha_sensitivity.json``.
"""

from __future__ import annotations

import numpy as np

from benchmarks._grids import figure_optimum, run_figure_grid
from benchmarks._report import emit
from repro.sweeps import format_table

def run_fig16():
    run = run_figure_grid("fig16_alpha_sensitivity")
    # Group the α curve of each (app, workload) point by its grid
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
            alpha = cell.spec.autoscaler.params["alpha"]
            totals = [r.settled_total() for r in artifact.results]
            violations = [r.violation_rate() * 100 for r in artifact.results]
            res_norm.append(float(np.mean(totals)) / opt)
            viols.append(float(np.mean(violations)))
            rows.append(
                [
                    app_name,
                    alpha,
                    round(res_norm[-1], 2),
                    round(viols[-1], 1),
                ]
            )
        curves[app_name] = {"resource": res_norm, "violations": viols}
    return rows, curves


def test_fig16_alpha_sensitivity(benchmark):
    rows, curves = benchmark.pedantic(run_fig16, rounds=1, iterations=1)
    emit(
        "fig16_alpha_sensitivity",
        format_table(
            ["app", "alpha", "resource/optimum", "slo_violations_%"],
            rows,
            title="Fig. 16 — α sweep at β=0.3 (paper: extremes are "
            "sub-optimal; violations fall as α grows)",
        ),
    )
    for app_name, c in curves.items():
        res = c["resource"]
        vio = c["violations"]
        # Aggressive extreme (α=0.1) violates far more than conservative.
        assert vio[0] > vio[-1], app_name
        # The middle does at least as well as the aggressive extreme.
        assert min(res[1:4]) <= res[0] + 0.05, app_name
