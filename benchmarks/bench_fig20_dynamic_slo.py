"""Fig. 20 — adaptability to SLO changes (SockShop).

Paper: the SLO moves 250 → 200 → 300 ms mid-run; PEMA re-navigates without
retraining — more CPU for the tighter SLO, less for the looser one —
demonstrating dynamic SLO as a performance/cost trade-off knob.

The scenario is ``benchmarks/grids/fig20_dynamic_slo.json``: one spec with
``set_slo`` hooks at the two switch points.
"""

from __future__ import annotations

import numpy as np

from benchmarks._grids import run_figure_grid
from benchmarks._report import emit
from repro.sweeps import format_table

ITERS = 60
SWITCH_1 = 22  # -> 200 ms
SWITCH_2 = 42  # -> 300 ms


def run_fig20():
    run = run_figure_grid("fig20_dynamic_slo")
    return run.artifacts[0].results[0]


def test_fig20_dynamic_slo(benchmark):
    result = benchmark.pedantic(run_fig20, rounds=1, iterations=1)
    rows = [
        [
            it,
            round(result.records[it].slo * 1000),
            round(float(result.total_cpu[it]), 2),
            round(float(result.responses[it] * 1000), 0),
        ]
        for it in range(0, ITERS, 3)
    ]
    emit(
        "fig20_dynamic_slo",
        format_table(
            ["iter", "slo_ms", "total_cpu", "response_ms"],
            rows,
            title="Fig. 20 — SLO changes 250→200→300 ms @ iters "
            f"{SWITCH_1}/{SWITCH_2} (paper: PEMA adapts without retraining)",
        ),
    )
    at_250 = result.total_cpu[SWITCH_1 - 5 : SWITCH_1].mean()
    at_200 = result.total_cpu[SWITCH_2 - 5 : SWITCH_2].mean()
    at_300 = result.total_cpu[-4:].mean()
    assert at_200 > at_250 * 0.98  # tighter SLO cannot need less CPU
    assert at_300 < at_200  # looser SLO releases resources
    tail = result.records[-6:]
    assert sum(r.violated for r in tail) <= 2
