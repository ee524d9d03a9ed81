"""Fig. 19 — adaptability to CPU clock-speed changes (SockShop).

Paper: the cluster's clock switches 1.8 → 1.6 → 2.0 GHz mid-run (a stand-in
for hardware/software changes that alter resource demand); PEMA re-converges
each time — more CPU at 1.6 GHz, less at 2.0 GHz — while keeping the SLO.

The scenario is ``benchmarks/grids/fig19_cpu_speed.json``: one spec with
``set_cpu_speed`` hooks at the two switch points (speeds relative to the
1.8 GHz nominal clock).
"""

from __future__ import annotations

import numpy as np

from benchmarks._grids import run_figure_grid
from benchmarks._report import emit
from repro.sweeps import format_table

ITERS = 60
SWITCH_1 = 25  # -> 1.6 GHz
SWITCH_2 = 42  # -> 2.0 GHz


def run_fig19():
    run = run_figure_grid("fig19_cpu_speed")
    return run.artifacts[0].results[0]


def test_fig19_cpu_speed(benchmark):
    result = benchmark.pedantic(run_fig19, rounds=1, iterations=1)
    rows = [
        [
            it,
            1.8 if it < SWITCH_1 else (1.6 if it < SWITCH_2 else 2.0),
            round(float(result.total_cpu[it]), 2),
            round(float(result.responses[it] * 1000), 0),
        ]
        for it in range(0, ITERS, 3)
    ]
    emit(
        "fig19_cpu_speed",
        format_table(
            ["iter", "clock_ghz", "total_cpu", "response_ms"],
            rows,
            title="Fig. 19 — clock changes 1.8→1.6→2.0 GHz @ iters "
            f"{SWITCH_1}/{SWITCH_2} (paper: PEMA re-converges each time)",
        ),
    )
    at_18 = result.total_cpu[SWITCH_1 - 5 : SWITCH_1].mean()
    at_16 = result.total_cpu[SWITCH_2 - 5 : SWITCH_2].mean()
    at_20 = result.total_cpu[-4:].mean()
    assert at_16 > at_18  # slower clock needs more CPU
    assert at_20 < at_16  # faster clock releases it again
    # QoS recovered after each switch.
    tail = result.records[-6:]
    assert sum(r.violated for r in tail) <= 2
