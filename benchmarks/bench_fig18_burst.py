"""Fig. 18 — bursty workload handling on SockShop.

Paper: with all workload ranges already traversed, two 10-minute bursts
(400 → ~750 rps and 400 → ~650 rps) are absorbed by switching to the burst
range's stored allocation within one control interval; response stays
below the SLO.

The whole scenario is ``benchmarks/grids/fig18_burst.json``: one
145-interval cell whose phased workload trains the workload-aware manager
on a noisy sinusoid over the full band (120 intervals) and then replays
the Fig. 18 burst trace (25 intervals, clock restarted) — the same
manager and engine state carried through both phases, exactly as the two
back-to-back control loops ran it before the port.
"""

from __future__ import annotations

from benchmarks._grids import run_figure_grid
from benchmarks._report import emit
from repro.sweeps import format_table

TRAIN_STEPS = 120
BURST_STEPS = 25  # 50 minutes at 2-minute intervals
_BURST_START = TRAIN_STEPS * 120.0


def run_fig18():
    run = run_figure_grid("fig18_burst")
    result = run.artifacts[0].results[0]
    return result.records[TRAIN_STEPS:]


def test_fig18_burst(benchmark):
    records = benchmark.pedantic(run_fig18, rounds=1, iterations=1)
    assert len(records) == BURST_STEPS
    rows = [
        [
            int((record.time - _BURST_START) / 60),
            round(float(record.workload), 0),
            round(float(record.total_cpu), 2),
            round(float(record.response * 1000), 0),
            "*" if record.violated else "",
        ]
        for record in records
    ]
    emit(
        "fig18_burst",
        format_table(
            ["minute", "workload_rps", "total_cpu", "response_ms", "viol"],
            rows,
            title="Fig. 18 — SockShop bursts 400→750 and 400→650 rps "
            "(SLO 250 ms; paper: CPU switches with the burst, QoS held)",
        ),
    )
    total_cpu = [record.total_cpu for record in records]
    base = sum(total_cpu[5:9]) / 4  # steady 400-rps allocation
    burst1 = sum(total_cpu[11:15]) / 4  # inside the 750-rps burst
    assert burst1 > base * 1.05  # CPU rises for the burst
    after = sum(total_cpu[-3:]) / 3
    assert after < burst1  # and comes back down
    violation_rate = sum(r.violated for r in records) / len(records)
    assert violation_rate <= 0.2
