"""Fig. 8 — CPU utilization & throttling vs. allocation for TrainTicket's
seat / basic / ticketinfo.

Paper observations reproduced here:
* utilization changes gradually as the service crosses its bottleneck and
  the bottleneck utilization *differs per service* (~15% seat, ~25%
  ticketinfo);
* CPU throttling time changes rapidly right at the bottleneck resource.
"""

from __future__ import annotations

import numpy as np

from benchmarks._report import emit
from repro.apps import build_app
from repro.sim import AnalyticalEngine
from repro.sweeps import format_table

WORKLOAD = 200.0
PROBES = ("seat", "basic", "ticketinfo")
SWEEP = np.linspace(0.5, 2.0, 13)


def run_fig08():
    app = build_app("trainticket")
    engine = AnalyticalEngine(app)
    generous = app.generous_allocation(WORKLOAD, headroom=2.5)
    bottleneck = engine.bottleneck_allocation(WORKLOAD)
    rows = []
    curves: dict[str, dict[str, list[float]]] = {}
    for probe in PROBES:
        utils, throttles = [], []
        for factor in SWEEP:
            alloc = generous.with_value(probe, bottleneck[probe] * factor)
            m = engine.observe(alloc, WORKLOAD)
            utils.append(m.services[probe].utilization * 100)
            throttles.append(m.services[probe].throttle_seconds)
        curves[probe] = {"util": utils, "throttle": throttles}
        for factor, u, h in zip(SWEEP, utils, throttles):
            rows.append([probe, round(float(factor), 2), round(u, 1), round(h, 2)])
    return rows, curves


def test_fig08_bottleneck_metrics(benchmark):
    rows, curves = benchmark.pedantic(run_fig08, rounds=1, iterations=1)
    emit(
        "fig08_bottleneck_metrics",
        format_table(
            ["service", "alloc/bottleneck", "cpu_util_%", "throttle_s"],
            rows,
            title="Fig. 8 — utilization & throttling vs normalized resource "
            "(paper: bottleneck util ~15% seat / ~25% ticketinfo; throttle "
            "knee at 1.0)",
        ),
    )
    knee = list(SWEEP).index(1.0) if 1.0 in SWEEP else 4
    idx_1 = int(np.argmin(np.abs(SWEEP - 1.0)))
    idx_15 = int(np.argmin(np.abs(SWEEP - 1.5)))
    for probe in PROBES:
        u = curves[probe]["util"]
        h = curves[probe]["throttle"]
        # Utilization rises smoothly as the allocation shrinks.
        assert u[0] > u[-1]
        # Throttling is near zero well above the knee, nonzero at/below it.
        assert h[idx_15] < h[idx_1] < h[0]
        assert h[0] > 0.0
    # Per-service bottleneck utilizations differ and are ordered as in the
    # paper: seat < basic < ticketinfo.
    u_at_b = {p: curves[p]["util"][idx_1] for p in PROBES}
    assert u_at_b["seat"] < u_at_b["basic"] < u_at_b["ticketinfo"]
    assert 10.0 < u_at_b["seat"] < 20.0
    assert 20.0 < u_at_b["ticketinfo"] < 30.0
