"""DES cross-validation — the request-level simulator reproduces the
analytical engine's qualitative signatures from first principles.

Checks on SockShop at a reduced rate (the DES is event-driven Python):

* latency is flat at generous allocations and explodes below the knee;
* CFS throttle time is ~zero when ample and rises sharply when squeezed;
* both engines order allocations identically (generous < squeezed).
"""

from __future__ import annotations

import numpy as np

from benchmarks._report import emit
from repro.apps import build_app
from repro.sim import AnalyticalEngine
from repro.sim.des import DESEngine
from repro.sweeps import format_table

WORKLOAD = 200.0
# The DES realizes its own (burstiness-dependent) knee; sweep deep enough
# to cross it.  Shape agreement is the goal, not point equality.
SCALES = (2.0, 1.0, 0.6, 0.4, 0.25, 0.15)


def run_des_validation():
    app = build_app("sockshop")
    ana = AnalyticalEngine(app, seed=81)
    des = DESEngine(app, sim_seconds=8.0, warmup_seconds=2.0, seed=82)
    knee = ana.bottleneck_allocation(WORKLOAD)
    rows = []
    curves = {"ana": [], "des": [], "des_thr": []}
    for scale in SCALES:
        alloc = knee.scale(scale)
        m_ana = ana.observe(alloc, WORKLOAD)
        m_des = des.observe(alloc, WORKLOAD)
        thr_des = sum(s.throttle_seconds for s in m_des.services.values())
        thr_ana = sum(s.throttle_seconds for s in m_ana.services.values())
        curves["ana"].append(m_ana.latency_p95)
        curves["des"].append(m_des.latency_p95)
        curves["des_thr"].append(thr_des)
        rows.append(
            [
                scale,
                round(m_ana.latency_p95 * 1000, 1),
                round(m_des.latency_p95 * 1000, 1),
                round(thr_ana, 1),
                round(thr_des, 1),
            ]
        )
    return rows, curves


def test_des_validation(benchmark):
    rows, curves = benchmark.pedantic(run_des_validation, rounds=1, iterations=1)
    emit(
        "des_validation",
        format_table(
            ["alloc/knee", "ana_p95_ms", "des_p95_ms", "ana_throttle_s",
             "des_throttle_s"],
            rows,
            title=f"DES vs analytical engine — SockShop @ {WORKLOAD:.0f} rps "
            "(shape agreement, not point equality)",
        ),
    )
    des = curves["des"]
    thr = curves["des_thr"]
    # Latency explodes below the knee (last point far above the first).
    assert des[-1] > des[0] * 1.5
    # Throttle: near-zero when ample, clearly nonzero when squeezed.
    assert thr[0] < thr[-1]
    assert thr[-1] > 1.0
    # Engines agree on ordering of the extremes.
    assert curves["ana"][-1] > curves["ana"][0]
