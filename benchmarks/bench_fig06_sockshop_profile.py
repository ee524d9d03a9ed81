"""Fig. 6 — SockShop per-service allocation and utilization, good vs bad.

Paper: total CPU of 7.5 distributed two ways over SockShop's services
(236 ms vs 411 ms latency); utilization alone shows no obvious root
cause — the bad configuration's utilizations stay *below* the frontend's,
so no utilization-threshold policy can pick the culprit (§2.3).
"""

from __future__ import annotations

import numpy as np

from benchmarks._report import emit
from repro.apps import build_app
from repro.baselines import OptimumSearch
from repro.sim import AnalyticalEngine, Allocation
from repro.sweeps import format_table

WORKLOAD = 550.0


def run_fig06():
    app = build_app("sockshop")
    engine = AnalyticalEngine(app)
    good = (
        OptimumSearch(engine, restarts=1, seed=0)
        .find(WORKLOAD)
        .allocation.scale(1.06)
    )
    # A "bad" same-total configuration: randomly shift CPU between
    # services (paper §2.3), drawn so the latency increase lands near the
    # paper's 236 ms -> 411 ms (+74%).
    rng = np.random.default_rng(11)
    best_bad = None
    for _ in range(40):
        values = good.as_array()
        perturbed = values * np.exp(rng.normal(0.0, 0.45, size=values.size))
        perturbed = np.maximum(perturbed, 0.05)
        perturbed *= values.sum() / perturbed.sum()
        cand = Allocation.from_array(good.names, perturbed)
        lat = engine.noiseless_latency(cand, WORKLOAD)
        target = engine.noiseless_latency(good, WORKLOAD) * 1.74
        if best_bad is None or abs(lat - target) < best_bad[0]:
            best_bad = (abs(lat - target), cand)
    bad = best_bad[1]

    lat_good = engine.noiseless_latency(good, WORKLOAD)
    lat_bad = engine.noiseless_latency(bad, WORKLOAD)
    m_good = engine.observe(good, WORKLOAD)
    m_bad = engine.observe(bad, WORKLOAD)

    rows = []
    for name in app.service_names:
        rows.append(
            [
                name,
                round(good[name], 2),
                round(bad[name], 2),
                round(m_good.services[name].utilization * 100, 1),
                round(m_bad.services[name].utilization * 100, 1),
            ]
        )
    return rows, lat_good, lat_bad, good.total()


def test_fig06_sockshop_profile(benchmark):
    rows, lat_good, lat_bad, total = benchmark.pedantic(
        run_fig06, rounds=1, iterations=1
    )
    emit(
        "fig06_sockshop_profile",
        format_table(
            ["service", "good_cpu", "bad_cpu", "good_util_%", "bad_util_%"],
            rows,
            title=(
                f"Fig. 6 — SockShop @ {WORKLOAD:.0f} rps, total CPU "
                f"{total:.2f} (same for both): good latency "
                f"{lat_good * 1000:.0f} ms vs bad {lat_bad * 1000:.0f} ms "
                "(paper: 236 ms vs 411 ms at 7.5 CPU)"
            ),
        ),
    )
    assert lat_bad > lat_good * 1.3  # the bad config hurts substantially
    # §2.3's point: no bad-config service screams "bottleneck" via util --
    # utilizations remain moderate (no service pegged at ~100%).
    bad_utils = [row[4] for row in rows]
    assert max(bad_utils) < 95.0
