"""Extension — §6's proposed fast violation mitigation, quantified.

The paper: "PEMA can be improved by implementing higher resolution
performance monitoring (e.g., within 10 seconds), catching the SLO
violations early, and rolling back configuration to mitigate it."

We run an intentionally aggressive PEMA (α=0.15, β=0.7 — the regime where
violations happen) with and without the 10-second fast monitor and compare
*violation exposure*: the fraction of wall-clock time the application
spends above the SLO.  Also: does the severity-aware rollback (second §6
item) reduce repeat violations?
"""

from __future__ import annotations

import numpy as np

from benchmarks._report import emit
from repro.apps import build_app
from repro.core import (
    ControlLoop,
    FastReactionLoop,
    PEMAConfig,
    PEMAController,
)
from repro.sim import AnalyticalEngine
from repro.sweeps import format_table
from repro.workload import ConstantWorkload

WORKLOAD = 700.0
ITERS = 50
RUNS = 4
AGGRESSIVE = dict(alpha=0.15, beta=0.7, explore_a=0.0, explore_b=0.0)


def _make(app, seed, **config_kw):
    config = PEMAConfig(**{**AGGRESSIVE, **config_kw})
    engine = AnalyticalEngine(app, seed=seed)
    controller = PEMAController(
        app.service_names, app.slo, app.generous_allocation(WORKLOAD),
        config, seed=seed + 1,
    )
    return engine, controller


def run_ext_fast_rollback():
    app = build_app("sockshop")
    out = {}
    # Plain loop: a violating interval is exposed for the whole interval.
    exposures, intervals = [], []
    for r in range(RUNS):
        engine, controller = _make(app, 100 + r)
        result = ControlLoop(
            engine, controller, ConstantWorkload(WORKLOAD)
        ).run(ITERS)
        exposures.append(result.violation_rate())
        intervals.append(result.violation_count())
    out["plain"] = (float(np.mean(exposures)), float(np.mean(intervals)))

    # Fast monitor: 10-second sub-intervals, mid-interval rollback.
    exposures, intervals = [], []
    for r in range(RUNS):
        engine, controller = _make(app, 100 + r)
        loop = FastReactionLoop(
            engine, controller, ConstantWorkload(WORKLOAD), monitor_splits=12
        )
        result = loop.run(ITERS)
        exposures.append(result.violation_exposure())
        intervals.append(result.violation_count())
    out["fast-10s"] = (float(np.mean(exposures)), float(np.mean(intervals)))

    # Fast monitor + severity-aware rollback.
    exposures, intervals = [], []
    for r in range(RUNS):
        engine, controller = _make(
            app, 100 + r, rollback_severity_gain=2.0
        )
        loop = FastReactionLoop(
            engine, controller, ConstantWorkload(WORKLOAD), monitor_splits=12
        )
        result = loop.run(ITERS)
        exposures.append(result.violation_exposure())
        intervals.append(result.violation_count())
    out["fast+severity"] = (
        float(np.mean(exposures)),
        float(np.mean(intervals)),
    )
    return out


def test_ext_fast_rollback(benchmark):
    out = benchmark.pedantic(run_ext_fast_rollback, rounds=1, iterations=1)
    rows = [
        [label, f"{exposure * 100:.1f}%", round(intervals, 1)]
        for label, (exposure, intervals) in out.items()
    ]
    emit(
        "ext_fast_rollback",
        format_table(
            ["variant", "violation_exposure", "violating_intervals"],
            rows,
            title="Extension (§6) — fast mitigation on an aggressive PEMA "
            f"(α=0.15, β=0.7), SockShop @ {WORKLOAD:.0f} rps, "
            f"{RUNS} seeds x {ITERS} intervals",
        ),
    )
    plain_exposure = out["plain"][0]
    fast_exposure = out["fast-10s"][0]
    # Catching violations within ~10s cuts wall-clock exposure sharply.
    assert fast_exposure < plain_exposure * 0.6
    assert out["fast+severity"][0] <= plain_exposure
