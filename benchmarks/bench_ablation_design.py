"""Ablation — the design choices DESIGN.md calls out, measured.

Four variants of PEMA on SockShop @ 700 rps:

* full            — the paper's Algorithm 1 as evaluated;
* no-explore      — Eqn. (8) disabled (A = B = 0): risks settling at
                    sub-optimal allocations (§3.3 "escaping sub-optimum");
* no-filter       — throttle filter + Eqn. (5) guidance disabled (uniform
                    selection): reduces bottlenecked services, more
                    violations;
* no-mov-avg      — K = 1 (Eqns. 10-11 reduced to 3-4): transient dips
                    trigger over-reduction (§3.5);
* static-thresh   — Eqns. (6)-(7) disabled: thresholds stay at the
                    conservative initial values, selection starves.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from benchmarks._report import emit
from repro.core import PEMAConfig
from repro.experiments import (
    AutoscalerSpec,
    ExperimentSpec,
    optimum_total,
    run_experiment,
)
from repro.sweeps import format_table

WORKLOAD = 700.0
ITERS = 60
RUNS = 4

VARIANTS: dict[str, PEMAConfig] = {
    "full": PEMAConfig(),
    "no-explore": PEMAConfig(explore_a=0.0, explore_b=0.0),
    "no-filter": PEMAConfig(use_bottleneck_filter=False),
    "no-mov-avg": PEMAConfig(moving_average_window=1),
    "static-thresh": PEMAConfig(use_dynamic_thresholds=False),
}


def run_ablation():
    opt = optimum_total("sockshop", WORKLOAD)
    out = {}
    for label, config in VARIANTS.items():
        artifact = run_experiment(
            ExperimentSpec(
                app="sockshop",
                workload=WORKLOAD,
                n_steps=ITERS,
                autoscaler=AutoscalerSpec("pema", asdict(config)),
                seed=900,
                repeats=RUNS,
            )
        )
        totals = [result.settled_total() for result in artifact.results]
        viols = [result.violation_rate() * 100 for result in artifact.results]
        out[label] = (
            float(np.mean(totals)) / opt,
            float(np.mean(viols)),
        )
    return out


def test_ablation_design(benchmark):
    out = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rows = [
        [label, round(ratio, 3), round(viol, 1)]
        for label, (ratio, viol) in out.items()
    ]
    emit(
        "ablation_design",
        format_table(
            ["variant", "resource/optimum", "violations_%"],
            rows,
            title="Ablation — PEMA design choices on SockShop @ 700 rps "
            f"({RUNS} seeds x {ITERS} iterations)",
        ),
    )
    full_ratio, full_viol = out["full"]
    # The full design converges near the optimum.
    assert full_ratio < 1.35
    # Frozen thresholds starve the candidate set: the controller stalls at
    # (or near) the generous allocation — dynamic thresholds are load-
    # bearing, exactly why the paper ratchets them (Eqns. 6-7).
    assert out["static-thresh"][0] > full_ratio + 0.3
    # The other variants still converge; the full design stays competitive.
    for label in ("no-explore", "no-filter", "no-mov-avg"):
        assert out[label][0] < 1.5, label
    competitive = min(out[label][0] for label in
                      ("no-explore", "no-filter", "no-mov-avg"))
    assert full_ratio <= competitive + 0.15
