"""Extension — cost minimization objective (paper §3's C(x_i) remark).

Prices are heterogeneous across node pools in practice; we price
SockShop's Java/NodeJS services (running on licensed / on-demand pools) at
4x the Go services and compare cost-blind PEMA against cost-aware PEMA
(Eqn. 5 probabilities tilted toward expensive services).  Both satisfy the
same SLO; the cost-aware variant should end with a lower bill for a
similar CPU total.
"""

from __future__ import annotations

import numpy as np

from benchmarks._report import emit
from repro.apps import build_app
from repro.core import ControlLoop, CostModel, PEMAConfig, PEMAController
from repro.sim import AnalyticalEngine
from repro.sweeps import format_table
from repro.workload import ConstantWorkload

WORKLOAD = 700.0
ITERS = 60
RUNS = 4
EXPENSIVE_LANGS = ("java", "nodejs", "mysql")


def _price_model(app) -> CostModel:
    return CostModel(
        {
            svc.name: (4.0 if svc.language in EXPENSIVE_LANGS else 1.0)
            for svc in app.services
        }
    )


def run_ext_cost():
    app = build_app("sockshop")
    model = _price_model(app)
    out = {}
    for label, cm in (("cost-blind", None), ("cost-aware", model)):
        bills, cpus, viols = [], [], []
        for r in range(RUNS):
            engine = AnalyticalEngine(app, seed=300 + r)
            controller = PEMAController(
                app.service_names,
                app.slo,
                app.generous_allocation(WORKLOAD),
                PEMAConfig(),
                seed=301 + r,
                cost_model=cm,
            )
            result = ControlLoop(
                engine, controller, ConstantWorkload(WORKLOAD)
            ).run(ITERS)
            ok = [rec.allocation for rec in result.records if not rec.violated]
            best = min(ok, key=model.cost)
            bills.append(model.cost(best))
            cpus.append(best.total())
            viols.append(result.violation_rate() * 100)
        out[label] = (
            float(np.mean(bills)),
            float(np.mean(cpus)),
            float(np.mean(viols)),
        )
    return out


def test_ext_cost_objective(benchmark):
    out = benchmark.pedantic(run_ext_cost, rounds=1, iterations=1)
    rows = [
        [label, round(bill, 2), round(cpu, 2), round(viol, 1)]
        for label, (bill, cpu, viol) in out.items()
    ]
    emit(
        "ext_cost_objective",
        format_table(
            ["variant", "best_cost", "cpu_at_best_cost", "violations_%"],
            rows,
            title="Extension (§3) — cost objective on SockShop @ "
            f"{WORKLOAD:.0f} rps (Java/NodeJS/MySQL priced 4x Go), "
            f"{RUNS} seeds x {ITERS} intervals",
        ),
    )
    blind_bill = out["cost-blind"][0]
    aware_bill = out["cost-aware"][0]
    # Cost-aware navigation finds cheaper SLO-satisfying configurations.
    assert aware_bill <= blind_bill * 1.02
    # Both remain QoS-sound.
    for label, (_, _, viol) in out.items():
        assert viol < 25.0, label
