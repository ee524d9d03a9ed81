"""Cross-module integration: the paper's headline behaviours end to end."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    AnalyticalEngine,
    ControlLoop,
    PEMAConfig,
    PEMAController,
    WorkloadAwarePEMA,
    build_app,
)
from repro.baselines import OptimumSearch, RuleBasedAutoscaler
from repro.sim.des import DESEngine
from repro.workload import BurstWorkload, ConstantWorkload, NoisyTrace


class TestPEMAConvergence:
    """Fig. 11/12 behaviour: PEMA lands near the optimum, QoS held."""

    def test_sockshop_converges_near_optimum(self):
        app = build_app("sockshop")
        wl = 700.0
        engine = AnalyticalEngine(app, seed=2)
        pema = PEMAController(
            app.service_names, app.slo, app.generous_allocation(wl),
            PEMAConfig.low_exploration(), seed=3,
        )
        result = ControlLoop(engine, pema, ConstantWorkload(wl)).run(70)
        optimum = OptimumSearch(AnalyticalEngine(app), restarts=2).find(wl)
        settled = result.settled_total()
        assert settled < app.generous_allocation(wl).total() * 0.7
        assert settled / optimum.total_cpu < 1.35
        # QoS: the vast majority of intervals satisfy the SLO.
        assert result.violation_rate() < 0.25

    def test_total_cpu_decreases_overall(self):
        app = build_app("hotelreservation")
        wl = 500.0
        engine = AnalyticalEngine(app, seed=4)
        pema = PEMAController(
            app.service_names, app.slo, app.generous_allocation(wl), seed=5
        )
        result = ControlLoop(engine, pema, ConstantWorkload(wl)).run(40)
        assert result.total_cpu[-1] < result.total_cpu[0] * 0.75

    def test_pema_beats_rule(self):
        """Fig. 15 ordering: OPTM <= PEMA < RULE."""
        app = build_app("sockshop")
        wl = 700.0
        pema = PEMAController(
            app.service_names, app.slo, app.generous_allocation(wl), seed=1
        )
        pema_total = (
            ControlLoop(AnalyticalEngine(app, seed=1), pema, ConstantWorkload(wl))
            .run(60)
            .settled_total()
        )
        rule = RuleBasedAutoscaler(app.generous_allocation(wl))
        rule_total = (
            ControlLoop(
                AnalyticalEngine(app, seed=2), rule, ConstantWorkload(wl),
                slo=app.slo,
            )
            .run(25)
            .settled_total()
        )
        optimum = OptimumSearch(AnalyticalEngine(app), restarts=2).find(wl)
        assert optimum.total_cpu <= pema_total * 1.05
        assert pema_total < rule_total

    def test_rule_satisfies_slo(self):
        app = build_app("sockshop")
        wl = 700.0
        rule = RuleBasedAutoscaler(app.generous_allocation(wl))
        result = ControlLoop(
            AnalyticalEngine(app, seed=3), rule, ConstantWorkload(wl), slo=app.slo
        ).run(25)
        assert result.violation_rate() < 0.10


class TestWorkloadAware:
    def test_range_splitting_run(self):
        """Fig. 13 behaviour: ranges split; allocations stay SLO-safe."""
        app = build_app("trainticket")
        manager = WorkloadAwarePEMA(
            app.service_names,
            app.slo,
            app.generous_allocation(300.0),
            workload_low=200.0,
            workload_high=300.0,
            min_range_width=25.0,
            split_after=8,
            slope_samples=5,
            seed=0,
        )
        trace = NoisyTrace(ConstantWorkload(250.0), sigma=0.12, seed=9)
        engine = AnalyticalEngine(app, seed=8)
        result = ControlLoop(engine, manager, trace, slo=app.slo).run(70)
        assert len(manager.tree.splits) >= 1
        assert result.violation_rate() < 0.30
        assert manager.slope is not None and manager.slope >= 0.0

    def test_burst_switching(self):
        """Fig. 18 behaviour: bursts handled by switching ranges."""
        app = build_app("sockshop")
        manager = WorkloadAwarePEMA(
            app.service_names,
            app.slo,
            app.generous_allocation(800.0),
            workload_low=300.0,
            workload_high=800.0,
            min_range_width=125.0,
            split_after=5,
            slope_samples=4,
            seed=1,
        )
        trace = BurstWorkload(
            400.0, [(120.0 * 30, 120.0 * 5, 750.0), (120.0 * 45, 120.0 * 5, 650.0)]
        )
        engine = AnalyticalEngine(app, seed=2)
        result = ControlLoop(engine, manager, trace, slo=app.slo).run(55)
        switches = [s for s in manager.history if s.phase == "switch"]
        assert len(switches) >= 2  # entered and left the burst ranges
        assert result.violation_rate() < 0.35


class TestAdaptability:
    def test_cpu_speed_change_recovers(self):
        """Fig. 19: a clock-speed drop forces re-convergence upward."""
        app = build_app("sockshop")
        wl = 700.0
        engine = AnalyticalEngine(app, seed=6)
        pema = PEMAController(
            app.service_names, app.slo, app.generous_allocation(wl), seed=7
        )
        loop = ControlLoop(engine, pema, ConstantWorkload(wl))

        def change_speed(step, lp):
            if step == 25:
                lp.environment.set_cpu_speed(0.8)

        result = loop.run(50, on_step=change_speed)
        before = result.total_cpu[20:25].mean()
        after = result.total_cpu[-5:].mean()
        assert after > before  # slower clock needs more CPU
        # Recovers: the tail of the run mostly satisfies the SLO.
        tail_violations = sum(r.violated for r in result.records[-10:])
        assert tail_violations <= 3

    def test_dynamic_slo_change(self):
        """Fig. 20: tightening the SLO grows CPU, loosening shrinks it."""
        app = build_app("sockshop")
        wl = 700.0
        engine = AnalyticalEngine(app, seed=9)
        pema = PEMAController(
            app.service_names, app.slo, app.generous_allocation(wl), seed=10
        )
        loop = ControlLoop(engine, pema, ConstantWorkload(wl))

        def change_slo(step, lp):
            if step == 20:
                lp.autoscaler.set_slo(0.200)
            elif step == 35:
                lp.autoscaler.set_slo(0.300)

        result = loop.run(50, on_step=change_slo)
        at_250 = result.total_cpu[15:20].mean()
        at_200 = result.total_cpu[30:35].mean()
        at_300 = result.total_cpu[-3:].mean()
        assert at_200 > at_250 * 0.95  # tighter SLO cannot need less CPU
        assert at_300 < at_200


class TestDESIntegration:
    def test_pema_runs_against_des(self, tiny_app):
        """The controller works unchanged against the request-level engine."""
        engine = DESEngine(tiny_app, sim_seconds=3.0, warmup_seconds=1.0, seed=3)
        pema = PEMAController(
            tiny_app.service_names,
            tiny_app.slo,
            tiny_app.generous_allocation(120.0),
            PEMAConfig(explore_a=0.0, explore_b=0.0),
            seed=4,
        )
        result = ControlLoop(engine, pema, ConstantWorkload(120.0)).run(12)
        assert result.total_cpu[-1] <= result.total_cpu[0]
        assert result.violation_rate() <= 0.5

    def test_des_and_analytical_agree_on_ordering(self, tiny_app):
        """Both engines rank a squeezed allocation worse than a generous one.

        The squeeze must be deep enough to actually induce CFS throttling
        in the DES (0.12x does; milder scales leave every quota slack and
        the latency gap is seed noise).
        """
        generous = tiny_app.generous_allocation(150.0)
        squeezed = generous.scale(0.12)
        ana = AnalyticalEngine(tiny_app, seed=1)
        des = DESEngine(tiny_app, sim_seconds=4.0, warmup_seconds=1.0, seed=1)
        ana_gap = ana.observe(squeezed, 150.0).latency_p95 - ana.observe(
            generous, 150.0
        ).latency_p95
        des_gap = des.observe(squeezed, 150.0).latency_p95 - des.observe(
            generous, 150.0
        ).latency_p95
        assert ana_gap > 0
        assert des_gap > 0


SRC = Path(__file__).parents[1] / "src"


def test_import_loads_no_removed_side_channels():
    # A fresh interpreter: this test process may have imported anything.
    code = (
        "import sys, repro; "
        "print(sorted(m for m in ('networkx', 'repro.cluster', "
        "'repro.metrics.collector', 'repro.bench') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "[]"
