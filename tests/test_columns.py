"""Columnar interval metrics: every construction gives the same decisions.

:class:`IntervalMetrics` holds per-service signals as columns.  Engines
and the DES build them with ``from_arrays``; the fast-reaction
aggregation passes the columns as lists.  Controllers read the
columns by position and reorder a differently ordered interval once.
Here each controller runs closed-loop for 300 steps next to three twins
fed the same observations re-assembled from the by-name ``services``
view in service order, the same in a permuted order, and as permuted
arrays: allocations and RNG states must match on every step, and the
run must exercise every PEMA action.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.baselines import RuleBasedAutoscaler
from repro.core import PEMAConfig, PEMAController, WorkloadAwarePEMA
from repro.experiments import ExperimentSpec
from repro.experiments.runner import build_unit
from repro.sim import IntervalMetrics, ServiceMetrics

N_STEPS = 300
ACTIONS = {"reduce", "hold", "rollback", "explore"}


def _replay_unit(app: str, low: float, high: float):
    source = {"high_rps": high, "low_rps": low, "seed": 42}
    spec = ExperimentSpec.from_dict(
        {
            "app": app,
            "autoscaler": {"kind": "static"},
            "engine": {"kind": "analytical", "seed_offset": 2},
            "n_steps": N_STEPS,
            "seed": 41,
            "workload": {
                "kind": "replay",
                "params": {
                    "segments": [
                        {
                            "hours": 36,
                            "source": {"kind": "wikipedia", "params": source},
                        }
                    ]
                },
            },
        }
    )
    return build_unit(spec)


def as_dict(metrics: IntervalMetrics, order) -> IntervalMetrics:
    """The interval re-assembled from its by-name view, in ``order``."""
    services = [metrics.services[name] for name in order]
    return IntervalMetrics(
        order,
        metrics.latency_p95,
        metrics.workload_rps,
        [s.utilization for s in services],
        [s.throttle_seconds for s in services],
        [s.usage_cores for s in services],
        [s.usage_p90_cores for s in services],
        latency_mean=metrics.latency_mean,
    )


def as_permuted_arrays(metrics: IntervalMetrics, order) -> IntervalMetrics:
    idx = [metrics.position(name) for name in order]
    return IntervalMetrics.from_arrays(
        order,
        metrics.latency_p95,
        metrics.workload_rps,
        np.asarray(metrics.utilizations)[idx],
        np.asarray(metrics.throttles)[idx],
        np.asarray(metrics.usages)[idx],
        np.asarray(metrics.usages_p90)[idx],
        latency_mean=metrics.latency_mean,
    )


def rng_states(controller) -> list:
    if isinstance(controller, WorkloadAwarePEMA):
        leaves = sorted(controller.tree.leaves, key=lambda r: r.low)
        rngs = [controller.rng] + [leaf.controller.rng for leaf in leaves]
    else:
        rngs = [getattr(controller, "rng", None)]
    return [None if r is None else r.bit_generator.state for r in rngs]


def last_action(controller) -> str | None:
    if isinstance(controller, WorkloadAwarePEMA):
        return controller.last_action()
    result = getattr(controller, "last_result", None)
    return None if result is None else result.action.value


def run_twins(unit, make) -> set[str]:
    """Drive ``make()`` and three twins; returns the lead's actions."""
    names = unit.app.service_names
    permuted = names[len(names) // 2 :][::-1] + names[: len(names) // 2]
    assert sorted(permuted) == sorted(names) and permuted != names
    feeds = [
        lambda m: m,
        lambda m: as_dict(m, names),
        lambda m: as_dict(m, permuted),
        lambda m: as_permuted_arrays(m, permuted),
    ]
    controllers = [make() for _ in feeds]
    actions = set()
    allocation = controllers[0].allocation
    for step in range(N_STEPS):
        rps = unit.trace.rate(step * unit.spec.interval)
        metrics = unit.engine.observe(allocation, rps, unit.spec.interval)
        decided = [c.decide(feed(metrics)) for c, feed in zip(controllers, feeds)]
        assert all(d == decided[0] for d in decided[1:]), f"step {step}"
        states = [rng_states(c) for c in controllers]
        assert all(s == states[0] for s in states[1:]), f"step {step}"
        actions.add(last_action(controllers[0]))
        allocation = decided[0]
    return actions


class TestColumnsMatchDictForm:
    def test_conversion_round_trip(self):
        unit = _replay_unit("sockshop", 200.0, 1100.0)
        names = unit.app.service_names
        metrics = unit.engine.observe(
            unit.engine.app.generous_allocation(600.0, headroom=2.0), 600.0
        )
        assert metrics.names == names
        dict_form = as_dict(metrics, list(names))
        assert dict_form == metrics
        assert dict_form.names == names
        assert dict_form.utilizations == metrics.utilizations
        assert as_dict(metrics, names[::-1]) == metrics
        assert as_dict(metrics, names[::-1]).in_order(names).throttles == (
            metrics.throttles
        )
        assert dict(metrics.services.items()) == {
            name: ServiceMetrics(
                metrics.utilizations[j],
                metrics.throttles[j],
                metrics.usages[j],
                metrics.usages_p90[j],
            )
            for j, name in enumerate(names)
        }

    @pytest.mark.parametrize("bottleneck_filter", [True, False])
    def test_pema_controller(self, bottleneck_filter):
        unit = _replay_unit("trainticket", 80.0, 300.0)
        start = unit.engine.app.generous_allocation(
            unit.trace.rate(0.0), headroom=2.0
        )
        config = PEMAConfig(use_bottleneck_filter=bottleneck_filter)

        def make():
            return PEMAController(
                unit.app.service_names, unit.slo, start, config, seed=41
            )

        assert run_twins(unit, make) >= ACTIONS

    def test_workload_aware_manager(self):
        unit = _replay_unit("hotelreservation", 150.0, 800.0)
        start = unit.engine.app.generous_allocation(800.0, headroom=2.0)

        def make():
            return WorkloadAwarePEMA(
                unit.app.service_names,
                unit.slo,
                start,
                workload_low=150.0,
                workload_high=800.0,
                min_range_width=81.25,
                split_after=10,
                seed=41,
            )

        assert run_twins(unit, make) >= ACTIONS

    @pytest.mark.parametrize("mode", ["utilization", "vpa"])
    def test_rule(self, mode):
        unit = _replay_unit("sockshop", 200.0, 1100.0)
        start = unit.engine.app.generous_allocation(
            unit.trace.rate(0.0), headroom=2.0
        )
        run_twins(unit, lambda: RuleBasedAutoscaler(start, mode=mode))


class TestReorder:
    def test_same_order_is_identity(self):
        m = IntervalMetrics(
            ("a", "b"), 0.1, 10.0, [0.1, 0.2], [0.0, 0.0], [0.1, 0.2], [0.0, 0.0]
        )
        assert m.in_order(("a", "b")) is m
        assert m.in_order(("b", "a")).utilizations == (0.2, 0.1)

    def test_mismatched_services_raise(self):
        m = IntervalMetrics(("a",), 0.1, 10.0, [0.1], [0.0], [0.1], [0.0])
        with pytest.raises(KeyError):
            m.in_order(("a", "b"))
        with pytest.raises(KeyError):
            m.in_order(())
        with pytest.raises(KeyError):
            m.services["b"]
        assert "a" in m.services and "b" not in m.services

    def test_immutable(self):
        m = IntervalMetrics((), 0.1, 10.0, (), (), (), ())
        with pytest.raises(AttributeError):
            m.latency_p95 = 1.0
        assert m.names == () and dict(m.services) == {}

    def test_pickle_round_trip(self):
        m = IntervalMetrics(
            ["a", "b"], 0.1, 10.0, [0.1, 0.2], [0.5, 0.0], [0.1, 0.2], [0.3, 0.4],
            latency_mean=0.05, completed_requests=7,
        )
        m.position("b")  # fills the by-name cache, which is not pickled
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m and copy.names == ("a", "b")
        assert copy.usages_p90 == (0.3, 0.4) and copy.completed_requests == 7
