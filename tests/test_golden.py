"""Golden digests of canonical unit payloads, scalar and batched.

The parity tests compare the scalar control step with the batched one,
so a drift that moves both at once (a shared helper, a metrics
representation, an RNG draw order) passes them.  These digests pin the
bytes themselves: each is the sha256 of a ``json.dumps(payload,
sort_keys=True)`` unit payload, recorded before the interval metrics
became per-service columns.  A change that moves any of them changes
what an existing sweep store or figure report holds.

The cells are ``replay_diurnal``-shaped (the first 300 steps of the
36-hour Wikipedia replay): one workload-aware manager cell per app with
both capture channels, one plain PEMA cell and one RULE cell.  The rest
pin the engine's operating-condition channels, each driven through the
path a sweep drives it: the three engine faults (capacity and demand
scales), a brownout cell whose dimmer moves the service level, a
``set_cpu_speed`` hook, and an ``engine.params.noise`` override.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

import pytest

from repro.experiments import ExperimentSpec
from repro.experiments.runner import _run_unit_worker
from repro.sweeps import run_units_batched


def _spec(
    app: str,
    low: float,
    high: float,
    autoscaler: dict,
    capture: list[str],
    hooks: Sequence[dict] = (),
    engine_params: dict | None = None,
) -> ExperimentSpec:
    source = {"high_rps": high, "low_rps": low, "seed": 42}
    engine = {"kind": "analytical", "seed_offset": 2}
    if engine_params is not None:
        engine["params"] = engine_params
    return ExperimentSpec.from_dict(
        {
            "app": app,
            "autoscaler": autoscaler,
            "capture": capture,
            "engine": engine,
            "hooks": list(hooks),
            "headroom": 2.0,
            "interval": 120.0,
            "n_steps": 300,
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


def _hook(kind: str, **params) -> dict:
    return {"kind": kind, "params": params}


def _manager(low: float, high: float, width: float) -> dict:
    return {
        "kind": "workload_aware_pema",
        "params": {
            "min_range_width": width,
            "slope_samples": 6,
            "split_after": 10,
            "start_rps": high,
            "workload_high": high,
            "workload_low": low,
        },
    }


BOTH = ["manager_state", "decision_trace"]

CASES = {
    "workload_aware_pema/sockshop": (
        _spec("sockshop", 200.0, 1100.0, _manager(200.0, 1100.0, 112.5), BOTH),
        "a6555796bc567a9e0c3e7cd14b9ec98f69cf83d256acf7ad908df41087fda3c1",
    ),
    "workload_aware_pema/trainticket": (
        _spec("trainticket", 80.0, 300.0, _manager(80.0, 300.0, 27.5), BOTH),
        "2b22083566da61ba7e691ebb8d597073804c9543548c8a7a203f1f026d465845",
    ),
    "workload_aware_pema/hotelreservation": (
        _spec(
            "hotelreservation", 150.0, 800.0, _manager(150.0, 800.0, 81.25), BOTH
        ),
        "21bc5420224e3cfbf157e785ded5bd186eac5cc0156906e84fbba1262c5b1b5b",
    ),
    "pema/trainticket": (
        _spec("trainticket", 80.0, 300.0, {"kind": "pema"}, ["decision_trace"]),
        "774730936eb30e4eee9b6103e36f74264bfab0aa82abf8b3dd664e48d3e91c89",
    ),
    "rule/sockshop": (
        _spec("sockshop", 200.0, 1100.0, {"kind": "rule"}, ["decision_trace"]),
        "3b191938cd8bf28459dfae4f9ebd8c516398557912073c74bf45f24f60ceff78",
    ),
    "service_crash/pema": (
        _spec(
            "sockshop", 200.0, 1100.0, {"kind": "pema"}, ["decision_trace"],
            [_hook("service_crash", at=40, duration=25, service="carts")],
        ),
        "0985f1044fb8da24b5f655dd65bdcb697bd2bf566fc8e44665b9dbb28739fd56",
    ),
    "calibration_drift/rule": (
        _spec(
            "trainticket", 80.0, 300.0, {"kind": "rule"}, ["decision_trace"],
            [_hook("calibration_drift", rate=0.01, at=20, every=3, until=200)],
        ),
        "e8d83ce72e5297ec80e68198f7dc5cd04af6640df5d8b6106ea15dc7386b9d68",
    ),
    "correlated_surge/pid": (
        _spec(
            "hotelreservation", 150.0, 800.0, {"kind": "pid"}, ["decision_trace"],
            [
                _hook(
                    "correlated_surge", services=["frontend", "search"],
                    factor=1.8, at=60, duration=40,
                )
            ],
        ),
        "a046b24892def77a4f606e3c74910c3e231ce45c91d6bd06118b3b9030c27a8e",
    ),
    "brownout/sockshop": (
        _spec(
            "sockshop", 200.0, 1100.0,
            {"kind": "brownout", "params": {"margin": 0.4}}, BOTH,
        ),
        "792284379f936f59757267831f9bd2304c0b4620f9f8ba722fcae7acdd62017d",
    ),
    "set_cpu_speed/pema": (
        _spec(
            "hotelreservation", 150.0, 800.0, {"kind": "pema"}, ["decision_trace"],
            [_hook("set_cpu_speed", at=100, speed=0.889)],
        ),
        "505739a7675571bad26afca58f8d1606f200c69d270cb9d61fcc55d2d814234e",
    ),
    "noise/rule": (
        _spec(
            "trainticket", 80.0, 300.0, {"kind": "rule"}, ["decision_trace"],
            engine_params={"noise": {"sigma": 0.05, "anomaly_prob": 0.1}},
        ),
        "2160b42c51d59beecfd75420be04a957b403a28d0735804a6a85f25584bbd71c",
    ),
}


def digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("label", list(CASES))
class TestGoldenPayloads:
    def test_scalar(self, label):
        spec, golden = CASES[label]
        assert digest(_run_unit_worker(spec.to_dict(), 0)) == golden

    def test_batched(self, label):
        spec, golden = CASES[label]
        (unit,) = run_units_batched([(spec, 0)])
        assert digest(unit.to_payload()) == golden
