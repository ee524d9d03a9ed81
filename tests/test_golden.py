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
both capture channels, one plain PEMA cell and one RULE cell.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import ExperimentSpec
from repro.experiments.runner import _run_unit_worker
from repro.sweeps import run_units_batched


def _spec(
    app: str, low: float, high: float, autoscaler: dict, capture: list[str]
) -> ExperimentSpec:
    source = {"high_rps": high, "low_rps": low, "seed": 42}
    return ExperimentSpec.from_dict(
        {
            "app": app,
            "autoscaler": autoscaler,
            "capture": capture,
            "engine": {"kind": "analytical", "seed_offset": 2},
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
        (payload,) = run_units_batched([(spec, 0)])
        assert digest(payload) == golden
