"""Tests for repro.faults — the deterministic fault-injection layer.

The load-bearing property: every disturbance schedule is a pure
function of (spec, step), shared by the scalar hook closures, the
batched sweep runner, and the streamed control plane — so all three
execution modes produce byte-identical unit payloads for any faulted
spec.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import _run_unit_worker
from repro.experiments.spec import ExperimentSpec
from repro.faults import (
    ENGINE_FAULT_KINDS,
    FAULTS,
    STREAM_FAULT_KINDS,
    FaultAction,
    FlashCrowdTrace,
    fault_actions,
    normalize_fault_params,
    reorder_window_for,
    stream_delivery,
    stream_fault_entries,
)
from repro.service import Orchestrator
from repro.sweeps import (
    SweepGrid,
    SweepStore,
    classify_unit,
    grid_summary_json,
    run_grid,
    run_sweep_cached,
    run_units_batched,
)
from repro.workload.generators import ConstantWorkload
from tests.conftest import make_sweep_spec


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def make_spec(hooks=(), **overrides) -> ExperimentSpec:
    data = {
        "name": "faulted",
        "workload": {"kind": "constant", "params": {"rps": 320.0}},
        "n_steps": 6,
        "hooks": list(hooks),
    }
    data.update(overrides)
    return make_sweep_spec(**data)


# -- the shared schedule ---------------------------------------------------------
class TestFaultSchedules:
    def test_service_crash_window(self):
        params = normalize_fault_params(
            "service_crash",
            {"at": 3, "duration": 2, "service": "frontend"},
        )
        assert fault_actions("service_crash", params, 2) == []
        assert fault_actions("service_crash", params, 3) == [
            FaultAction("capacity", "frontend", 0.05)
        ]
        assert fault_actions("service_crash", params, 4) == []
        assert fault_actions("service_crash", params, 5) == [
            FaultAction("capacity", "frontend", 1.0)
        ]
        assert fault_actions("service_crash", params, 6) == []

    def test_calibration_drift_is_pure_function_of_step(self):
        params = normalize_fault_params(
            "calibration_drift",
            {"rate": 0.02, "at": 2, "every": 2, "until": 9},
        )
        # Absolute compound values, reproducible from any step alone.
        for step, expect in ((2, 1.02), (4, 1.02**2), (6, 1.02**3),
                             (8, 1.02**4)):
            actions = fault_actions("calibration_drift", params, step)
            assert actions == [FaultAction("demand", None, expect)]
        for quiet in (0, 1, 3, 5, 7, 9, 10):
            assert fault_actions("calibration_drift", params, quiet) == []

    def test_correlated_surge_hits_every_service(self):
        params = normalize_fault_params(
            "correlated_surge",
            {"services": ["frontend", "carts"], "factor": 1.5,
             "at": 1, "duration": 3},
        )
        assert fault_actions("correlated_surge", params, 1) == [
            FaultAction("demand", "frontend", 1.5),
            FaultAction("demand", "carts", 1.5),
        ]
        assert fault_actions("correlated_surge", params, 2) == []
        assert fault_actions("correlated_surge", params, 4) == [
            FaultAction("demand", "frontend", 1.0),
            FaultAction("demand", "carts", 1.0),
        ]

    def test_normalization_rejects_bad_values(self):
        with pytest.raises(ValueError):
            normalize_fault_params(
                "service_crash",
                {"at": 0, "duration": 0, "service": "frontend"},
            )
        with pytest.raises(ValueError):
            normalize_fault_params("calibration_drift", {"rate": -1.5})
        with pytest.raises(ValueError):
            normalize_fault_params(
                "correlated_surge",
                {"services": [], "factor": 1.5, "at": 0, "duration": 1},
            )
        with pytest.raises(TypeError):  # unknown parameter key
            normalize_fault_params("metric_dropout", {"at": 1, "bogus": 2})
        with pytest.raises(KeyError):
            normalize_fault_params("reboot_the_moon", {"at": 1})

    def test_catalogue_lists_every_kind(self):
        for kind in ENGINE_FAULT_KINDS + STREAM_FAULT_KINDS + ("flash_crowd",):
            assert kind in FAULTS


class TestStreamFaultPlanning:
    def test_entries_and_window(self):
        spec = make_spec(hooks=[
            {"kind": "metric_delay", "params": {"at": 3, "rounds": 2}},
            {"kind": "metric_dropout", "params": {"at": 5}},
            {"kind": "service_crash",
             "params": {"at": 1, "duration": 1, "service": "frontend"}},
        ])
        kinds = [kind for kind, _ in stream_fault_entries(spec)]
        assert kinds == ["metric_delay", "metric_dropout"]
        assert reorder_window_for(spec) == 2
        assert reorder_window_for(make_spec()) == 0

    def test_delivery_composition(self):
        entries = stream_fault_entries(make_spec(hooks=[
            {"kind": "metric_delay", "params": {"at": 4, "rounds": 2}},
            {"kind": "metric_duplicate", "params": {"at": 4}},
            {"kind": "metric_dropout", "params": {"at": 1}},
        ]))
        assert stream_delivery(entries, 0) == (0, 1)
        assert stream_delivery(entries, 1) == (1, 1)
        assert stream_delivery(entries, 4) == (2, 2)


# -- the flash-crowd workload ----------------------------------------------------
class TestFlashCrowd:
    def trace(self, **overrides):
        params = dict(at=100.0, ramp=50.0, factor=3.0, hold=40.0, decay=20.0)
        params.update(overrides)
        return FlashCrowdTrace(ConstantWorkload(rps=100.0), **params)

    def test_envelope_shape(self):
        trace = self.trace()
        assert trace.envelope(0.0) == 1.0
        assert trace.envelope(99.9) == 1.0
        assert trace.envelope(125.0) == pytest.approx(2.0)  # mid-ramp
        assert trace.envelope(150.0) == 3.0  # peak start
        assert trace.envelope(189.9) == 3.0  # still holding
        assert trace.envelope(200.0) == pytest.approx(2.0)  # mid-decay
        assert trace.envelope(210.0) == 1.0  # fully decayed

    def test_rate_batch_bit_identical_to_scalar(self):
        trace = self.trace()
        times = np.linspace(0.0, 260.0, 521)
        batch = trace.rate_batch(times)
        scalar = np.array([trace.rate(float(t)) for t in times])
        assert np.array_equal(batch, scalar)  # bitwise, not approx

    def test_validation(self):
        with pytest.raises(ValueError):
            self.trace(ramp=0.0)
        with pytest.raises(ValueError):
            self.trace(factor=0.0)
        with pytest.raises(ValueError):
            self.trace(at=-1.0)


# -- three-mode byte identity ----------------------------------------------------
FAULT_HOOK_CASES = {
    "service_crash": [{"kind": "service_crash",
                       "params": {"at": 1, "duration": 2,
                                  "service": "frontend"}}],
    "calibration_drift": [{"kind": "calibration_drift",
                           "params": {"rate": 0.03, "at": 1}}],
    "correlated_surge": [{"kind": "correlated_surge",
                          "params": {"services": ["frontend", "carts"],
                                     "factor": 1.7, "at": 1,
                                     "duration": 2}}],
    "stream_mix": [{"kind": "metric_delay", "params": {"at": 2, "rounds": 1}},
                   {"kind": "metric_dropout", "params": {"at": 4}},
                   {"kind": "metric_duplicate", "params": {"at": 0}}],
}


def streamed_payload(spec: ExperimentSpec) -> dict:
    async def run():
        orch = Orchestrator()
        guardian = orch.register(spec)
        await orch.start()
        await orch.drive()
        await orch.shutdown()
        assert guardian.error is None
        assert guardian.complete
        return guardian.result_payload()

    return asyncio.run(run())


class TestThreeModeParity:
    @settings(max_examples=10, deadline=None)
    @given(
        fault=st.sampled_from(sorted(FAULT_HOOK_CASES) + ["flash_crowd"]),
        kind=st.sampled_from(("pema", "rule", "pid", "brownout")),
        seed=st.integers(min_value=0, max_value=25),
    )
    def test_scalar_batched_streamed_bytes_match(self, fault, kind, seed):
        overrides = {"autoscaler": {"kind": kind}, "seed": seed}
        if fault == "flash_crowd":
            overrides["workload"] = {
                "kind": "flash_crowd",
                "params": {"base": {"kind": "constant",
                                    "params": {"rps": 300.0}},
                           "at": 30.0, "ramp": 30.0, "factor": 2.0,
                           "hold": 30.0},
            }
            spec = make_spec(**overrides)
        else:
            spec = make_spec(hooks=FAULT_HOOK_CASES[fault], **overrides)
        key, reason = classify_unit(spec)
        assert key is not None, f"faulted unit fell back: {reason}"
        scalar = dumps(_run_unit_worker(spec.to_dict(), 0))
        batched = dumps(run_units_batched([(spec, 0)])[0].to_payload())
        streamed = dumps(streamed_payload(spec))
        assert scalar == batched
        assert scalar == streamed

    def test_mixed_clean_and_faulted_sweep(self):
        specs = [
            make_spec(name="clean"),
            make_spec(name="crash",
                      hooks=FAULT_HOOK_CASES["service_crash"]),
            make_spec(name="surge",
                      hooks=FAULT_HOOK_CASES["correlated_surge"]),
        ]
        scalar, _ = run_sweep_cached(specs, batch=False)
        batched, report = run_sweep_cached(specs, batch=True)
        assert report.fallbacks == {}
        assert report.scalar_units == 0
        assert dumps([a.to_dict() for a in scalar]) == dumps(
            [a.to_dict() for a in batched]
        )


# -- kill-and-resume over a faulted grid -----------------------------------------
FAULT_GRID = {
    "name": "faulted-mini",
    "base": {
        "app": "sockshop",
        "workload": {"kind": "constant", "params": {"rps": 320.0}},
        "n_steps": 6,
        "seed": 0,
        "repeats": 2,
        "hooks": [{"kind": "service_crash",
                   "params": {"at": 2, "duration": 2,
                              "service": "frontend"}}],
    },
    "axes": [
        {"name": "autoscaler", "values": [
            {"label": "pema"},
            {"label": "pid", "autoscaler": {"kind": "pid", "params": {}}},
        ]},
    ],
}


class TestFaultedSweepResume:
    def test_interrupted_sweep_resumes_to_identical_bytes(self, tmp_path):
        grid_path = tmp_path / "faulted_mini.json"
        grid_path.write_text(json.dumps(FAULT_GRID))
        grid = SweepGrid.read(grid_path)
        cells = grid.cells()
        units = sum(cell.spec.repeats for cell in cells)

        cold_store = SweepStore(tmp_path / "cold")
        cold = grid_summary_json(run_grid(grid, store=cold_store, batch=True))

        # Simulate a killed sweep: only the first cell's units landed.
        resume_store = SweepStore(tmp_path / "resume")
        run_sweep_cached([cells[0].spec], store=resume_store, batch=True)
        resumed = run_grid(grid, store=resume_store, batch=True)
        assert resumed.report.cache_hits == cells[0].spec.repeats
        assert resumed.report.computed == units - cells[0].spec.repeats
        assert grid_summary_json(resumed) == cold

        # The resumed store holds exactly the cold store's bytes.
        cold_bytes = sorted(p.read_bytes() for p in cold_store.entry_paths())
        resumed_bytes = sorted(
            p.read_bytes() for p in resume_store.entry_paths()
        )
        assert cold_bytes == resumed_bytes


# -- shipped robustness grids ----------------------------------------------------
ROBUSTNESS_GRIDS = (
    "benchmarks/grids/robustness_service_crash.json",
    "benchmarks/grids/robustness_calibration_drift.json",
    "benchmarks/grids/robustness_flash_crowd.json",
    "benchmarks/grids/robustness_correlated_surge.json",
    "benchmarks/grids/robustness_smoke.json",
)


class TestShippedRobustnessGrids:
    @pytest.mark.parametrize("path", ROBUSTNESS_GRIDS)
    def test_every_cell_batches(self, path):
        grid = SweepGrid.read(path)
        cells = grid.cells()
        assert cells
        for cell in cells:
            key, reason = classify_unit(cell.spec)
            assert key is not None, f"{cell.spec.name}: {reason}"
