"""Tests for repro.service — the always-on control plane.

The load-bearing property: a service run driven over a given
(spec, repeat) produces a decision history byte-identical to the
offline experiment runner's unit payload — across apps, seeds,
autoscaler kinds, hooks, and capture channels.
"""

import asyncio
import json
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments.registry import AUTOSCALERS, HOOKS
from repro.experiments.runner import _run_unit_worker
from repro.experiments.spec import ExperimentSpec
from repro.service import (
    LOAD_DRIVERS,
    STATE_STORES,
    ConstantDriver,
    Guardian,
    MemoryBackend,
    MetricSample,
    Orchestrator,
    ReplayDriver,
    ServiceError,
    ServiceStateStore,
    service_session,
    service_state_key,
)
from repro.sweeps import SweepStore, canonical_key, run_sweep_cached
from repro.sweeps.batched import classify_unit, run_units_batched


def make_spec(**overrides) -> ExperimentSpec:
    data = {
        "name": "svc",
        "app": "sockshop",
        "workload": {
            "kind": "sinusoid",
            "params": {"low": 150.0, "high": 650.0, "period": 5000.0},
        },
        "n_steps": 8,
        "seed": 0,
    }
    data.update(overrides)
    return ExperimentSpec.from_dict(data)


def stream_offline_pair(spec: ExperimentSpec, repeat: int = 0):
    """(streamed payload, offline payload) for one unit."""
    offline = _run_unit_worker(spec.to_dict(), repeat)

    async def run():
        orch = Orchestrator()
        guardian = orch.register(spec, repeat=repeat)
        await orch.start()
        await orch.drive()
        await orch.shutdown()
        return guardian.result_payload()

    return asyncio.run(run()), offline


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


class TestStreamedOfflineParity:
    @settings(max_examples=10, deadline=None)
    @given(
        app=st.sampled_from(
            ("sockshop", "hotelreservation", "trainticket")
        ),
        seed=st.integers(min_value=0, max_value=50),
        kind=st.sampled_from(("pema", "rule", "static")),
        repeat=st.integers(min_value=0, max_value=2),
    )
    def test_byte_identical_across_apps_and_seeds(
        self, app, seed, kind, repeat
    ):
        spec = make_spec(
            app=app, seed=seed, autoscaler={"kind": kind}, n_steps=6,
            repeats=3,
        )
        streamed, offline = stream_offline_pair(spec, repeat)
        assert dumps(streamed) == dumps(offline)

    def test_hooks_and_capture_channel(self):
        spec = make_spec(
            n_steps=10,
            autoscaler={"kind": "pema"},
            hooks=(
                {"kind": "set_slo", "params": {"at": 4, "slo": 0.9}},
                {"kind": "set_cpu_speed", "params": {"at": 6, "speed": 0.8}},
            ),
            capture=["manager_state"],
        )
        streamed, offline = stream_offline_pair(spec)
        assert "manager_state" in streamed
        assert dumps(streamed) == dumps(offline)
        # The live SLO hook shows up in the records, as offline.
        assert streamed["records"][5]["slo"] == 0.9

    def test_workload_aware_manager_parity(self):
        spec = make_spec(
            n_steps=8,
            autoscaler={
                "kind": "workload_aware_pema",
                "params": {
                    "start_rps": 400.0,
                    "workload_low": 150.0,
                    "workload_high": 650.0,
                    "min_range_width": 62.5,
                    "split_after": 4,
                },
            },
            capture=["manager_state"],
        )
        streamed, offline = stream_offline_pair(spec)
        assert dumps(streamed) == dumps(offline)

    def test_replay_driver_resumes_mid_schedule(self):
        # Driving in two bursts continues the same trace schedule.
        spec = make_spec(n_steps=9)
        offline = _run_unit_worker(spec.to_dict(), 0)

        async def run():
            orch = Orchestrator()
            guardian = orch.register(spec)
            await orch.start()
            await orch.drive(4)
            await orch.drive()  # the remaining 5
            await orch.shutdown()
            return guardian.result_payload()

        assert dumps(asyncio.run(run())) == dumps(offline)


#: Params for registered autoscalers that cannot be built from defaults
#: alone; any other kind runs with none, so a new registration needing
#: params fails the parity test below until it is listed here.
_REQUIRED_PARAMS = {
    "workload_aware_pema": {
        "workload_low": 150.0,
        "workload_high": 650.0,
        "min_range_width": 62.5,
        "split_after": 3,
    },
}


#: Valid params for every registered hook, each firing inside a 6-step run.
_HOOK_PARAMS = {
    "set_slo": {"at": 2, "slo": 0.15},
    "set_cpu_speed": {"at": 3, "speed": 0.8},
    "service_crash": {"at": 1, "duration": 2, "service": "carts"},
    "calibration_drift": {"rate": 0.1, "at": 1, "service": "orders"},
    "correlated_surge": {
        "services": ["frontend", "orders"], "factor": 1.5, "at": 2,
        "duration": 3,
    },
    "metric_dropout": {"at": 2},
    "metric_duplicate": {"at": 3},
    "metric_delay": {"at": 1, "rounds": 2},
}


class TestRegistryParity:
    """Every registered autoscaler and hook, through every executor, same bytes."""

    @pytest.mark.parametrize("kind", AUTOSCALERS.names())
    def test_offline_streamed_and_batched_agree(self, kind):
        spec = make_spec(
            workload={"kind": "constant", "params": {"rps": 400.0}},
            n_steps=6,
            seed=3,
            autoscaler={
                "kind": kind, "params": _REQUIRED_PARAMS.get(kind, {}),
            },
            hooks=(
                {"kind": "set_cpu_speed", "params": {"at": 3, "speed": 0.8}},
            ),
            capture=["manager_state", "decision_trace"],
        )
        streamed, offline = stream_offline_pair(spec)
        assert dumps(streamed) == dumps(offline)
        key, reason = classify_unit(spec)
        if key is None:
            assert reason and reason.strip() == reason
        else:
            assert reason is None
            (unit,) = run_units_batched([(spec, 0)])
            assert dumps(unit.to_payload()) == dumps(offline)

    @pytest.mark.parametrize("kind", HOOKS.names())
    def test_every_hook_batches_or_names_itself(self, kind):
        # A hook missing from the table raises KeyError: new hooks must
        # be listed here with valid params, never silently skipped.
        spec = make_spec(
            n_steps=6,
            seed=3,
            hooks=({"kind": kind, "params": _HOOK_PARAMS[kind]},),
            capture=["decision_trace"],
        )
        streamed, offline = stream_offline_pair(spec)
        assert dumps(streamed) == dumps(offline)
        key, reason = classify_unit(spec)
        if key is None:
            assert reason == f"hook:{kind}"
        else:
            assert reason is None
            (unit,) = run_units_batched([(spec, 0)])
            assert dumps(unit.to_payload()) == dumps(offline)


class TestGuardian:
    def test_out_of_order_tick_is_an_error(self):
        guardian = Guardian("a", make_spec())
        guardian.tick(MetricSample(app="a", rps=200.0, step=0))
        with pytest.raises(ServiceError, match="expected 1"):
            guardian.tick(MetricSample(app="a", rps=200.0, step=0))

    def test_unstepped_samples_use_next_expected(self):
        guardian = Guardian("a", make_spec())
        guardian.tick(MetricSample(app="a", rps=200.0))
        guardian.tick(MetricSample(app="a", rps=200.0))
        assert guardian.steps_done == 2
        assert not guardian.complete

    def test_state_and_status_shapes(self):
        guardian = Guardian("a", make_spec())
        guardian.tick(MetricSample(app="a", rps=200.0))
        state = guardian.state()
        assert state["step"] == 1
        assert state["total_cpu"] == pytest.approx(
            sum(cpu for _, cpu in state["allocation"])
        )
        status = guardian.status()
        assert status["steps_done"] == 1
        assert status["queue_depth"] == 0
        assert status["rescale"]["applies"] == 1

    @pytest.mark.parametrize("rps", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_load_is_rejected(self, rps):
        guardian = Guardian("a", make_spec())
        guardian.tick(MetricSample(app="a", rps=200.0))
        before = dumps(guardian.result_payload())
        with pytest.raises(ServiceError, match="finite"):
            guardian.tick(MetricSample(app="a", rps=rps))
        assert guardian.steps_done == 1
        assert dumps(guardian.result_payload()) == before
        with pytest.raises(ValueError, match="finite"):
            ConstantDriver(rps)


class TestBackpressure:
    def test_bounded_queue_blocks_producer(self):
        async def run():
            orch = Orchestrator(queue_size=2)
            orch.register(make_spec())  # not started: nothing consumes
            await orch.submit(MetricSample(app="svc", rps=1.0))
            await orch.submit(MetricSample(app="svc", rps=1.0))
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    orch.submit(MetricSample(app="svc", rps=1.0)),
                    timeout=0.05,
                )
            # Once consumers start, the backlog drains and ticks land.
            await orch.start()
            await orch.join()
            assert orch.guardians["svc"].steps_done == 2
            await orch.shutdown()

        asyncio.run(run())

    def test_drive_through_tiny_queue_completes(self):
        spec = make_spec(n_steps=12)
        offline = _run_unit_worker(spec.to_dict(), 0)

        async def run():
            orch = Orchestrator(queue_size=1)
            guardian = orch.register(spec)
            await orch.start()
            await orch.drive()
            await orch.shutdown()
            return guardian.result_payload()

        assert dumps(asyncio.run(run())) == dumps(offline)


class TestGracefulShutdown:
    def test_pending_samples_drain_before_flush(self):
        async def run():
            store = ServiceStateStore(MemoryBackend())
            orch = Orchestrator(store=store)
            guardian = orch.register(make_spec(n_steps=4))
            for step in range(4):
                await guardian.queue.put(
                    MetricSample(app="svc", rps=100.0, step=step)
                )
            await orch.start()  # consumers start with a backlog
            summary = await orch.shutdown()
            return guardian, summary, store

        guardian, summary, store = asyncio.run(run())
        assert guardian.steps_done == 4
        assert summary["svc"]["complete"]
        assert summary["svc"]["unit_entry"]
        assert store.unit_entries == 1

    def test_partial_run_never_lands_under_unit_key(self):
        spec = make_spec(n_steps=10)

        async def run():
            backend = MemoryBackend()
            orch = Orchestrator(store=ServiceStateStore(backend))
            orch.register(spec)
            await orch.start()
            await orch.drive(3)  # 3 of 10 steps
            summary = await orch.shutdown()
            return backend, summary

        backend, summary = asyncio.run(run())
        assert not summary["svc"]["complete"]
        assert not summary["svc"]["unit_entry"]
        assert backend.get_raw(SweepStore.unit_key(spec, 0)) is None
        snap = backend.get_raw(
            service_state_key("svc", spec.to_dict(), 0)
        )
        assert snap["step"] == 3 and not snap["complete"]

    def test_errored_guardian_is_reported_not_fatal(self):
        async def run():
            orch = Orchestrator(store=ServiceStateStore(MemoryBackend()))
            guardian = orch.register(make_spec(n_steps=4))
            await orch.start()
            # An out-of-order tick poisons this guardian...
            await orch.submit(MetricSample(app="svc", rps=100.0, step=2))
            # ...and later samples are dropped instead of wedging it.
            await orch.submit(MetricSample(app="svc", rps=100.0, step=0))
            await orch.join()
            summary = await orch.shutdown()
            return guardian, summary

        guardian, summary = asyncio.run(run())
        assert "expected 0" in guardian.error
        assert summary["svc"]["error"] == guardian.error
        assert not summary["svc"]["unit_entry"]

    def test_shutdown_interrupts_drive(self):
        async def run():
            orch = Orchestrator()
            orch.register(make_spec(n_steps=5000))
            await orch.start()
            task = asyncio.create_task(orch.drive(tick=0.001))
            await asyncio.sleep(0.02)
            orch.request_shutdown()
            submitted = await task
            await orch.shutdown()
            return submitted

        assert 0 < asyncio.run(run()) < 5000


class TestOrchestrator:
    def test_duplicate_and_unknown_apps(self):
        async def run():
            orch = Orchestrator()
            orch.register(make_spec())
            with pytest.raises(ServiceError, match="already registered"):
                orch.register(make_spec())
            with pytest.raises(ServiceError, match="unknown app"):
                await orch.submit(MetricSample(app="nope", rps=1.0))
            with pytest.raises(ServiceError, match="unknown app"):
                orch.state("nope")

        asyncio.run(run())

    def test_unregister_forgets_everything(self):
        async def run():
            orch = Orchestrator()
            orch.register(make_spec())
            await orch.start()
            await orch.drive(2)
            orch.unregister("svc")
            assert orch.status()["apps"] == []
            assert orch.store.decision_count("svc") == 0
            await orch.shutdown()

        asyncio.run(run())

    def test_decisions_query_since_and_limit(self):
        async def run():
            orch = Orchestrator()
            orch.register(make_spec(n_steps=6))
            await orch.start()
            await orch.drive()
            page = orch.decisions("svc", since=2, limit=2)
            assert [d["step"] for d in page["decisions"]] == [2, 3]
            assert page["total"] == 6
            await orch.shutdown()

        asyncio.run(run())

    def test_constant_driver_drive(self):
        async def run():
            orch = Orchestrator()
            guardian = orch.register(make_spec(n_steps=3))
            await orch.start()
            await orch.drive(driver=ConstantDriver(123.0))
            await orch.shutdown()
            return guardian

        guardian = asyncio.run(run())
        assert [r.workload for r in guardian.records] == [123.0] * 3


class TestStateStore:
    def test_snapshot_every_persists_periodically(self):
        backend = MemoryBackend()
        store = ServiceStateStore(backend, snapshot_every=2)

        async def run():
            orch = Orchestrator(store=store)
            orch.register(make_spec(n_steps=6))
            await orch.start()
            await orch.drive()
            await orch.shutdown()

        asyncio.run(run())
        # Steps 2, 4, 6 plus the flush snapshot (overwrites same key).
        assert store.snapshots == 4
        assert backend.stats.writes >= 4

    def test_state_key_is_disjoint_from_unit_key(self):
        spec = make_spec()
        assert canonical_key(
            service_state_key("svc", spec.to_dict(), 0)
        ) != canonical_key(SweepStore.unit_key(spec, 0))

    def test_directory_backend_is_the_sweep_store(self, tmp_path):
        backend = STATE_STORES.build("directory", root=str(tmp_path))
        assert isinstance(backend, SweepStore)

    def test_registries_have_descriptions(self):
        for registry in (LOAD_DRIVERS, STATE_STORES):
            entries = dict(registry.entries())
            assert entries
            for name, description in entries.items():
                assert description and "\n" not in description

    def test_complete_flush_warms_sweep_cache(self, tmp_path):
        spec = make_spec(n_steps=5)
        store = ServiceStateStore(SweepStore(str(tmp_path)))
        with service_session([spec], store=store) as runtime:
            runtime.drive()
        cached = SweepStore(str(tmp_path)).get_result(spec, 0)
        assert dumps(cached.to_payload()) == dumps(
            _run_unit_worker(spec.to_dict(), 0)
        )
        # The flushed entry is the very file an offline sweep writes.
        flushed = SweepStore(str(tmp_path)).path_for(
            SweepStore.unit_key(spec, 0)
        ).read_bytes()
        offline = SweepStore(str(tmp_path / "offline"))
        run_sweep_cached([spec], store=offline)
        assert offline.path_for(
            SweepStore.unit_key(spec, 0)
        ).read_bytes() == flushed


class TestDrivers:
    def test_registry_builds_and_rejects_unknown_params(self):
        assert isinstance(LOAD_DRIVERS.build("replay"), ReplayDriver)
        driver = LOAD_DRIVERS.build("constant", rps=7.0)
        assert driver.rps == 7.0
        with pytest.raises(TypeError):
            LOAD_DRIVERS.build("replay", nope=1)
        with pytest.raises(TypeError):
            LOAD_DRIVERS.build("constant", nope=1)
        with pytest.raises(ValueError):
            ConstantDriver(-1.0)

    def test_replay_rates_match_trace(self):
        guardian = Guardian("a", make_spec(n_steps=4))
        rates = ReplayDriver().rates(guardian, 4)
        trace = guardian.unit.trace
        interval = guardian.spec.interval
        assert list(rates) == [
            trace.rate(step * interval) for step in range(4)
        ]


class TestRuntimeAndHTTP:
    def test_http_endpoints(self):
        spec = make_spec(n_steps=4)
        with service_session([spec], http=True) as runtime:
            runtime.drive()
            base = runtime.url

            def get(path):
                with urllib.request.urlopen(base + path, timeout=10) as r:
                    return json.loads(r.read())

            assert "endpoints" in get("/")
            status = get("/apps")
            assert status["ticks"] == 4
            assert get("/apps/svc")["complete"]
            page = get("/decisions?app=svc&since=3")
            assert [d["step"] for d in page["decisions"]] == [3]
            assert get("/state?app=svc")["step"] == 4

            with pytest.raises(urllib.error.HTTPError) as err:
                get("/state?app=missing")
            assert err.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as err:
                get("/decisions")
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                get("/decisions?app=svc&since=x")
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                get("/nope")
            assert err.value.code == 404

            req = urllib.request.Request(
                base + "/shutdown", method="POST", data=b""
            )
            with urllib.request.urlopen(req, timeout=10) as r:
                assert json.loads(r.read()) == {"shutdown": "requested"}
            assert runtime.wait_shutdown_requested(timeout=5)

    def test_runtime_rejects_calls_before_start(self):
        from repro.service import ServiceRuntime

        runtime = ServiceRuntime()
        with pytest.raises(ServiceError, match="not running"):
            runtime.status()

    def test_session_shuts_down_on_error(self, tmp_path):
        spec = make_spec(n_steps=2)
        store = ServiceStateStore(SweepStore(str(tmp_path)))
        with pytest.raises(RuntimeError, match="boom"):
            with service_session([spec], store=store) as runtime:
                runtime.drive()
                raise RuntimeError("boom")
        # The flush still happened on the way out.
        assert SweepStore(str(tmp_path)).get_result(spec, 0) is not None


class TestServeCLI:
    def write_specs(self, tmp_path: Path, n: int = 2) -> Path:
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        for i in range(n):
            spec = make_spec(name=f"app{i}", seed=i, n_steps=4)
            (spec_dir / f"app{i}.json").write_text(spec.to_json())
        return spec_dir

    def test_serve_streams_and_reports(self, tmp_path, capsys):
        spec_dir = self.write_specs(tmp_path)
        out = tmp_path / "summary.json"
        assert main([
            "serve", "--spec", str(spec_dir), "--port", "0",
            "--state-dir", str(tmp_path / "state"), "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "2 app(s)" in printed
        assert "listening on http://127.0.0.1:" in printed
        assert "streamed 8 tick(s)" in printed
        summary = json.loads(out.read_text())
        assert summary["flush"]["app0"]["unit_entry"]
        assert summary["flush"]["app1"]["unit_entry"]
        rows = {row["app"]: row for row in summary["status"]["apps"]}
        assert rows["app0"]["complete"] and rows["app1"]["complete"]

    def test_serve_no_http_constant_driver(self, tmp_path, capsys):
        spec_dir = self.write_specs(tmp_path, n=1)
        assert main([
            "serve", "--spec", str(spec_dir), "--no-http",
            "--rps", "300", "--steps", "2",
        ]) == 0
        printed = capsys.readouterr().out
        assert "listening" not in printed
        assert "streamed 2 tick(s)" in printed

    def test_serve_bad_inputs(self, tmp_path, capsys):
        spec_dir = self.write_specs(tmp_path, n=1)
        assert main(["serve", "--spec", str(tmp_path / "none")]) == 2
        assert main([
            "serve", "--spec", str(spec_dir), "--driver", "nope",
            "--no-http",
        ]) == 2
        assert main([
            "serve", "--spec", str(spec_dir), "--store", "directory",
            "--no-http",
        ]) == 2
        capsys.readouterr()

    def test_serve_dedups_app_ids(self, tmp_path, capsys):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        for stem in ("a", "b"):
            (spec_dir / f"{stem}.json").write_text(
                make_spec(name="same", n_steps=2).to_json()
            )
        assert main([
            "serve", "--spec", str(spec_dir), "--no-http",
        ]) == 0
        printed = capsys.readouterr().out
        assert "same" in printed and "same-2" in printed
