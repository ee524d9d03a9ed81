"""Tests for repro.obs — the unified telemetry subsystem.

The load-bearing property: the ``decision_trace`` capture channel is
*deterministic* — scalar, batched, and streamed-service executions of
the same (spec, repeat) produce byte-identical (canonical JSON) traces,
and the bytes survive a sweep-store round trip.  Everything else here
covers the metrics instruments, the Prometheus render, the runtime
tracer, and the CLI/HTTP surfaces built on top.
"""

import asyncio
import json
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments import (
    optimum_cache_info,
    optimum_total,
    reset_optimum_cache_info,
)
from repro.experiments.runner import _run_unit_worker, run_unit
from repro.experiments.spec import ExperimentSpec
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    decision_record,
    default_registry,
    pema_decision_info,
)
from repro.obs.trace import read_jsonl
from repro.service import Orchestrator, service_session
from repro.sweeps import SweepStore, run_sweep_cached
from repro.sweeps.batched import run_units_batched


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def make_spec(**overrides) -> ExperimentSpec:
    data = {
        "name": "obs",
        "app": "sockshop",
        "workload": {
            "kind": "sinusoid",
            "params": {"low": 200.0, "high": 700.0, "period": 4000.0},
        },
        "n_steps": 6,
        "seed": 0,
        "capture": ["decision_trace"],
    }
    data.update(overrides)
    return ExperimentSpec.from_dict(data)


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("c_total")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labels_create_series(self):
        c = Counter("c_total", labelnames=("reason",))
        c.inc(reason="des")
        c.inc(3, reason="hook")
        assert c.value(reason="des") == 1.0
        assert c.value(reason="hook") == 3.0
        assert c.value(reason="never") == 0.0

    def test_wrong_labels_rejected(self):
        c = Counter("c_total", labelnames=("reason",))
        with pytest.raises(ValueError):
            c.inc(app="x")
        with pytest.raises(ValueError):
            c.inc()

    def test_negative_inc_rejected(self):
        c = Counter("c_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("0bad")
        with pytest.raises(ValueError):
            Counter("ok", labelnames=("bad-label",))


class TestGauge:
    def test_set_inc_and_none_before_set(self):
        g = Gauge("g")
        assert g.value() is None
        g.set(4.0)
        g.inc(-1.5)
        assert g.value() == 2.5

    def test_set_max_is_a_ratchet(self):
        g = Gauge("g")
        g.set_max(3)
        g.set_max(1)
        assert g.value() == 3.0
        g.set_max(7)
        assert g.value() == 7.0

    def test_remove_forgets_one_series(self):
        g = Gauge("g", labelnames=("app",))
        g.set(1.0, app="a")
        g.set(2.0, app="b")
        g.remove(app="a")
        assert g.value(app="a") is None
        assert g.value(app="b") == 2.0


class TestHistogram:
    def test_observe_count_sum(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(105.0)

    def test_bucket_bounds_are_inclusive(self):
        # Prometheus `le` semantics: a value equal to a bound lands in
        # that bound's bucket.
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.to_dict()["buckets"][0] == [1.0, 1]

    def test_quantiles(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        assert h.quantile(0.5) is None
        for _ in range(100):
            h.observe(1.5)
        q = h.quantile(0.5)
        assert 1.0 <= q <= 2.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_saturates_at_last_bound(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(50.0)
        assert h.quantile(0.99) == 1.0

    def test_to_dict_cumulative(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        for v in (0.5, 0.6, 1.5, 9.0):
            h.observe(v)
        d = h.to_dict()
        assert d["count"] == 4
        assert d["buckets"] == [[1.0, 2], [2.0, 3], ["+Inf", 4]]

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))


class TestRegistry:
    def test_registration_is_get_or_create(self):
        r = MetricsRegistry()
        a = r.counter("x_total")
        b = r.counter("x_total")
        assert a is b
        assert "x_total" in r
        assert r.get("x_total") is a

    def test_type_conflict_rejected(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError):
            r.gauge("x")

    def test_reset_keeps_registrations(self):
        r = MetricsRegistry()
        c = r.counter("x_total")
        c.inc(5)
        r.reset()
        assert c.value() == 0.0
        assert "x_total" in r

    def test_collector_runs_on_render(self):
        r = MetricsRegistry()
        r.add_collector(lambda: r.gauge("lazy").set(42.0))
        text = r.render()
        assert "lazy 42" in text
        assert "lazy" in r

    def test_render_prometheus_text(self):
        r = MetricsRegistry()
        r.counter("req_total", help="requests").inc(3)
        r.gauge("depth", labelnames=("app",)).set(2.0, app='a"b')
        h = r.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = r.render()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert "req_total 3" in text
        assert 'depth{app="a\\"b"} 2' in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_sum 0.55" in text
        assert "lat_count 2" in text
        assert text.endswith("\n")

    def test_unsampled_instruments_still_render_headers(self):
        r = MetricsRegistry()
        r.counter("quiet_total")
        text = r.render()
        assert "# TYPE quiet_total counter" in text
        assert "quiet_total 0" in text


# ---------------------------------------------------------------------------
# Runtime tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_and_events(self):
        clock = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(clock)))
        with tracer.span("outer", grid="g"):
            tracer.event("mark", step=1)
            with tracer.span("inner"):
                pass
        types = [(r["type"], r["name"]) for r in tracer.records]
        # Spans land at close: event first, then inner, then outer.
        assert types == [
            ("event", "mark"), ("span", "inner"), ("span", "outer"),
        ]
        inner = tracer.records[1]
        outer = tracer.records[2]
        assert inner["parent"] == "outer" and inner["depth"] == 1
        assert outer["parent"] is None and outer["depth"] == 0
        assert outer["data"] == {"grid": "g"}
        assert tracer.records[0]["parent"] == "outer"
        # Injected clock: construction=0, starts/closes tick one by one.
        assert outer["t"] == 1.0 and outer["dur"] == 4.0
        assert inner["t"] == 3.0 and inner["dur"] == 1.0
        assert tracer.current_span is None

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            tracer.event("e", k=1)
        path = tracer.write(tmp_path / "t.jsonl")
        records = read_jsonl(path)
        assert records == tracer.records

    def test_read_jsonl_tolerates_truncation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "event", "name": "a"}\n\n{"type": "ev')
        records = read_jsonl(path)
        assert [r["name"] for r in records] == ["a"]


# ---------------------------------------------------------------------------
# Decision records and the decision_trace channel
# ---------------------------------------------------------------------------


class TestDecisionRecords:
    def test_decision_record_coerces_to_json_types(self):
        import numpy as np

        rec = decision_record(
            step=np.int64(3),
            workload=np.float64(1.5),
            response=2.0,
            slo=3.0,
            violated=np.bool_(True),
            total_cpu=4.0,
            next_total_cpu=5.0,
            decision=None,
        )
        json.dumps(rec)  # must not raise on numpy leftovers
        assert rec["step"] == 3 and rec["violated"] is True

    def test_pema_decision_info_shape(self):
        info = pema_decision_info(
            action="reduce",
            targets=("a", "b"),
            n_targets=2,
            delta=0.1,
            signal=0.5,
            p_explore=0.1,
            probabilities=[("a", 1.0), ("b", 0.25)],
        )
        assert info["kind"] == "pema"
        assert info["targets"] == ["a", "b"]
        assert info["probabilities"] == [["a", 1.0], ["b", 0.25]]

    def test_capture_off_keeps_payload_key_free(self):
        payload = _run_unit_worker(make_spec(capture=[]).to_dict(), 0)
        assert "decision_trace" not in payload


def streamed_payload(spec: ExperimentSpec, repeat: int = 0) -> dict:
    async def run():
        orch = Orchestrator()
        guardian = orch.register(spec, repeat=repeat)
        await orch.start()
        await orch.drive()
        await orch.shutdown()
        return guardian.result_payload()

    return asyncio.run(run())


class TestDecisionTraceDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=3),
        repeat=st.integers(min_value=0, max_value=1),
        workload=st.sampled_from(
            [
                {"kind": "constant", "params": {"rps": 500.0}},
                {
                    "kind": "sinusoid",
                    "params": {
                        "low": 150.0, "high": 650.0, "period": 5000.0,
                    },
                },
            ]
        ),
    )
    def test_scalar_batched_service_byte_identical(
        self, seed, repeat, workload
    ):
        """The property the whole channel is built on: one trace, three
        execution strategies, identical bytes."""
        spec = make_spec(seed=seed, workload=workload, repeats=2)
        scalar = _run_unit_worker(spec.to_dict(), repeat)
        batched = run_units_batched([(spec, repeat)])[0].to_payload()
        streamed = streamed_payload(spec, repeat)
        assert dumps(batched) == dumps(scalar)
        assert dumps(streamed) == dumps(scalar)
        trace = scalar["decision_trace"]
        assert len(trace) == spec.n_steps
        assert all(r["decision"]["kind"] == "pema" for r in trace)

    def test_trace_survives_store_round_trip(self, tmp_path):
        """Kill-and-resume: a warm re-run serves the cold run's bytes."""
        specs = [make_spec(seed=s) for s in (0, 1)]
        store = SweepStore(tmp_path / "cache")
        cold, cold_report = run_sweep_cached(specs, store=store)
        # Simulate the post-kill restart: a fresh scheduler over the
        # same store must hit the cache for every unit.
        warm, warm_report = run_sweep_cached(specs, store=store)
        assert cold_report.computed == 2 and warm_report.cache_hits == 2
        for before, after in zip(cold, warm):
            assert dumps(before.decision_traces) == dumps(
                after.decision_traces
            )
        # And the cached bytes equal a direct scalar run's trace.
        direct = _run_unit_worker(specs[0].to_dict(), 0)
        assert dumps(warm[0].decision_trace(0)) == dumps(
            direct["decision_trace"]
        )


# ---------------------------------------------------------------------------
# Metrics integration surfaces
# ---------------------------------------------------------------------------


class TestOptimumCacheReset:
    def test_reset_keeps_solutions_zeroes_counters(self):
        optimum_total("sockshop", 400.0)
        optimum_total("sockshop", 400.0)  # second call hits the cache
        info = optimum_cache_info()
        assert info["size"] >= 1
        assert info["hits"] + info["misses"] >= 2
        reset_optimum_cache_info()
        after = optimum_cache_info()
        assert after["hits"] == after["misses"] == after["solved"] == 0
        assert after["size"] == info["size"]  # solutions survive

    def test_collector_mirrors_info_into_gauges(self):
        registry = default_registry()
        registry.render()  # collectors run, gauges get registered
        assert "repro_optimum_cache_size" in registry
        gauge = registry.get("repro_optimum_cache_size")
        assert gauge.value() == float(optimum_cache_info()["size"])


class TestMetricsEndpoint:
    def test_metrics_scrape_is_prometheus_text(self):
        # A unique app name: the guardian instruments label by app_id,
        # and the process-global registry accumulates across tests.
        spec = make_spec(n_steps=4, name="obs-scrape")
        with service_session([spec], http=True) as runtime:
            runtime.drive()
            req = urllib.request.urlopen(
                runtime.url + "/metrics", timeout=10
            )
            with req as response:
                text = response.read().decode("utf-8")
                content_type = response.headers.get("Content-Type", "")
        assert "version=0.0.4" in content_type
        assert "# TYPE repro_guardian_tick_seconds histogram" in text
        assert 'repro_guardian_tick_seconds_count{app="obs-scrape"} 4' in text
        assert "# TYPE repro_guardian_queue_depth_peak gauge" in text
        assert "# TYPE repro_rescaler_applies_total counter" in text
        # Every registered family renders a TYPE header on the scrape.
        for name in default_registry().names():
            assert f"# TYPE {name} " in text

    def test_guardian_status_reports_tick_latency(self):
        spec = make_spec(n_steps=4)
        with service_session([spec]) as runtime:
            runtime.drive()
            rows = runtime.status()["apps"]
        assert rows[0]["tick_p50_ms"] is not None
        assert rows[0]["tick_p95_ms"] >= 0.0
        assert rows[0]["queue_peak"] >= 1


GRID = {
    "name": "obs-grid",
    "base": {
        "app": "sockshop",
        "workload": {"kind": "constant", "params": {"rps": 400.0}},
        "n_steps": 4,
    },
    "axes": [{"name": "seed", "path": "seed", "values": [0, 1]}],
}


class TestSweepSurfaces:
    def test_metrics_out_and_profile_flags(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(GRID))
        prom = tmp_path / "metrics.prom"
        rc = main([
            "sweep", "--grid", str(grid_path), "--batch",
            "--metrics-out", str(prom), "--profile",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile: plan=" in out
        assert "worker time:" in out
        text = prom.read_text()
        assert "# TYPE repro_sweep_cell_seconds histogram" in text
        assert "# TYPE repro_sweep_chunk_seconds histogram" in text

    def test_report_carries_profile(self):
        specs = [make_spec(capture=[], seed=s) for s in (0, 1)]
        _, report = run_sweep_cached(specs, batch=True)
        phases = report.profile["phases"]
        assert set(phases) >= {
            "plan", "load", "run", "persist", "aggregate",
        }
        assert all(v >= 0.0 for v in phases.values())
        assert report.profile["cell_seconds"]["count"] == 2
        assert report.profile["batched_seconds"] >= 0.0
        assert report.to_dict()["profile"] == report.profile

    def test_progress_reports_fallbacks_as_they_accrue(self):
        scalar_only = make_spec(
            capture=[], engine={"kind": "des"}, n_steps=3
        )
        snapshots = []
        _, report = run_sweep_cached(
            [scalar_only, make_spec(capture=[], n_steps=3)],
            batch=True,
            on_progress=snapshots.append,
        )
        assert report.fallbacks == {"engine:des": 1}
        assert snapshots[-1].fallbacks == {"engine:des": 1}


# ---------------------------------------------------------------------------
# The trace CLI
# ---------------------------------------------------------------------------


class TestTraceCLI:
    @pytest.fixture()
    def payload_file(self, tmp_path):
        spec = make_spec(n_steps=6)
        payload = _run_unit_worker(spec.to_dict(), 0)
        path = tmp_path / "unit.json"
        path.write_text(dumps(payload))
        return path, payload

    def test_pretty_table_from_unit_payload(self, payload_file, capsys):
        path, payload = payload_file
        assert main(["trace", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert "step" in out and "action" in out
        # A match-count note, a header, one body row per interval.
        assert len(out.strip().splitlines()) == 2 + len(
            payload["decision_trace"]
        )

    def test_jsonl_round_trips_the_records(self, payload_file, capsys):
        path, payload = payload_file
        assert main(["trace", "--in", str(path), "--jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(l) for l in lines] == payload["decision_trace"]

    def test_filters(self, payload_file, capsys):
        path, payload = payload_file
        assert main([
            "trace", "--in", str(path), "--steps", "2:4", "--jsonl",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(l)["step"] for l in lines] == [2, 3]

        action = payload["decision_trace"][0]["decision"]["action"]
        assert main([
            "trace", "--in", str(path), "--action", action, "--jsonl",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines  # the first step's action matches itself
        assert all(
            json.loads(l)["decision"]["action"] == action for l in lines
        )

    def test_reads_artifact_and_store(self, tmp_path, capsys):
        spec = make_spec(n_steps=4)
        store = SweepStore(tmp_path / "cache")
        artifacts, _ = run_sweep_cached([spec], store=store)

        art_path = tmp_path / "artifact.json"
        art_path.write_text(dumps(artifacts[0].to_dict()))
        assert main([
            "trace", "--in", str(art_path), "--repeat", "0", "--jsonl",
        ]) == 0
        from_artifact = capsys.readouterr().out

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(dumps(spec.to_dict()))
        assert main([
            "trace", "--store", str(tmp_path / "cache"),
            "--spec", str(spec_path), "--jsonl",
        ]) == 0
        assert capsys.readouterr().out == from_artifact

    def test_documented_tracer_flow(self, tmp_path, capsys):
        # docs/observability.md: run_unit(spec, tracer=Tracer()), then
        # tracer.write(...), then ``repro trace --in`` on the JSONL.
        spec = make_spec(n_steps=6)
        tracer = Tracer()
        run_unit(spec, repeat=0, tracer=tracer)
        path = tracer.write(tmp_path / "trace.jsonl")
        assert main(["trace", "--in", str(path), "--jsonl"]) == 0
        printed = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        spans = [r for r in printed if r.get("type") == "span"]
        assert [r["name"] for r in spans] == ["control_loop.run"]
        decisions = [r for r in printed if r.get("type") != "span"]
        channel = _run_unit_worker(spec.to_dict(), 0)["decision_trace"]
        assert len(decisions) == spec.n_steps
        assert decisions == channel

    def test_errors_are_reported_not_raised(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert main(["trace", "--in", str(empty)]) == 2
        assert "no decision trace" in capsys.readouterr().err

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(dumps(make_spec().to_dict()))
        assert main([
            "trace", "--store", str(tmp_path / "nocache"),
            "--spec", str(spec_path),
        ]) == 2
        assert "no unit entry" in capsys.readouterr().err
