"""Sweep orchestration: grids, content-addressed store, scheduler, aggregates."""

import base64
import gc
import io
import json
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.baselines
import repro.experiments.runner as runner_mod
from repro.core.loop import LoopResult
from repro.experiments import (
    ExperimentArtifact,
    clear_optimum_cache,
    optimum_cache_info,
    optimum_store,
    optimum_total,
)
from repro.experiments.runner import _run_unit_worker
from repro.metrics.export import (
    MalformedHistoryError,
    loop_result_from_dict,
    loop_result_from_packed,
    loop_result_to_dict,
)
from repro.sweeps import (
    METRIC_NAMES,
    GridRun,
    JsonDirectoryStore,
    LeaseNamespace,
    SweepAxis,
    SweepGrid,
    SweepStore,
    artifact_metrics,
    axis_table,
    canonical_key,
    cells_table,
    grid_summary,
    grid_summary_json,
    group_reduce,
    run_grid,
    run_sweep_cached,
    run_units_batched,
    set_path,
)
from repro.sweeps.store import UNIT_FORMAT, UnitResult, paused_gc
from tests.conftest import make_small_grid as small_grid
from tests.conftest import make_sweep_spec as base_spec


def dumps(obj):
    return json.dumps(obj, sort_keys=True)


class TestSetPath:
    def test_nested_creation(self):
        d = {}
        set_path(d, "a.b.c", 1)
        assert d == {"a": {"b": {"c": 1}}}

    def test_copies_values(self):
        value = {"x": 1}
        d = {}
        set_path(d, "a", value)
        value["x"] = 2
        assert d["a"] == {"x": 1}

    def test_non_mapping_descend_rejected(self):
        with pytest.raises(ValueError, match="non-mapping"):
            set_path({"a": 3}, "a.b", 1)

    def test_malformed_path_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            set_path({}, "a..b", 1)


class TestSweepAxis:
    def test_scalar_labels(self):
        axis = SweepAxis("alpha", (0.1, 0.5), path="autoscaler.params.alpha")
        assert axis.label(0) == "0.1"
        assert axis.overrides(1) == {"autoscaler.params.alpha": 0.5}

    def test_zipped_values(self):
        axis = SweepAxis(
            "cell",
            ({"label": "a@1", "app": "a", "workload": 1.0},),
        )
        assert axis.label(0) == "a@1"
        assert axis.overrides(0) == {"app": "a", "workload": 1.0}

    def test_zipped_without_label_uses_index(self):
        axis = SweepAxis("cell", ({"app": "a"}, {"app": "b"}))
        assert axis.label(1) == "1"

    def test_zipped_scalar_value_rejected(self):
        with pytest.raises(ValueError, match="override mapping"):
            SweepAxis("cell", (1.0,))

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepAxis("cell", ())

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown SweepAxis"):
            SweepAxis.from_dict({"name": "a", "values": [1], "nope": 2})


class TestSweepGrid:
    def test_cartesian_expansion_last_axis_fastest(self):
        cells = small_grid().cells()
        assert [c.coords for c in cells] == [
            {"workload": "600", "alpha": "0.4"},
            {"workload": "600", "alpha": "0.5"},
            {"workload": "700", "alpha": "0.4"},
            {"workload": "700", "alpha": "0.5"},
        ]
        assert cells[0].spec.name == "g[workload=600,alpha=0.4]"
        assert cells[2].spec.workload.params["rps"] == 700.0
        assert cells[1].spec.autoscaler.params["alpha"] == 0.5

    def test_zipped_axis_moves_fields_together(self):
        grid = SweepGrid(
            name="z",
            base=base_spec(),
            axes=(
                {"name": "cell", "values": [
                    {"label": "tt", "app": "trainticket", "workload": 225.0,
                     "seed": 7},
                    {"label": "ss", "app": "sockshop", "workload": 700.0,
                     "seed": 9},
                ]},
            ),
        )
        specs = grid.specs()
        assert [s.app for s in specs] == ["trainticket", "sockshop"]
        assert [s.seed for s in specs] == [7, 9]

    def test_zero_axes_single_cell(self):
        grid = SweepGrid(name="one", base=base_spec(name="cell0"))
        cells = grid.cells()
        assert len(cells) == 1 and grid.n_cells == 1
        assert cells[0].spec.name == "cell0"  # explicit name preserved

    def test_json_round_trip(self, tmp_path):
        grid = small_grid(title="a title")
        assert SweepGrid.from_json(grid.to_json()) == grid
        path = grid.write(tmp_path / "grid.json")
        assert SweepGrid.read(path) == grid

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            small_grid(axes=(
                {"name": "a", "path": "seed", "values": [1]},
                {"name": "a", "path": "n_steps", "values": [2]},
            ))

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown SweepGrid"):
            SweepGrid.from_dict(
                {"name": "g", "base": base_spec().to_dict(), "bogus": 1}
            )

    def test_validate_resolves_registries(self):
        grid = small_grid(axes=(
            {"name": "engine", "path": "engine.kind", "values": ["bogus"]},
        ))
        with pytest.raises(KeyError, match="unknown engine"):
            grid.validate()


class TestSweepStore:
    def test_round_trip_and_stats(self, tmp_path):
        store = SweepStore(tmp_path / "cache")
        spec = base_spec()
        assert store.get_result(spec, 0) is None
        payload = _run_unit_worker(spec.to_dict(), 0)
        path = store.put_result(spec, 0, payload)
        unit = store.get_result(spec, 0)
        assert isinstance(unit, UnitResult)
        assert dumps(unit.to_payload()) == dumps(payload)
        entry = json.loads(path.read_text())
        assert entry["format"] == UNIT_FORMAT == 2
        assert "records" not in entry["payload"]
        assert len(store) == 1
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert store.stats.writes == 1
        assert store.stats.corrupt == 0

    def test_keys_are_content_addressed(self, tmp_path):
        store = SweepStore(tmp_path)
        spec = base_spec()
        assert store.path_for(store.unit_key(spec, 0)) != store.path_for(
            store.unit_key(spec, 1)
        )
        assert store.path_for(store.unit_key(spec, 0)) != store.path_for(
            store.unit_key(base_spec(seed=1), 0)
        )
        # Same computation -> same entry, even via a different handle.
        other = SweepStore(tmp_path)
        assert other.path_for(other.unit_key(base_spec(), 0)) == store.path_for(
            store.unit_key(spec, 0)
        )

    def test_canonical_key_order_independent(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key({"b": 2, "a": 1})

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = SweepStore(tmp_path)
        spec = base_spec()
        payload = _run_unit_worker(spec.to_dict(), 0)
        path = store.put_result(spec, 0, payload)
        good_bytes = path.read_bytes()
        # A crashed writer: cut inside the header, and inside the
        # packed history.
        for cut in (20, len(good_bytes) // 2):
            path.write_bytes(good_bytes[:cut])
            assert store.get_result(spec, 0) is None
        assert store.stats.corrupt == 2
        # Recompute-and-overwrite repairs the entry.
        store.put_result(spec, 0, payload)
        assert path.read_bytes() == good_bytes
        assert dumps(store.get_result(spec, 0).to_payload()) == dumps(payload)

    def test_foreign_json_is_a_miss(self, tmp_path):
        store = SweepStore(tmp_path)
        spec = base_spec()
        path = store.path_for(store.unit_key(spec, 0))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"something": "else"}))
        assert store.get_result(spec, 0) is None
        assert store.stats.corrupt == 1

    def test_wrong_shape_payload_is_a_miss(self, tmp_path):
        store = SweepStore(tmp_path)
        spec = base_spec()
        store.put_raw(store.unit_key(spec, 0), {"not": "a result"})
        assert store.get_result(spec, 0) is None
        assert store.stats.corrupt == 1

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = SweepStore(tmp_path)
        store.put_result(base_spec(), 0, {"records": []})
        leftovers = [
            p for p in (tmp_path).rglob("*") if p.is_file()
            and p.suffix != ".json"
        ]
        assert leftovers == []

    def test_concurrent_writers_do_not_clobber(self, tmp_path):
        store = SweepStore(tmp_path)
        spec = base_spec()
        payload = UnitResult.from_payload(
            _run_unit_worker(base_spec(n_steps=50).to_dict(), 0)
        )
        errors = []

        def write(handle):
            try:
                for _ in range(20):
                    handle.put_result(spec, 0, payload)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(SweepStore(tmp_path),))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert store.get_result(spec, 0) == payload
        assert len(store) == 1

    def test_clear(self, tmp_path):
        store = SweepStore(tmp_path)
        store.put_result(base_spec(), 0, {"records": []})
        assert store.clear() == 1
        assert len(store) == 0

    def test_entry_and_lease_bytes_match_streaming_encoder(self, tmp_path):
        """Entries and leases are encoded in one ``json.dumps`` call; the
        bytes on disk must stay those of the streaming ``json.dump``."""

        def streamed(obj):
            buf = io.StringIO()
            json.dump(obj, buf, sort_keys=True, allow_nan=False)
            return buf.getvalue().encode()

        def entry(key_obj, payload, entry_format=1):
            return streamed(
                {"format": entry_format, "key": key_obj, "payload": payload}
            )

        store = SweepStore(tmp_path / "store")
        spec = base_spec(
            autoscaler={"kind": "workload_aware_pema", "params": {
                "workload_low": 150.0, "workload_high": 900.0,
                "start_rps": 900.0, "min_range_width": 81.25}},
            capture=["manager_state", "decision_trace"],
        )
        run_sweep_cached([spec], store=store)
        key = store.unit_key(spec, 0)
        unit = store.get_result(spec, 0)
        assert unit.channels["manager_state"] and unit.channels["decision_trace"]
        payload = unit.to_entry()
        assert set(payload) == {"history", "manager_state", "decision_trace"}
        assert store.path_for(key).read_bytes() == entry(key, payload, 2)
        # Non-ASCII text in both the key and the payload.
        label = {"kind": "label", "name": "größe α→β"}
        noted = {**payload, "note": "naïve ✓"}
        assert store.put_raw(label, noted).read_bytes() == entry(label, noted)

        leases = LeaseNamespace(tmp_path / "leases")
        fresh = leases.acquire("t", "wörker-α", ttl=5.0, now=1000.0)
        assert leases.path_for("t").read_bytes() == streamed(fresh.to_dict())
        stolen = leases.acquire("t", "bob", ttl=5.0, now=2000.5)
        assert stolen.stolen_from == "wörker-α"
        assert leases.path_for("t").read_bytes() == streamed(stolen.to_dict())
        renewed = leases.renew(stolen, ttl=5.0, now=2001.25)
        assert leases.path_for("t").read_bytes() == streamed(renewed.to_dict())

    def test_nan_payload_rejected_without_leftovers(self, tmp_path):
        store = SweepStore(tmp_path)
        key = store.unit_key(base_spec(), 0)
        with pytest.raises(ValueError):
            store.put_raw(key, {"records": [{"response": float("nan")}]})
        assert not store.path_for(key).exists()
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        assert store.stats.writes == 0


def _drop_time(payload):
    del payload["records"][1]["time"]


def _set_cpu(value):
    def mutate(payload):
        payload["records"][1]["allocation"][0][1] = value
    return mutate


def _set_field(field, value):
    def mutate(payload):
        payload["records"][1][field] = value
    return mutate


def _rename_service(payload):
    payload["records"][2]["allocation"][0][0] = "not-a-service"


def _drop_service(payload):
    del payload["records"][2]["allocation"][-1]


def _swap_services(payload):
    pairs = payload["records"][2]["allocation"]
    pairs[0], pairs[1] = pairs[1], pairs[0]


MALFORMED_RECORDS = {
    "missing_key": _drop_time,
    "negative_cpu": _set_cpu(-1.0),
    "non_numeric_cpu": _set_cpu("lots"),
    "null_cpu": _set_cpu(None),
    "nan_cpu": _set_cpu(float("nan")),
    "inf_workload": _set_field("workload", float("inf")),
    "non_numeric_response": _set_field("response", "fast"),
    "negative_step": _set_field("step", -1),
    "ragged_renamed": _rename_service,
    "ragged_missing": _drop_service,
    "ragged_reordered": _swap_services,
}


# -- the packed (format 2) counterparts: mutate an entry payload -------------
def _column(history, field, dtype):
    return np.frombuffer(base64.b64decode(history[field]), dtype).copy()


def _store_column(history, field, array):
    history[field] = base64.b64encode(array.tobytes()).decode("ascii")


def _set_packed_value(offset, value):
    """Set ``values[offset(n, width)]`` (time, workload, response,
    total_cpu, slo blocks of ``n``, then the allocation matrix)."""

    def mutate(payload):
        history = payload["history"]
        values = _column(history, "values", "<f8")
        values[offset(history["n"], len(history["names"]))] = value
        _store_column(history, "values", values)
    return mutate


def _set_history(field, value):
    def mutate(payload):
        payload["history"][field] = value
    return mutate


def _negative_step(payload):
    steps = _column(payload["history"], "step", "<i8")
    steps[1] = -1
    _store_column(payload["history"], "step", steps)


def _violated_byte(payload):
    flags = _column(payload["history"], "violated", "<u1")
    flags[1] = 2
    _store_column(payload["history"], "violated", flags)


def _truncate_values(payload):
    values = _column(payload["history"], "values", "<f8")
    _store_column(payload["history"], "values", values[:-1])


def _extra_step(payload):
    payload["history"]["n"] += 1


def _rename(index, name):
    def mutate(payload):
        payload["history"]["names"][index] = name
    return mutate


def _duplicate_name(payload):
    names = payload["history"]["names"]
    names[1] = names[0]


def _drop_history(payload):
    del payload["history"]


def _drop_column(payload):
    del payload["history"]["violated"]


MALFORMED_PACKED = {
    "missing_history": _drop_history,
    "missing_column": _drop_column,
    "bad_base64": _set_history("values", "not base64!"),
    "non_string_column": _set_history("step", 7),
    "short_values": _truncate_values,
    "n_mismatch": _extra_step,
    "n_bool": _set_history("n", True),
    "n_negative": _set_history("n", -4),
    "violated_byte": _violated_byte,
    "empty_names": _set_history("names", []),
    "duplicate_names": _duplicate_name,
    "non_string_name": _rename(0, 7),
    "empty_name": _rename(0, ""),
    "negative_cpu": _set_packed_value(lambda n, w: 5 * n + w, -1.0),
    "nan_cpu": _set_packed_value(lambda n, w: 5 * n + w, float("nan")),
    "inf_workload": _set_packed_value(lambda n, w: n + 1, float("inf")),
    "nan_response": _set_packed_value(lambda n, w: 2 * n + 1, float("nan")),
    "negative_step": _negative_step,
}


def _write_entry(path, key, payload, entry_format):
    """Write an entry as-is (NaN/inf literals included), the way a
    foreign, hand-edited or older-format file would look."""
    path.write_text(
        json.dumps(
            {"format": entry_format, "key": key, "payload": payload},
            sort_keys=True,
        )
    )


class TestMalformedEntries:
    """A store entry whose history does not decode is a counted miss:
    the unit is recomputed and its entry overwritten.  Records-form
    payloads can only reach the store as format-1 entries, which are
    misses whatever they hold; the records codec itself still rejects
    every malformed case."""

    @pytest.fixture(scope="class")
    def clean(self):
        spec = base_spec()
        artifacts, _ = run_sweep_cached([spec])
        return spec, artifacts[0].to_json()

    @pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
    def test_decoder_raises_typed_value_error(self, clean, case, tmp_path):
        spec, _ = clean
        store = SweepStore(tmp_path)
        run_sweep_cached([spec], store=store)
        payload = loop_result_to_dict(store.get_result(spec, 0).result)
        MALFORMED_RECORDS[case](payload)
        with pytest.raises(ValueError) as raised:
            loop_result_from_dict(payload)
        assert raised.type is MalformedHistoryError
        with pytest.raises(MalformedHistoryError):
            store.put_result(spec, 0, payload)

    @pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
    def test_sweep_recomputes_malformed_entry(self, clean, case, tmp_path):
        spec, expected = clean
        specs = [spec, base_spec(seed=3)]
        store = SweepStore(tmp_path)
        run_sweep_cached(specs, store=store)
        key = store.unit_key(spec, 0)
        path = store.path_for(key)
        good_bytes = path.read_bytes()
        payload = store.get_result(spec, 0).to_payload()
        MALFORMED_RECORDS[case](payload)
        _write_entry(path, key, payload, 1)
        fresh = SweepStore(tmp_path)
        artifacts, report = run_sweep_cached(specs, store=fresh)
        assert artifacts[0].to_json() == expected
        assert fresh.stats.corrupt == 1
        assert fresh.stats.hits == 1 and fresh.stats.misses == 1
        assert report.cache_hits == 1 and report.computed == 1
        assert path.read_bytes() == good_bytes

    @pytest.mark.parametrize("case", sorted(MALFORMED_PACKED))
    def test_packed_decoder_raises_typed_value_error(
        self, clean, case, tmp_path
    ):
        spec, _ = clean
        store = SweepStore(tmp_path)
        run_sweep_cached([spec], store=store)
        payload = store.get_result(spec, 0).to_entry()
        MALFORMED_PACKED[case](payload)
        with pytest.raises(ValueError) as raised:
            UnitResult.from_entry(payload)
        assert raised.type is MalformedHistoryError
        if "history" in payload:
            with pytest.raises(MalformedHistoryError):
                loop_result_from_packed(payload["history"])

    @pytest.mark.parametrize("case", sorted(MALFORMED_PACKED))
    def test_sweep_recomputes_malformed_packed_entry(
        self, clean, case, tmp_path
    ):
        spec, expected = clean
        specs = [spec, base_spec(seed=3)]
        store = SweepStore(tmp_path)
        run_sweep_cached(specs, store=store)
        key = store.unit_key(spec, 0)
        path = store.path_for(key)
        good_bytes = path.read_bytes()
        payload = store.get_result(spec, 0).to_entry()
        MALFORMED_PACKED[case](payload)
        _write_entry(path, key, payload, UNIT_FORMAT)
        fresh = SweepStore(tmp_path)
        artifacts, report = run_sweep_cached(specs, store=fresh)
        assert artifacts[0].to_json() == expected
        assert fresh.stats.corrupt == 1
        assert fresh.stats.hits == 1 and fresh.stats.misses == 1
        assert report.cache_hits == 1 and report.computed == 1
        assert path.read_bytes() == good_bytes

    def test_malformed_fresh_payload_still_raises(self, monkeypatch):
        """Only cached entries are repaired; a producer whose history
        breaks the value rule is a bug and surfaces as the typed error."""
        run_unit = runner_mod.run_unit

        def broken_run_unit(spec, repeat=0, **kwargs):
            unit = run_unit(spec, repeat, **kwargs)
            history = unit.result
            response = history.responses.copy()
            response[0] = float("nan")
            unit.result = LoopResult(
                history.service_names,
                step=history.steps,
                time=history.times,
                workload=history.workloads,
                response=response,
                total_cpu=history.total_cpu,
                violated=history.violated,
                slo=history.slos,
                allocations=history.allocations,
            )
            return unit

        monkeypatch.setattr(runner_mod, "run_unit", broken_run_unit)
        with pytest.raises(MalformedHistoryError, match="response"):
            run_sweep_cached([base_spec()])

    @pytest.mark.parametrize("batch", [False, True])
    def test_nan_rate_spec_raises(self, tmp_path, batch):
        """A constant ``rps: NaN`` spec runs, but its history breaks the
        value rule, so no executor returns the unit."""
        spec = base_spec(
            workload={"kind": "constant", "params": {"rps": float("nan")}}
        )
        with pytest.raises(MalformedHistoryError, match="workload"):
            run_sweep_cached([spec], batch=batch)
        # With a store the unit key (canonical JSON, NaN not allowed)
        # already fails to hash at the cache probe: still a ValueError,
        # and nothing is written.
        store = SweepStore(tmp_path)
        with pytest.raises(ValueError):
            run_sweep_cached([spec], store=store, batch=batch)
        assert store.entry_paths() == []


class TestStoreFormat:
    """Format-2 unit entries: v1 upgrade, size, and decode-once."""

    def test_v1_entry_is_a_miss_rewritten_as_v2(self, tmp_path):
        specs = [base_spec(repeats=2), base_spec(seed=5)]
        expected = [a.to_json() for a in run_sweep_cached(specs)[0]]
        store = SweepStore(tmp_path)
        # The format-1 entries an older store holds: records payloads.
        for spec in specs:
            for repeat in range(spec.repeats):
                store.put_raw(
                    store.unit_key(spec, repeat),
                    _run_unit_worker(spec.to_dict(), repeat),
                )
        fresh = SweepStore(tmp_path)
        artifacts, report = run_sweep_cached(specs, store=fresh)
        assert [a.to_json() for a in artifacts] == expected
        assert fresh.stats.corrupt == 3 and fresh.stats.hits == 0
        assert report.cache_hits == 0 and report.computed == 3
        for path in fresh.entry_paths():
            entry = json.loads(path.read_text())
            assert entry["format"] == UNIT_FORMAT
            assert "records" not in entry["payload"]
        warm = SweepStore(tmp_path)
        artifacts, report = run_sweep_cached(specs, store=warm, batch=True)
        assert [a.to_json() for a in artifacts] == expected
        assert report.cache_hits == 3 and warm.stats.corrupt == 0

    def test_packed_entry_is_at_most_40_percent_of_records(self, tmp_path):
        spec = base_spec(
            workload={"kind": "wikipedia", "params": {
                "low_rps": 300.0, "high_rps": 800.0, "seed": 3}},
            n_steps=1080,
        )
        store = SweepStore(tmp_path)
        run_sweep_cached([spec], store=store, batch=True)
        key = store.unit_key(spec, 0)
        packed = store.path_for(key).stat().st_size
        payload = store.get_result(spec, 0).to_payload()
        assert len(payload["records"]) == 1080
        records = len(
            dumps({"format": 1, "key": key, "payload": payload}).encode()
        )
        assert packed <= 0.40 * records

    @pytest.mark.parametrize("batch", [False, True])
    def test_one_history_decode_per_unit(self, tmp_path, monkeypatch, batch):
        """A cold sweep never builds or decodes the records form; a warm
        one decodes each unit's packed entry once."""
        import repro.metrics.export as export_mod

        calls = []

        def counting(fn):
            def wrapper(data):
                calls.append(fn.__name__)
                return fn(data)
            return wrapper

        for name in (
            "loop_result_to_dict",
            "loop_result_from_dict",
            "loop_result_from_packed",
        ):
            monkeypatch.setattr(
                export_mod, name, counting(getattr(export_mod, name))
            )
        specs = [base_spec(repeats=2), base_spec(seed=5)]
        store = SweepStore(tmp_path)
        cold, report = run_sweep_cached(specs, store=store, batch=batch)
        assert report.computed == 3
        assert calls == []
        warm, report = run_sweep_cached(specs, store=store, batch=batch)
        assert report.cache_hits == 3
        assert calls == ["loop_result_from_packed"] * 3
        assert [a.summary_json() for a in warm] == [
            a.summary_json() for a in cold
        ]
        calls.clear()
        assert [a.to_json() for a in warm] == [a.to_json() for a in cold]
        assert calls == ["loop_result_to_dict"] * 6


class TestPausedGc:
    def test_garbage_entry_restores_gc(self, tmp_path):
        store = SweepStore(tmp_path)
        key = store.unit_key(base_spec(), 0)
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"format": 1, "key": [')  # json.loads raises
        assert gc.isenabled()
        assert store.get_raw(key) is None
        assert store.stats.corrupt == 1
        assert gc.isenabled()

    def test_restores_gc_when_body_raises(self):
        with pytest.raises(RuntimeError):
            with paused_gc():
                assert not gc.isenabled()
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_caller_disabled_gc_stays_disabled(self, tmp_path):
        store = SweepStore(tmp_path)
        key = store.unit_key(base_spec(), 0)
        store.put_raw(key, {"records": []})
        gc.disable()
        try:
            with paused_gc():
                pass
            assert not gc.isenabled()
            assert store.get_raw(key) == {"records": []}
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_nested(self):
        with paused_gc():
            with paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_batched_run_restores_gc_on_error(self):
        with pytest.raises(ValueError, match="compatible"):
            run_units_batched(
                [(base_spec(), 0), (base_spec(app="hotelreservation"), 0)]
            )
        assert gc.isenabled()


class TestScheduler:
    def test_matches_run_sweep(self):
        # The scheduler against the plain unit runner, one call per unit.
        specs = [base_spec(repeats=2), base_spec(seed=5)]
        expected = [
            ExperimentArtifact.from_payloads(
                spec,
                [
                    _run_unit_worker(spec.to_dict(), repeat)
                    for repeat in range(spec.repeats)
                ],
            )
            for spec in specs
        ]
        artifacts, report = run_sweep_cached(specs)
        assert [a.to_json() for a in artifacts] == [
            a.to_json() for a in expected
        ]
        assert report.units == 3 and report.cache_hits == 0

    def test_parallel_byte_identical(self, tmp_path):
        specs = small_grid().specs()
        serial, _ = run_sweep_cached(specs)
        parallel, _ = run_sweep_cached(
            specs, store=SweepStore(tmp_path), parallel=2, chunk_size=3
        )
        assert [a.to_json() for a in serial] == [a.to_json() for a in parallel]

    def test_warm_cache_full_hits(self, tmp_path):
        store = SweepStore(tmp_path)
        grid = small_grid()
        cold = run_grid(grid, store=store)
        warm = run_grid(grid, store=store)
        assert cold.report.cache_hits == 0
        assert warm.report.cache_hits == warm.report.units == 8
        assert warm.report.computed == 0
        assert grid_summary_json(warm) == grid_summary_json(cold)

    def test_cold_and_warm_runs_never_scan_the_store(
        self, tmp_path, monkeypatch
    ):
        """A probe is one file open: no pass may list the store directory
        (that made every sweep quadratic in the store's size)."""
        scans = []
        entry_paths = JsonDirectoryStore.entry_paths

        def counting(self):
            scans.append(self.root)
            return entry_paths(self)

        monkeypatch.setattr(JsonDirectoryStore, "entry_paths", counting)
        store = SweepStore(tmp_path)
        specs = small_grid().specs()
        units = sum(spec.repeats for spec in specs)
        _, cold = run_sweep_cached(specs, store=store)
        # The empty store is probed too: one miss per unit.
        assert store.stats.misses == units and store.stats.hits == 0
        assert cold.cache_hits == 0
        _, warm = run_sweep_cached(specs, store=store)
        assert warm.cache_hits == units and store.stats.hits == units
        assert scans == []

    def test_reuse_false_refreshes(self, tmp_path):
        store = SweepStore(tmp_path)
        grid = small_grid()
        run_grid(grid, store=store)
        refreshed = run_grid(grid, store=store, reuse=False)
        assert refreshed.report.cache_hits == 0
        assert refreshed.report.computed == refreshed.report.units

    def test_cache_shared_across_grids(self, tmp_path):
        """Grids sweeping overlapping points reuse each other's cells,
        even though each grid stamps its own name into the cell specs."""
        store = SweepStore(tmp_path)
        run_grid(small_grid(), store=store)
        overlapping = small_grid(name="other_figure", axes=(
            {"name": "workload", "path": "workload", "values": [700.0]},
            {"name": "alpha", "path": "autoscaler.params.alpha",
             "values": [0.4, 0.5]},
        ))
        assert [c.spec.name for c in overlapping.cells()] != [
            c.spec.name for c in small_grid().cells()[:2]
        ]
        warm = run_grid(overlapping, store=store)
        assert warm.report.cache_hits == warm.report.units == 4

    def test_unit_key_ignores_cosmetic_name(self, tmp_path):
        store = SweepStore(tmp_path)
        a = store.unit_key(base_spec(name="figA[cell=1]"), 0)
        b = store.unit_key(base_spec(name="figB[x=1,y=2]"), 0)
        assert canonical_key(a) == canonical_key(b)

    def test_unit_key_ignores_repeat_count(self, tmp_path):
        """Repeat r is determined by seed + r, not by how many repeats a
        sweep asked for — a 2-repeat and 3-repeat sweep share units."""
        store = SweepStore(tmp_path)
        a = store.unit_key(base_spec(repeats=2), 1)
        b = store.unit_key(base_spec(repeats=3), 1)
        assert canonical_key(a) == canonical_key(b)
        assert canonical_key(a) != canonical_key(
            store.unit_key(base_spec(repeats=3), 2)
        )

    def test_progress_stream(self, tmp_path):
        snapshots = []
        run_sweep_cached(
            small_grid().specs(),
            store=SweepStore(tmp_path),
            chunk_size=3,
            on_progress=snapshots.append,
        )
        # Initial cache-scan snapshot plus one per chunk (8 units / 3).
        assert [s.chunk for s in snapshots] == [0, 1, 2, 3]
        assert snapshots[0].completed == 0
        assert [s.completed for s in snapshots] == [0, 3, 6, 8]
        assert snapshots[-1].done

    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path):
        grid = small_grid()
        uninterrupted = run_grid(grid)  # serial, storeless reference

        class Killed(RuntimeError):
            pass

        store = SweepStore(tmp_path)

        def die_after_first_chunk(progress):
            if progress.chunk >= 1:
                raise Killed()

        with pytest.raises(Killed):
            run_grid(
                grid, store=store, chunk_size=3,
                on_progress=die_after_first_chunk,
            )
        assert 0 < len(store) < 8  # partial progress persisted

        resumed = run_grid(grid, store=store, chunk_size=3)
        assert resumed.report.cache_hits == 3
        assert resumed.report.computed == 5
        assert grid_summary_json(resumed) == grid_summary_json(uninterrupted)
        assert [a.to_json() for a in resumed.artifacts] == [
            a.to_json() for a in uninterrupted.artifacts
        ]

    def test_grid_run_lookup(self):
        run = run_grid(small_grid())
        artifact = run.artifact(workload="600", alpha="0.5")
        assert artifact.spec.workload.params["rps"] == 600.0
        with pytest.raises(LookupError, match="2 cells"):
            run.artifact(workload="600")

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="parallel"):
            run_sweep_cached([base_spec()], parallel=0)
        with pytest.raises(ValueError, match="chunk_size"):
            run_sweep_cached([base_spec()], chunk_size=0)


class TestAggregate:
    @pytest.fixture(scope="class")
    def grid_run(self) -> GridRun:
        return run_grid(small_grid())

    def test_artifact_metrics(self, grid_run):
        metrics = artifact_metrics(grid_run.artifacts[0])
        assert set(metrics) == set(METRIC_NAMES)
        artifact = grid_run.artifacts[0]
        assert metrics["settled_total_mean"] == pytest.approx(
            artifact.mean_settled_total()
        )
        interval = artifact.spec.interval
        expected_cost = float(np.mean(
            [np.sum(r.total_cpu) * interval for r in artifact.results]
        ))
        assert metrics["cost_cpu_seconds_mean"] == pytest.approx(expected_cost)

    def test_grid_summary_shape(self, grid_run):
        summary = grid_summary(grid_run)
        assert summary["grid"] == "g"
        assert summary["axes"] == ["workload", "alpha"]
        assert len(summary["cells"]) == 4
        cell = summary["cells"][0]
        assert cell["coords"] == {"workload": "600", "alpha": "0.4"}
        assert set(cell["metrics"]) == set(METRIC_NAMES)

    def test_group_reduce_mean(self, grid_run):
        rows = group_reduce(grid_run, ["workload"],
                            metrics=["settled_total_mean"])
        assert [r["workload"] for r in rows] == ["600", "700"]
        assert all(r["cells"] == 2 for r in rows)
        per_cell = [
            artifact_metrics(a)["settled_total_mean"]
            for a in grid_run.artifacts[:2]
        ]
        assert rows[0]["settled_total_mean"] == pytest.approx(
            float(np.mean(per_cell))
        )

    def test_group_reduce_total(self, grid_run):
        rows = group_reduce(grid_run, ["alpha"], reduce="total",
                            metrics=["cost_cpu_seconds_mean"])
        grand_total = sum(r["cost_cpu_seconds_mean"] for r in rows)
        all_cells = sum(
            artifact_metrics(a)["cost_cpu_seconds_mean"]
            for a in grid_run.artifacts
        )
        assert grand_total == pytest.approx(all_cells)

    def test_group_reduce_errors(self, grid_run):
        with pytest.raises(KeyError, match="unknown axis"):
            group_reduce(grid_run, ["nope"])
        with pytest.raises(KeyError, match="unknown reducer"):
            group_reduce(grid_run, ["alpha"], reduce="median")

    def test_tables(self, grid_run):
        table = cells_table(grid_run)
        assert "workload" in table and "alpha" in table
        assert "settled_total_mean" in table
        by_alpha = axis_table(grid_run, "alpha")
        assert by_alpha.count("\n") == 4  # title + header + rule + 2 rows

    def test_zero_axis_table(self):
        run = run_grid(SweepGrid(name="one", base=base_spec()))
        table = cells_table(run)
        assert "cell" in table and "one" in table


class FakeBatch:
    """Stands in for OptimumBatch: cheap, counts solved cells."""

    calls = 0

    def __init__(self, engine, **_kw):
        self.engine = engine

    def find_many(self, requests):
        from repro.baselines import OptimumResult
        from repro.sim import Allocation

        results = []
        for req in requests:
            type(self).calls += 1
            results.append(
                OptimumResult(
                    allocation=Allocation({"svc": req.workload / 100.0}),
                    latency=0.1,
                    workload=req.workload,
                    evaluations=5,
                )
            )
        return results


@pytest.fixture
def fake_optimum(monkeypatch):
    FakeBatch.calls = 0
    monkeypatch.setattr(repro.baselines, "OptimumBatch", FakeBatch)
    clear_optimum_cache()
    yield FakeBatch
    clear_optimum_cache()


class TestOptimumCache:
    def test_memoizes_and_counts(self, fake_optimum):
        assert optimum_total("sockshop", 700.0) == 7.0
        assert optimum_total("sockshop", 700.0) == 7.0
        assert fake_optimum.calls == 1
        info = optimum_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["size"] == 1 and not info["store_active"]

    def test_bounded(self, fake_optimum, monkeypatch):
        monkeypatch.setattr(runner_mod, "OPTIMUM_CACHE_SIZE", 2)
        for wl in (100.0, 200.0, 300.0):
            optimum_total("sockshop", wl)
        assert optimum_cache_info()["size"] == 2
        optimum_total("sockshop", 100.0)  # evicted -> recomputed
        assert fake_optimum.calls == 4

    def test_clear_resets(self, fake_optimum):
        optimum_total("sockshop", 700.0)
        clear_optimum_cache()
        info = optimum_cache_info()
        assert info["size"] == 0 and info["hits"] == 0 and info["misses"] == 0
        optimum_total("sockshop", 700.0)
        assert fake_optimum.calls == 2

    def test_store_persists_across_processes(self, fake_optimum, tmp_path):
        store = SweepStore(tmp_path)
        with optimum_store(store):
            assert optimum_cache_info()["store_active"]
            assert optimum_total("sockshop", 700.0) == 7.0
        assert fake_optimum.calls == 1
        clear_optimum_cache()  # simulate a fresh process
        with optimum_store(SweepStore(tmp_path)):
            assert optimum_total("sockshop", 700.0) == 7.0
        assert fake_optimum.calls == 1  # served from disk, not recomputed
        assert not optimum_cache_info()["store_active"]

    def test_store_restored_on_error(self, fake_optimum, tmp_path):
        with pytest.raises(RuntimeError):
            with optimum_store(SweepStore(tmp_path)):
                raise RuntimeError("boom")
        assert not optimum_cache_info()["store_active"]


class TestSweepCli:
    @pytest.fixture
    def grid_file(self, tmp_path):
        path = tmp_path / "grid.json"
        small_grid(base=base_spec(repeats=1)).write(path)
        return path

    def test_cold_then_warm(self, grid_file, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        out1, rep1 = tmp_path / "agg1.json", tmp_path / "rep1.json"
        out2, rep2 = tmp_path / "agg2.json", tmp_path / "rep2.json"
        argv = ["sweep", "--grid", str(grid_file), "--cache", str(cache),
                "--resume"]
        assert main(argv + ["--out", str(out1), "--report", str(rep1)]) == 0
        assert main(argv + ["--out", str(out2), "--report", str(rep2)]) == 0
        output = capsys.readouterr().out
        assert "4 cells, 4 units" in output
        cold = json.loads(rep1.read_text())
        warm = json.loads(rep2.read_text())
        assert cold["cache_hits"] == 0 and cold["computed"] == 4
        assert warm["cache_hits"] == warm["units"] == 4
        # The resumed aggregate is byte-identical to the cold one.
        assert out1.read_bytes() == out2.read_bytes()

    def test_resume_needs_cache(self, grid_file, capsys):
        from repro.cli import main

        assert main(["sweep", "--grid", str(grid_file), "--resume"]) == 2
        assert "--resume needs --cache" in capsys.readouterr().err

    def test_chunk_size_validated(self, grid_file, capsys):
        from repro.cli import main

        assert main(
            ["sweep", "--grid", str(grid_file), "--chunk-size", "0"]
        ) == 2
        assert "--chunk-size" in capsys.readouterr().err

    def test_bad_grid_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        assert main(["sweep", "--grid", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestGridValidation:
    """Unknown keys and misspelled axis paths fail at load, with hints."""

    def test_unknown_grid_field_suggests(self):
        with pytest.raises(ValueError, match=r"did you mean 'axes'"):
            SweepGrid.from_dict(
                {"name": "g", "base": base_spec().to_dict(), "axis": []}
            )

    def test_unknown_axis_field_suggests(self):
        with pytest.raises(ValueError, match=r"did you mean 'values'"):
            SweepAxis.from_dict({"name": "a", "value": [1]})

    def test_misspelled_root_path_suggests(self):
        with pytest.raises(ValueError, match=r"did you mean 'n_steps'"):
            SweepAxis(name="a", values=(1, 2), path="n_step")

    def test_misspelled_component_subfield_suggests(self):
        with pytest.raises(ValueError, match=r"did you mean 'params'"):
            SweepAxis(name="a", values=(1,), path="autoscaler.parms.alpha")

    def test_descent_into_scalar_field_rejected(self):
        with pytest.raises(ValueError, match="whole value"):
            SweepAxis(name="a", values=(1,), path="seed.offset")
        with pytest.raises(ValueError, match="scalar field"):
            SweepAxis(name="a", values=(1,), path="engine.seed_offset.x")

    def test_zipped_override_keys_validated(self):
        with pytest.raises(ValueError, match=r"did you mean 'workload'"):
            SweepAxis(name="a", values=({"worklod": 700.0},))

    def test_label_key_is_exempt(self):
        axis = SweepAxis(
            name="a", values=({"label": "x", "workload": 700.0},)
        )
        assert axis.label(0) == "x"

    def test_params_subpaths_pass_through(self):
        SweepAxis(name="a", values=(0.1,), path="autoscaler.params.alpha")
        SweepAxis(name="a", values=(0.1,), path="workload.params.rps")
        SweepAxis(name="a", values=(1,), path="engine.seed_offset")
        SweepAxis(
            name="a",
            values=(0.1,),
            path="workload.params.segments.nested.free",
        )

    def test_every_shipped_grid_passes(self):
        for path in sorted(Path("benchmarks/grids").glob("*.json")):
            SweepGrid.read(path)
