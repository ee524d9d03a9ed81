"""Sweep orchestration: grids, content-addressed store, scheduler, aggregates."""

import base64
import gc
import io
import json
import sys
import threading
import zlib
from pathlib import Path
from types import SimpleNamespace

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
from tests.conftest import frame_entry
from tests.conftest import make_small_grid as small_grid
from tests.conftest import make_sweep_spec as base_spec


def dumps(obj):
    return json.dumps(obj, sort_keys=True)


def _read_entry(path):
    """A format-4 entry file as its header object and the bytes after
    its header line (the columns, then any channel text)."""
    data = path.read_bytes()
    end = data.index(b"\n")
    assert (end + 1) % 8 == 0  # the columns start 8-byte aligned
    return SimpleNamespace(
        header=json.loads(data[:end]), tail=bytearray(data[end + 1 :])
    )


def _write_entry(path, header, tail=None):
    """Write an entry as-is (NaN/inf literals included), the way a
    foreign, hand-edited or older-format file would look: with ``tail``,
    as a format-4 header line and body, else as one JSON object."""
    if tail is None:
        path.write_text(json.dumps(header, sort_keys=True))
    else:
        path.write_bytes(frame_entry(header, tail))


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
        entry = _read_entry(path)
        assert entry.header["format"] == UNIT_FORMAT == 4
        assert "records" not in entry.header["payload"]
        assert entry.header["payload"]["channels"] == {}
        history = entry.header["payload"]["history"]
        names = list(unit.result.service_names)
        assert history == {"n": spec.n_steps, "names": names}
        # values (5 + width float64s per interval), step int64, violated u8
        width = len(history["names"])
        assert len(entry.tail) == spec.n_steps * (8 * (5 + width) + 8 + 1)
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
        # columns.
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

    def test_misplaced_entry_is_a_miss(self, tmp_path):
        """An intact entry under another key's path fails key
        verification: a corrupt miss, never the other unit's result."""
        store = SweepStore(tmp_path)
        spec, other = base_spec(), base_spec(seed=1)
        run_sweep_cached([other], store=store)
        path = store.path_for(store.unit_key(spec, 0))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(store.path_for(store.unit_key(other, 0)).read_bytes())
        assert store.get_result(spec, 0) is None
        assert store.stats.corrupt == 1
        assert store.get_result(other, 0) is not None

    def test_wrong_shape_payload_is_a_miss(self, tmp_path):
        store = SweepStore(tmp_path)
        spec = base_spec()
        store.put_raw(store.unit_key(spec, 0), {"not": "a result"})
        assert store.get_result(spec, 0) is None
        assert store.stats.corrupt == 1

    def test_put_is_one_temp_file_write_fsync_and_replace(
        self, tmp_path, monkeypatch
    ):
        """Whatever its size, an entry costs one temp file, one write
        system call, one fsync and one rename: the header line and the
        columns are joined into one buffer before the file exists."""
        import os
        import tempfile

        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        class CountingFile(io.FileIO):
            def write(self, data):
                calls.append("write")
                return super().write(data)

        def fdopen(fd, mode):
            assert mode == "wb"
            return io.BufferedWriter(CountingFile(fd, "wb"))

        store = SweepStore(tmp_path)
        payloads = [
            UnitResult.from_payload(
                _run_unit_worker(base_spec(n_steps=steps).to_dict(), 0)
            )
            for steps in (12, 300)
        ] + [{"note": "a format-1 payload"}]
        monkeypatch.setattr(
            tempfile, "mkstemp", counting("mkstemp", tempfile.mkstemp)
        )
        monkeypatch.setattr(os, "fsync", counting("fsync", os.fsync))
        monkeypatch.setattr(os, "replace", counting("replace", os.replace))
        monkeypatch.setattr(os, "fdopen", fdopen)
        sizes = []
        for index, payload in enumerate(payloads):
            calls.clear()
            path = store.put_raw({"kind": "label", "index": index}, payload)
            assert calls == ["mkstemp", "write", "fsync", "replace"]
            sizes.append(path.stat().st_size)
        assert sizes[1] > io.DEFAULT_BUFFER_SIZE > sizes[0]

        # In a write group, N entries still cost N temp files, writes
        # and renames, but no fsync of their own: one barrier when the
        # group closes, and one mkdir per shard the group touches.
        import repro.sweeps.store as store_mod

        made = []
        real_mkdir = Path.mkdir

        def mkdir(self, *args, **kwargs):
            made.append(self)
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", mkdir)
        monkeypatch.setattr(
            store_mod, "_barrier", counting("barrier", store_mod._barrier)
        )
        calls.clear()
        n = 40
        with store.write_group():
            paths = [
                store.put_raw({"kind": "grouped", "index": index}, payloads[0])
                for index in range(n)
            ]
            assert all(path.exists() for path in paths)
        shards = {path.parent for path in paths}
        assert len(shards) < n  # some shard holds two of the entries
        assert calls.count("mkstemp") == calls.count("write") == n
        assert calls.count("replace") == n
        assert calls.count("barrier") == 1
        barrier = calls.index("barrier")
        assert "fsync" not in calls[:barrier]
        assert "replace" not in calls[barrier:]
        assert sorted(made) == sorted(shards)

    def test_barrier_without_syncfs_fsyncs_each_entry(
        self, tmp_path, monkeypatch
    ):
        """Where the C library has no ``syncfs``, a group's barrier
        fsyncs each entry it staged; one deleted meanwhile is skipped."""
        import os

        import repro.sweeps.store as store_mod

        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(store_mod, "_SYNCFS", None)
        monkeypatch.setattr(os, "fsync", fsync)
        store = SweepStore(tmp_path)
        with store.write_group():
            paths = [store.put_raw({"index": i}, {"n": i}) for i in range(3)]
            paths[1].unlink()
            assert synced == []
        assert synced == [paths[0].stat().st_ino, paths[2].stat().st_ino]
        # A body that raises still closes with its barrier.
        synced.clear()
        with pytest.raises(RuntimeError):
            with store.write_group():
                path = store.put_raw({"index": 3}, {"n": 3})
                raise RuntimeError("unit failed")
        assert synced == [path.stat().st_ino]

    def test_write_groups_do_not_nest(self, tmp_path, monkeypatch):
        import repro.sweeps.store as store_mod

        barriers = []
        monkeypatch.setattr(
            store_mod, "_barrier", lambda root, paths: barriers.append(paths)
        )
        store = SweepStore(tmp_path)
        with store.write_group():
            path = store.put_raw({"index": 0}, {"n": 0})
            with pytest.raises(RuntimeError, match="already open"):
                with store.write_group():
                    pass
        assert barriers == [[path]]

    @pytest.mark.skipif(sys.platform != "linux", reason="syncfs is Linux's")
    @pytest.mark.parametrize(
        "release, usable",
        [("5.4.0-150-generic", False), ("5.8.0", True), ("6.1.0-rc1", True),
         ("unknown", False)],
    )
    def test_syncfs_needs_a_kernel_that_reports_write_back_errors(
        self, monkeypatch, release, usable
    ):
        """Before Linux 5.8 ``syncfs`` loses write-back errors, so the
        barrier fsyncs each entry there instead."""
        import os

        import repro.sweeps.store as store_mod

        monkeypatch.setattr(
            os, "uname", lambda: SimpleNamespace(release=release)
        )
        assert (store_mod._load_syncfs() is not None) is usable

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
        bytes on disk must stay those of the streaming ``json.dump``
        (compact for a unit entry's header line, which the channels'
        JSON text follows)."""

        def streamed(obj, **options):
            buf = io.StringIO()
            json.dump(obj, buf, sort_keys=True, allow_nan=False, **options)
            return buf.getvalue().encode()

        def entry(key_obj, payload, entry_format=1):
            return streamed(
                {"format": entry_format, "key": key_obj, "payload": payload}
            )

        def unit_entry(key_obj, unit):
            payload, body = unit.to_columns()
            names = sorted(unit.channels)
            texts = [streamed(unit.channels[name]) for name in names]
            assert payload["channels"] == {
                name: [len(text), zlib.crc32(text)]
                for name, text in zip(names, texts)
            }
            header = streamed(
                {"format": 4, "key": key_obj, "payload": payload},
                separators=(",", ":"),
            )
            header += b" " * (-(len(header) + 1) % 8) + b"\n"
            columns = b"".join(column.tobytes() for column in body[:3])
            return header + columns + b"".join(texts)

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
        payload, _ = unit.to_columns()
        assert set(payload) == {"channels", "history"}
        assert set(payload["channels"]) == {"manager_state", "decision_trace"}
        assert store.path_for(key).read_bytes() == unit_entry(key, unit)
        # Non-ASCII text in both the key and the payload: the header is
        # ASCII-escaped, so its padding counts bytes and characters alike.
        label = {"kind": "label", "name": "größe α→β"}
        noted = {**payload, "note": "naïve ✓"}
        assert store.put_raw(label, noted).read_bytes() == entry(label, noted)
        noted_unit = UnitResult(unit.result, {"note": "naïve ✓"})
        assert store.put_raw(label, noted_unit).read_bytes() == unit_entry(
            label, noted_unit
        )

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


# -- the format-4 counterparts: mutate an entry's header or column bytes ----
def _layout(entry):
    """Byte offsets of the step and violated columns in ``entry.tail``."""
    history = entry.header["payload"]["history"]
    values = 8 * (5 + len(history["names"])) * history["n"]
    return values, values + 8 * history["n"]


def _column(entry, field):
    """A writable view of one column of ``entry.tail``."""
    step_at, violated_at = _layout(entry)
    n = entry.header["payload"]["history"]["n"]
    if field == "values":
        return np.frombuffer(entry.tail, "<f8", step_at // 8)
    if field == "step":
        return np.frombuffer(entry.tail, "<i8", n, step_at)
    return np.frombuffer(entry.tail, "<u1", n, violated_at)


def _set_packed_value(offset, value):
    """Set ``values[offset(n, width)]`` (time, workload, response,
    total_cpu, slo blocks of ``n``, then the allocation matrix)."""

    def mutate(entry):
        history = entry.header["payload"]["history"]
        values = _column(entry, "values")
        values[offset(history["n"], len(history["names"]))] = value
    return mutate


def _set_history(field, value):
    def mutate(entry):
        entry.header["payload"]["history"][field] = value
    return mutate


def _negative_step(entry):
    _column(entry, "step")[1] = -1


def _violated_byte(entry):
    _column(entry, "violated")[1] = 2


def _truncate_values(entry):
    step_at, _ = _layout(entry)
    del entry.tail[step_at - 8 : step_at]


def _cut_mid_column(entry):
    step_at, _ = _layout(entry)
    del entry.tail[step_at + 3 :]


def _extra_bytes(entry):
    entry.tail += bytes(8)


def _header_only(entry):
    entry.tail.clear()


def _extra_step(entry):
    entry.header["payload"]["history"]["n"] += 1


def _rename(index, name):
    def mutate(entry):
        entry.header["payload"]["history"]["names"][index] = name
    return mutate


def _duplicate_name(entry):
    names = entry.header["payload"]["history"]["names"]
    names[1] = names[0]


def _drop_history(entry):
    del entry.header["payload"]["history"]


def _drop_column(entry):
    _, violated_at = _layout(entry)
    del entry.tail[violated_at:]


def _as_format_2(entry):
    """The entry as the format-2 store wrote it: one JSON object with the
    columns base64-encoded in its history, and no header line."""
    history = entry.header["payload"]["history"]
    for field in ("values", "step", "violated"):
        history[field] = base64.b64encode(
            _column(entry, field).tobytes()
        ).decode("ascii")
    entry.header["format"] = 2
    entry.tail = None


MALFORMED_PACKED = {
    "missing_history": _drop_history,
    "missing_column": _drop_column,
    "non_string_column": _set_history("step", 7),  # a column in the header
    "short_values": _truncate_values,
    "cut_mid_column": _cut_mid_column,
    "extra_bytes": _extra_bytes,
    "header_only": _header_only,
    "format_2": _as_format_2,
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
        _write_entry(path, {"format": 1, "key": key, "payload": payload})
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
        entry = _read_entry(store.path_for(store.unit_key(spec, 0)))
        MALFORMED_PACKED[case](entry)
        with pytest.raises(ValueError) as raised:
            UnitResult.from_columns(
                entry.header["payload"], bytes(entry.tail or b"")
            )
        assert raised.type is MalformedHistoryError

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
        entry = _read_entry(path)
        MALFORMED_PACKED[case](entry)
        _write_entry(path, entry.header, entry.tail)
        fresh = SweepStore(tmp_path)
        artifacts, report = run_sweep_cached(specs, store=fresh)
        assert artifacts[0].to_json() == expected
        assert fresh.stats.corrupt == 1
        assert fresh.stats.hits == 1 and fresh.stats.misses == 1
        assert report.cache_hits == 1 and report.computed == 1
        assert path.read_bytes() == good_bytes

    def test_every_8_byte_cut_is_a_miss_then_rewritten(self, clean, tmp_path):
        """What an OS crash inside a write group can leave: the entry cut
        to zero length or at any 8-byte boundary (inside the header line,
        inside and between the columns).  Each cut is a counted corrupt
        miss, and the sweep rewrites the entry."""
        spec, expected = clean
        store = SweepStore(tmp_path)
        run_sweep_cached([spec], store=store)
        path = store.path_for(store.unit_key(spec, 0))
        good_bytes = path.read_bytes()
        for cut in range(0, len(good_bytes), 8):
            path.write_bytes(good_bytes[:cut])
            fresh = SweepStore(tmp_path)
            artifacts, report = run_sweep_cached([spec], store=fresh)
            assert fresh.stats.corrupt == 1, cut
            assert report.computed == 1, cut
            assert artifacts[0].to_json() == expected
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
        """A constant ``rps: NaN`` spec is rejected where it is built, so
        the store and storeless paths fail alike, before any unit runs
        or any entry is written."""
        store = SweepStore(tmp_path)
        errors = []
        for target in (None, store):
            with pytest.raises(ValueError) as info:
                run_sweep_cached(
                    [base_spec(workload={"kind": "constant",
                                         "params": {"rps": float("nan")}})],
                    store=target,
                    batch=batch,
                )
            errors.append(str(info.value))
        assert errors == ["workload.params.rps must be finite: nan"] * 2
        assert store.entry_paths() == []


_TRACED = {
    "autoscaler": {"kind": "workload_aware_pema", "params": {
        "workload_low": 150.0, "workload_high": 900.0,
        "start_rps": 900.0, "min_range_width": 81.25}},
    "capture": ["decision_trace", "manager_state"],
}


def _as_format_3(key, unit):
    """``unit``'s entry as the format-3 store wrote it: the channels in
    the header line's payload, the columns after it."""
    payload, body = unit.to_columns()
    header = {"history": payload["history"], **unit.channels}
    data = json.dumps(
        {"format": 3, "key": key, "payload": header}, sort_keys=True
    ).encode()
    data += b" " * (-(len(data) + 1) % 8) + b"\n"
    return data + b"".join(column.tobytes() for column in body[:3])


def _flip_channel_byte(entry):
    """One byte inside the last channel's text, its CRC-32 unchanged."""
    entry.tail[-2] ^= 0x01


def _cut_channel(entry):
    del entry.tail[-5:]


def _trailing_bytes(entry):
    entry.tail += b"  "


def _longer_channel_in_table(entry):
    entry.header["payload"]["channels"]["decision_trace"][0] += 1


DAMAGED_CHANNELS = {
    "flipped_byte": _flip_channel_byte,
    "cut_inside_channel": _cut_channel,
    "trailing_bytes": _trailing_bytes,
    "table_length_mismatch": _longer_channel_in_table,
}


class TestStoreFormat:
    """Format-4 unit entries: older-format upgrade, size, channel checks,
    decode-once."""

    def test_v1_entry_is_a_miss_rewritten_as_v2(self, tmp_path):
        """Entries of an older format (here 1 and 3) are counted corrupt
        misses, recomputed and rewritten as format 4."""
        specs = [base_spec(repeats=2, **_TRACED), base_spec(seed=5)]
        expected = [a.to_json() for a in run_sweep_cached(specs)[0]]
        store = SweepStore(tmp_path)
        for spec in specs:
            for repeat in range(spec.repeats):
                key = store.unit_key(spec, repeat)
                payload = _run_unit_worker(spec.to_dict(), repeat)
                if repeat:
                    # A format-1 entry: the records payload.
                    store.put_raw(key, payload)
                else:
                    path = store.path_for(key)
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_bytes(
                        _as_format_3(key, UnitResult.from_payload(payload))
                    )
        fresh = SweepStore(tmp_path)
        artifacts, report = run_sweep_cached(specs, store=fresh)
        assert [a.to_json() for a in artifacts] == expected
        assert fresh.stats.corrupt == 3 and fresh.stats.hits == 0
        assert report.cache_hits == 0 and report.computed == 3
        for path in fresh.entry_paths():
            header = _read_entry(path).header
            assert header["format"] == UNIT_FORMAT
            assert set(header["payload"]) == {"channels", "history"}
        warm = SweepStore(tmp_path)
        artifacts, report = run_sweep_cached(specs, store=warm, batch=True)
        assert [a.to_json() for a in artifacts] == expected
        assert report.cache_hits == 3 and warm.stats.corrupt == 0

    @pytest.mark.parametrize("case", sorted(DAMAGED_CHANNELS))
    def test_damaged_channel_is_a_corrupt_miss(self, case, tmp_path):
        """A damaged channel fails at read time, never later: a counted
        corrupt miss, recomputed, with the entry's bytes restored."""
        spec = base_spec(**_TRACED)
        specs = [spec, base_spec(seed=3)]
        store = SweepStore(tmp_path)
        cold, _ = run_sweep_cached(specs, store=store)
        path = store.path_for(store.unit_key(spec, 0))
        good_bytes = path.read_bytes()
        entry = _read_entry(path)
        assert frame_entry(entry.header, entry.tail) == good_bytes
        DAMAGED_CHANNELS[case](entry)
        path.write_bytes(frame_entry(entry.header, entry.tail))
        fresh = SweepStore(tmp_path)
        artifacts, report = run_sweep_cached(specs, store=fresh)
        assert fresh.stats.corrupt == 1
        assert report.cache_hits == 1 and report.computed == 1
        assert path.read_bytes() == good_bytes
        assert [a.to_json() for a in artifacts] == [a.to_json() for a in cold]

    @pytest.mark.parametrize("unit_entry", [False, True])
    def test_key_differing_only_as_int_vs_float_is_a_miss(
        self, tmp_path, unit_entry
    ):
        """``60`` and ``60.0`` are equal in Python but encode, and so
        hash, differently: an intact entry of the one key placed under
        the other's path is a corrupt miss."""
        store = SweepStore(tmp_path)
        spec = base_spec()
        payload = _run_unit_worker(spec.to_dict(), 0)
        if unit_entry:
            payload = UnitResult.from_payload(payload)
        fmt = UNIT_FORMAT if unit_entry else 1
        as_int = {"kind": "label", "interval": 60}
        as_float = {"kind": "label", "interval": 60.0}
        assert as_int == as_float
        for stored, requested in ((as_int, as_float), (as_float, as_int)):
            store.put_raw(stored, payload)
            assert store.get_raw(stored, entry_format=fmt) is not None
            target = store.path_for(requested)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(store.path_for(stored).read_bytes())
            corrupt = store.stats.corrupt
            assert store.get_raw(requested, entry_format=fmt) is None
            assert store.stats.corrupt == corrupt + 1
            store.clear()

    def test_stored_unit_pickles_and_equals_eager(self, tmp_path):
        import pickle

        spec = base_spec(**_TRACED)
        store = SweepStore(tmp_path)
        eager = UnitResult.from_payload(_run_unit_worker(spec.to_dict(), 0))
        good_bytes = store.put_result(spec, 0, eager).read_bytes()
        stored = store.get_result(spec, 0)
        # Re-stored, undecoded or decoded, a unit writes the bytes it
        # was read from.
        assert store.put_result(spec, 0, stored).read_bytes() == good_bytes
        copy = pickle.loads(pickle.dumps(stored))
        assert copy == eager and stored == eager
        assert dumps(copy.to_payload()) == dumps(eager.to_payload())
        assert store.put_result(spec, 0, copy).read_bytes() == good_bytes

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
        one decodes each unit's columns once and no channel: a channel
        is decoded once, when its artifact field is first read, and
        neither the report's count nor a worker's fast-forward over
        persisted units decodes one."""
        import repro.metrics.export as export_mod
        from repro.sweeps.distributed import run_worker

        calls = []

        def counting(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        for name in (
            "loop_result_to_dict",
            "loop_result_from_dict",
            "_history_from_columns",
            "_decode_channel",
        ):
            monkeypatch.setattr(
                export_mod, name, counting(getattr(export_mod, name))
            )
        specs = [
            base_spec(repeats=2, capture=["decision_trace", "manager_state"]),
            base_spec(seed=5, **_TRACED),
        ]
        store = SweepStore(tmp_path)
        cold, cold_report = run_sweep_cached(specs, store=store, batch=batch)
        assert cold_report.computed == 3
        assert calls == []
        warm, report = run_sweep_cached(specs, store=store, batch=batch)
        assert report.cache_hits == 3
        assert calls == ["_history_from_columns"] * 3
        assert report.manager_states == cold_report.manager_states == 1
        assert [a.summary_json() for a in warm] == [
            a.summary_json() for a in cold
        ]
        calls.clear()
        for artifact, expected in zip(warm, cold):
            for _ in range(2):  # the second read decodes nothing
                assert artifact.decision_traces == expected.decision_traces
        assert calls == ["_decode_channel"] * 3
        calls.clear()
        assert [a.to_json() for a in warm] == [a.to_json() for a in cold]
        assert sorted(calls) == ["_decode_channel"] * 3 + [
            "loop_result_to_dict"
        ] * 6
        calls.clear()
        worker = run_worker(specs, store, worker_id="w0")
        assert worker.units_computed == 0
        assert "_decode_channel" not in calls


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
            ExperimentArtifact.from_units(
                spec,
                [
                    UnitResult.from_payload(_run_unit_worker(spec.to_dict(), repeat))
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

    def test_persist_phase_includes_the_barrier(self, tmp_path, monkeypatch):
        """Each chunk's entries share one barrier, which the report's
        ``persist`` phase (and ``repro sweep --profile``) times."""
        import time

        import repro.sweeps.store as store_mod

        real_barrier = store_mod._barrier
        barriers = []

        def slow_barrier(root, paths):
            barriers.append(len(paths))
            time.sleep(0.2)
            real_barrier(root, paths)

        monkeypatch.setattr(store_mod, "_barrier", slow_barrier)
        specs = small_grid().specs()
        _, report = run_sweep_cached(
            specs, store=SweepStore(tmp_path), chunk_size=4
        )
        assert barriers == [4, 4]
        phases = report.profile["phases"]
        assert phases["persist"] >= 0.4
        assert phases["run"] + phases["persist"] <= report.seconds

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

    def test_entry_bytes_are_pinned(self, fake_optimum, tmp_path):
        """OPTM entries stay format 1: one plain JSON object, no header
        line or columns, byte for byte what earlier stores wrote."""
        store = SweepStore(tmp_path)
        with optimum_store(store):
            optimum_total("sockshop", 700.0)
        (path,) = store.entry_paths()
        assert path.relative_to(tmp_path).as_posix() == (
            "28/28a3cc65d66cb28b2dd516fa39f1c7e1b59076ad5dd341e15ed35d4eb59ed5c3"
            ".json"
        )
        assert path.read_bytes() == (
            b'{"format": 1, "key": {"app": "sockshop", "format": 1, '
            b'"kind": "optimum", "restarts": 2, "workload": 700.0}, '
            b'"payload": {"allocation": [["svc", 7.0]], "evaluations": 5, '
            b'"latency": 0.1, "total_cpu": 7.0, "workload": 700.0}}'
        )

    def test_store_restored_on_error(self, fake_optimum, tmp_path):
        with pytest.raises(RuntimeError):
            with optimum_store(SweepStore(tmp_path)):
                raise RuntimeError("boom")
        assert not optimum_cache_info()["store_active"]


SRC = Path(__file__).parents[1] / "src"

# ``python -c _KILL_AT_RENAME K ARGV...``: run ``repro ARGV`` and SIGKILL
# the process as it is about to rename its (K+1)-th store entry into
# place, that entry's bytes already in a temp file beside it.
_KILL_AT_RENAME = """
import os, signal, sys
from repro.cli import main

limit, renames, replace = int(sys.argv[1]), 0, os.replace

def killing_replace(src, dst):
    global renames
    if str(dst).endswith(".json"):
        renames += 1
        if renames > limit:
            os.kill(os.getpid(), signal.SIGKILL)
    replace(src, dst)

os.replace = killing_replace
sys.exit(main(sys.argv[2:]))
"""


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

    @pytest.mark.slow
    def test_sigkill_inside_a_write_group(self, grid_file, tmp_path, capsys):
        """A sweep SIGKILLed inside a write group, after its second
        rename and with the third entry still a temp file: every entry
        in place decodes, the temp file is never read as an entry, and
        the resumed sweep writes the uninterrupted run's bytes."""
        import os
        import signal
        import subprocess
        import sys

        from repro.cli import main

        cache = tmp_path / "cache"
        killed = subprocess.run(
            [sys.executable, "-c", _KILL_AT_RENAME, "2", "sweep",
             "--grid", str(grid_file), "--cache", str(cache)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        store = SweepStore(cache)
        specs = SweepGrid.read(grid_file).specs()
        found = [store.get_result(spec, 0) for spec in specs]
        assert sum(unit is not None for unit in found) == len(store) == 2
        assert store.stats.corrupt == 0
        (stray,) = cache.rglob("*.tmp")
        assert stray not in store.entry_paths()

        resumed, whole = tmp_path / "resumed.json", tmp_path / "whole.json"
        argv = ["sweep", "--grid", str(grid_file)]
        assert main(argv + ["--cache", str(cache), "--resume",
                            "--out", str(resumed)]) == 0
        assert "4 units: 2 cached, 2 computed" in capsys.readouterr().out
        assert main(argv + ["--out", str(whole)]) == 0
        assert resumed.read_bytes() == whole.read_bytes()
        assert len(SweepStore(cache)) == 4


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
