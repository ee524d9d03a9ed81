"""Distributed sweep execution: the lease/claim protocol under chaos.

The contract under test: any number of independent workers — claiming,
racing, dying mid-task, being SIGKILLed — pull units from one shared
``SweepStore``, and the merged run is *byte-identical* to an
uninterrupted serial ``run_grid``.  Leases only bound wasted work; the
content-addressed store's idempotent writes carry correctness, which is
why every chaos schedule below must converge with nothing lost and
nothing persisted twice.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs.metrics import default_registry
from repro.sweeps import (
    LeaseNamespace,
    SweepGrid,
    SweepStore,
    grid_summary_json,
    merge_grid,
    missing_units,
    plan_tasks,
    run_distributed,
    run_grid,
    run_sweep_cached,
    run_worker,
    wait_for_grid,
    worker_reports,
)
from repro.sweeps.distributed import DEFAULT_TASK_UNITS
from tests.conftest import frame_entry, make_small_grid, make_sweep_spec

GRIDS = Path(__file__).parents[1] / "benchmarks" / "grids"


def entry_bytes(store: SweepStore) -> dict[str, bytes]:
    """Relative path -> bytes of every cache entry (the parity oracle)."""
    return {
        p.relative_to(store.root).as_posix(): p.read_bytes()
        for p in store.entry_paths()
    }


def serial_baseline(grid, root):
    """Uninterrupted serial run: the bytes every chaos run must match."""
    store = SweepStore(root)
    run = run_grid(grid, store=store)
    return grid_summary_json(run), entry_bytes(store)


def grid_specs(grid):
    return [cell.spec for cell in grid.cells()]


class Die(BaseException):
    """Raised from the on_task seam: abandons the lease like SIGKILL
    (not an ``Exception``, so the worker does not release it)."""


def dying_worker(specs, store, worker_id, die_after, *, batch=False,
                 chunk_size=1, lease_ttl=0.0):
    """Run a worker that dies after ``die_after`` claim/unit events.

    Returns True if it died mid-task (lease left on disk, unreleased).
    """
    events = 0

    def on_task(stage, task):
        nonlocal events
        if stage in ("claimed", "unit"):
            events += 1
            if events > die_after:
                raise Die(task.task_id)

    try:
        run_worker(
            specs, store, worker_id=worker_id, lease_ttl=lease_ttl,
            chunk_size=chunk_size, batch=batch, poll_interval=0.0,
            on_task=on_task,
        )
    except Die:
        return True
    return False


class TestLeaseNamespace:
    def test_fresh_acquire_is_exclusive(self, tmp_path):
        ns = LeaseNamespace(tmp_path / "leases")
        lease = ns.acquire("task-00000", "alice", ttl=60.0)
        assert lease is not None and not lease.stolen
        assert ns.acquire("task-00000", "bob", ttl=60.0) is None
        record = ns.read("task-00000")
        assert record["worker"] == "alice"
        assert record["token"] == lease.token

    def test_expired_lease_stolen_and_holder_recorded(self, tmp_path):
        ns = LeaseNamespace(tmp_path / "leases")
        now = 1000.0
        assert ns.acquire("t", "alice", ttl=5.0, now=now) is not None
        assert ns.acquire("t", "bob", ttl=5.0, now=now + 4.9) is None
        stolen = ns.acquire("t", "bob", ttl=5.0, now=now + 5.1)
        assert stolen is not None
        assert stolen.stolen and stolen.stolen_from == "alice"
        assert ns.read("t")["worker"] == "bob"

    def test_renew_extends_and_checks_token(self, tmp_path):
        ns = LeaseNamespace(tmp_path / "leases")
        lease = ns.acquire("t", "alice", ttl=5.0, now=1000.0)
        renewed = ns.renew(lease, ttl=5.0, now=1003.0)
        assert renewed.expires == 1008.0
        assert renewed.renewals == 1
        # A stealer takes over; the old holder's renew/release must fail.
        thief = ns.acquire("t", "bob", ttl=5.0, now=2000.0)
        assert thief.stolen
        assert ns.renew(renewed, ttl=5.0, now=2001.0) is None
        assert ns.release(renewed) is False
        assert ns.read("t")["worker"] == "bob"
        assert ns.release(thief) is True
        assert ns.read("t") is None

    def test_unreadable_fresh_file_is_not_stolen(self, tmp_path):
        # A reader can catch a lease between exclusive create and content
        # write; a fresh-by-mtime garbage file must be left alone.
        ns = LeaseNamespace(tmp_path / "leases")
        ns.path_for("t").write_text("{not json")
        assert ns.acquire("t", "bob", ttl=60.0) is None

    def test_unreadable_stale_file_is_reclaimed(self, tmp_path):
        ns = LeaseNamespace(tmp_path / "leases")
        path = ns.path_for("t")
        path.write_text("{not json")
        old = time.time() - 120.0
        os.utime(path, (old, old))
        lease = ns.acquire("t", "bob", ttl=60.0)
        assert lease is not None
        # Garbage has no recorded holder, so there's nobody to be
        # "stolen from" — the takeover reads as a fresh claim.
        assert not lease.stolen
        assert ns.read("t")["worker"] == "bob"

    @pytest.mark.parametrize(
        "expires", [None, [1], "soon", True, {"t": 1}, float("nan"), 10**400]
    )
    def test_non_numeric_expiry_is_unreadable(self, tmp_path, expires):
        # A foreign or hand-edited record whose expiry is not a finite
        # real number reads as garbage: the mtime rule decides, and
        # neither acquire nor the worker loop's expiry probe raises.
        ns = LeaseNamespace(tmp_path / "leases")
        path = ns.path_for("t")
        path.write_text(
            json.dumps({"worker": "mallory", "token": "x", "expires": expires})
        )
        assert ns.read("t") is None
        assert ns.acquire("t", "bob", ttl=60.0) is None  # fresh by mtime
        old = time.time() - 120.0
        os.utime(path, (old, old))
        lease = ns.acquire("t", "bob", ttl=60.0)
        assert lease is not None and not lease.stolen
        assert ns.read("t")["worker"] == "bob"

    def test_zero_ttl_makes_leases_instantly_stale(self, tmp_path):
        ns = LeaseNamespace(tmp_path / "leases")
        assert ns.acquire("t", "alice", ttl=0.0, now=1000.0) is not None
        stolen = ns.acquire("t", "bob", ttl=0.0, now=1000.0)
        assert stolen is not None and stolen.stolen_from == "alice"


class TestPlan:
    def test_plan_is_deterministic(self):
        specs = grid_specs(make_small_grid())
        a = plan_tasks(specs, 3)
        b = plan_tasks(list(specs), 3)
        assert a == b

    def test_chunk_size_changes_namespace(self):
        specs = grid_specs(make_small_grid())
        assert plan_tasks(specs, 2).plan_id != plan_tasks(specs, 4).plan_id

    def test_chunking_covers_every_unit_once(self):
        specs = grid_specs(make_small_grid())  # 4 cells x 2 repeats
        plan = plan_tasks(specs, 3)
        assert plan.n_units == 8
        sizes = [len(task.units) for task in plan.tasks]
        assert sizes == [3, 3, 2]
        assert [t.task_id for t in plan.tasks] == [
            "task-00000", "task-00001", "task-00002"
        ]
        flat = [unit for task in plan.tasks for unit in task.units]
        assert sorted(flat) == sorted(set(flat))
        assert len(flat) == plan.n_units

    def test_queue_namespace_disjoint_from_entries(self, sweep_store):
        grid = make_small_grid()
        run_worker(grid_specs(grid), sweep_store, worker_id="w0")
        assert len(sweep_store) == 8
        for path in sweep_store.entry_paths():
            assert "_queue" not in path.parts


class TestSingleWorker:
    def test_byte_identical_to_serial(self, tmp_path, sweep_store):
        grid = make_small_grid()
        summary, payload_bytes = serial_baseline(grid, tmp_path / "serial")
        report = run_worker(grid_specs(grid), sweep_store, worker_id="w0")
        assert report.tasks_done == report.tasks_total
        assert report.units_computed == 8
        run = merge_grid(grid, sweep_store)
        assert grid_summary_json(run) == summary
        assert entry_bytes(sweep_store) == payload_bytes
        # Merge is a pure read: byte-stable on every call.
        assert grid_summary_json(merge_grid(grid, sweep_store)) == summary

    def test_batched_worker_byte_identical(self, tmp_path, sweep_store):
        grid = make_small_grid()
        summary, payload_bytes = serial_baseline(grid, tmp_path / "serial")
        report = run_worker(
            grid_specs(grid), sweep_store, worker_id="w0", batch=True
        )
        assert report.units_batched == 8
        assert grid_summary_json(merge_grid(grid, sweep_store)) == summary
        assert entry_bytes(sweep_store) == payload_bytes

    def test_fast_forward_prepopulated_store(self, sweep_store):
        grid = make_small_grid()
        run_grid(grid, store=sweep_store)
        specs = grid_specs(grid)
        report = run_worker(specs, sweep_store, worker_id="late")
        assert report.tasks_claimed == 0
        assert report.units_computed == 0
        plan = plan_tasks(specs)
        done_dir = sweep_store.queue_root(plan.plan_id) / "done"
        markers = [
            json.loads(p.read_text()) for p in sorted(done_dir.glob("*.json"))
        ]
        assert len(markers) == len(plan.tasks)
        assert all(m.get("fast_forward") for m in markers)

    def test_max_tasks_bounds_claims_then_resume(self, tmp_path, sweep_store):
        grid = make_small_grid()
        summary, _ = serial_baseline(grid, tmp_path / "serial")
        specs = grid_specs(grid)
        first = run_worker(
            specs, sweep_store, worker_id="w0", chunk_size=2, max_tasks=1
        )
        assert first.tasks_claimed == 1
        assert missing_units(specs, sweep_store)
        second = run_worker(specs, sweep_store, worker_id="w1", chunk_size=2)
        assert second.tasks_done == 3
        assert not missing_units(specs, sweep_store)
        assert grid_summary_json(merge_grid(grid, sweep_store)) == summary

    def test_worker_report_persisted(self, sweep_store):
        grid = make_small_grid()
        specs = grid_specs(grid)
        run_worker(specs, sweep_store, worker_id="w0")
        reports = worker_reports(sweep_store, plan_tasks(specs).plan_id)
        assert [r["worker"] for r in reports] == ["w0"]
        assert reports[0]["tasks_done"] == reports[0]["tasks_total"]


class TestFailingUnit:
    def test_raising_unit_releases_its_lease(self, sweep_store):
        """A unit that raises frees its task: no lease file is left, and
        a second worker fails the same way at once instead of polling
        until the first worker's lease expires."""
        specs = [
            make_sweep_spec(
                workload={"kind": "constant", "params": {"rps": -5.0}}
            )
        ]
        with pytest.raises(ValueError, match="rps") as first:
            run_worker(specs, sweep_store, worker_id="w0")
        plan = plan_tasks(specs)
        leases = sweep_store.queue_root(plan.plan_id) / "leases"
        assert list(leases.iterdir()) == []

        def no_sleep(seconds):
            raise AssertionError(f"worker polled for {seconds} s")

        with pytest.raises(ValueError) as second:
            run_worker(specs, sweep_store, worker_id="w1", sleep=no_sleep)
        assert str(second.value) == str(first.value)
        assert list(leases.iterdir()) == []
        assert sweep_store.entry_paths() == []


class TestDurabilityOrder:
    """A done marker asserts that its task's entries are durable: the
    worker's own puts fsync each entry, and one barrier over the entries
    it found completes before the marker is written."""

    @pytest.fixture
    def events(self, monkeypatch):
        import repro.sweeps.distributed as dist
        import repro.sweeps.store as store_mod

        log = []
        real_barrier = store_mod._barrier
        real_mark = dist._DoneSet.mark
        real_put = store_mod.JsonDirectoryStore.put_raw

        def barrier(root, paths):
            real_barrier(root, paths)
            log.append("barrier")

        def mark(self, task_id, payload):
            log.append("done")
            real_mark(self, task_id, payload)

        def put_raw(self, key_obj, payload):
            # Outside a write group a put fsyncs its own entry.
            log.append("put" if self._group is None else "grouped put")
            return real_put(self, key_obj, payload)

        monkeypatch.setattr(store_mod, "_barrier", barrier)
        monkeypatch.setattr(dist._DoneSet, "mark", mark)
        monkeypatch.setattr(store_mod.JsonDirectoryStore, "put_raw", put_raw)
        return log

    @staticmethod
    def before_each_marker(log):
        """The events since the previous marker, for each marker."""
        segments, current = [], []
        for event in log:
            if event == "done":
                segments.append(current)
                current = []
            else:
                current.append(event)
        return segments

    def test_written_entries_are_fsynced_before_each_done_marker(
        self, sweep_store, events
    ):
        specs = grid_specs(make_small_grid())
        report = run_worker(specs, sweep_store, worker_id="w0", chunk_size=2)
        segments = self.before_each_marker(events)
        assert len(segments) == report.tasks_done == 4
        assert segments == [["put", "put"]] * 4

    def test_found_entries_get_a_barrier_before_the_marker(
        self, sweep_store, events
    ):
        """Fast-forwarded tasks, and a claimed task whose other units
        another process wrote, name entries this worker did not write: a
        barrier covers them."""
        grid = make_small_grid()
        specs = grid_specs(grid)
        run_grid(grid, store=sweep_store)
        sweep_store.path_for(sweep_store.unit_key(specs[1], 1)).unlink()
        events.clear()
        report = run_worker(specs, sweep_store, worker_id="w0", chunk_size=2)
        assert report.tasks_claimed == 1 and report.units_computed == 1
        segments = self.before_each_marker(events)
        assert sorted(segments) == sorted(
            [["barrier"]] * 3 + [["barrier", "put"]]
        )

    def test_lease_renewal_inside_a_group_still_fsyncs(
        self, sweep_store, monkeypatch
    ):
        fsyncs = []
        real_fsync = os.fsync

        def fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        leases = LeaseNamespace(sweep_store.root / "queue" / "leases")
        lease = leases.acquire("t0", "w0", 60.0)
        fsyncs.clear()
        with sweep_store.write_group():
            sweep_store.put_raw({"kind": "grouped"}, {"n": 1})
            assert fsyncs == []
            renewed = leases.renew(lease, 60.0)
            assert renewed is not None and renewed.renewals == 1
            assert len(fsyncs) == 1


class TestMergeAndWait:
    def test_merge_names_missing_units(self, sweep_store):
        grid = make_small_grid()
        with pytest.raises(LookupError, match="missing"):
            merge_grid(grid, sweep_store)

    def test_merge_repairs_malformed_entry(self, tmp_path, sweep_store):
        """An entry whose history does not decode must not wedge the sweep.

        The workers' done markers keep a rerun from recomputing it, and
        a coordinator counts it as persisted, so the merge repairs it
        the way the scheduler does: recompute the unit, count a corrupt
        miss, and overwrite the entry.
        """
        grid = SweepGrid.read(GRIDS / "ci_smoke.json")
        specs = grid_specs(grid)
        serial, _ = run_sweep_cached(
            specs, store=SweepStore(tmp_path / "serial")
        )
        run_worker(specs, sweep_store, worker_id="w0")
        path = sweep_store.path_for(sweep_store.unit_key(specs[0], 0))
        good_bytes = path.read_bytes()
        # One interval more than the columns hold: a length mismatch.
        header, tail = good_bytes.split(b"\n", 1)
        entry = json.loads(header)
        entry["payload"]["history"]["n"] += 1
        path.write_bytes(frame_entry(entry, tail))
        rerun = run_worker(specs, sweep_store, worker_id="w1")
        assert rerun.units_computed == 0
        assert missing_units(specs, SweepStore(sweep_store.root)) == []
        run = merge_grid(grid, sweep_store)
        assert [a.to_json() for a in run.artifacts] == [
            a.to_json() for a in serial
        ]
        assert run.report.computed == 1
        assert run.report.cache_hits == len(specs) - 1
        assert sweep_store.stats.corrupt == 1
        assert path.read_bytes() == good_bytes
        # Repaired once, the store merges as a pure read again.
        assert merge_grid(grid, sweep_store).report.computed == 0

    def test_worker_recomputes_corrupt_entry(self, tmp_path, sweep_store):
        """A corrupt entry with no done marker over it reads as absent:
        the worker's claim check decodes each unit once, stops at the
        corrupt one, and the worker computes exactly that unit and
        rewrites its entry."""
        grid = make_small_grid()
        specs = grid_specs(grid)
        summary, payload_bytes = serial_baseline(grid, tmp_path / "serial")
        run_sweep_cached(specs, store=sweep_store)
        path = sweep_store.path_for(sweep_store.unit_key(specs[1], 1))
        header, tail = path.read_bytes().split(b"\n", 1)
        n = json.loads(header)["payload"]["history"]["n"]
        # The violated column is last: make every flag a 2.
        path.write_bytes(header + b"\n" + tail[:-n] + bytes([2]) * n)
        report = run_worker(specs, sweep_store, worker_id="w0")
        assert report.units_computed == 1
        assert report.units_cached == DEFAULT_TASK_UNITS - 1
        assert report.tasks_claimed == 1
        assert sweep_store.stats.corrupt == 1  # one probe per unit
        assert entry_bytes(sweep_store) == payload_bytes
        run = merge_grid(grid, sweep_store)
        assert run.report.computed == 0
        assert grid_summary_json(run) == summary

    def test_wait_times_out(self, sweep_store):
        grid = make_small_grid()
        with pytest.raises(TimeoutError, match="missing"):
            wait_for_grid(
                grid, sweep_store, timeout=0.05, poll_interval=0.01
            )

    def test_wait_merges_once_worker_finishes(self, tmp_path, sweep_store):
        grid = make_small_grid()
        summary, _ = serial_baseline(grid, tmp_path / "serial")
        worker = threading.Thread(
            target=run_worker,
            args=(grid_specs(grid), sweep_store),
            kwargs=dict(worker_id="bg"),
        )
        progress = []
        worker.start()
        try:
            run = wait_for_grid(
                grid, sweep_store, timeout=60.0, poll_interval=0.01,
                on_progress=lambda present, total: progress.append(
                    (present, total)
                ),
            )
        finally:
            worker.join()
        assert grid_summary_json(run) == summary
        assert progress[-1] == (8, 8)


class TestChaosInProcess:
    def test_dead_worker_lease_stolen_and_sweep_healed(
        self, tmp_path, sweep_store
    ):
        grid = make_small_grid()
        summary, payload_bytes = serial_baseline(grid, tmp_path / "serial")
        specs = grid_specs(grid)
        assert dying_worker(specs, sweep_store, "victim", die_after=2)
        plan = plan_tasks(specs, 1)
        leases = sweep_store.queue_root(plan.plan_id) / "leases"
        assert list(leases.glob("*.json"))  # the abandoned claim
        healer = run_worker(
            specs, sweep_store, worker_id="healer", lease_ttl=0.0,
            chunk_size=1, poll_interval=0.0,
        )
        assert healer.tasks_stolen >= 1
        assert not missing_units(specs, sweep_store)
        assert grid_summary_json(merge_grid(grid, sweep_store)) == summary
        assert entry_bytes(sweep_store) == payload_bytes

    def test_metrics_counters_increment(self, sweep_store):
        registry = default_registry()
        names = (
            "repro_dist_claims_total",
            "repro_dist_steals_total",
            "repro_dist_tasks_done_total",
            "repro_dist_heartbeats_total",
        )
        before = {n: registry.get(n).value() or 0.0 for n in names}
        grid = make_small_grid()
        specs = grid_specs(grid)
        dying_worker(specs, sweep_store, "victim", die_after=0)
        run_worker(
            specs, sweep_store, worker_id="healer", lease_ttl=0.0,
            chunk_size=1, poll_interval=0.0,
        )
        after = {n: registry.get(n).value() or 0.0 for n in names}
        for name in names:
            assert after[name] > before[name], name


class TestRunDistributed:
    def test_two_process_run_byte_identical(self, tmp_path, sweep_store):
        grid = make_small_grid()
        summary, payload_bytes = serial_baseline(grid, tmp_path / "serial")
        run, reports = run_distributed(
            grid, sweep_store, workers=2, chunk_size=2
        )
        assert grid_summary_json(run) == summary
        assert entry_bytes(sweep_store) == payload_bytes
        by_worker = {r["worker"]: r for r in reports if "worker" in r}
        assert set(by_worker) == {"worker-0", "worker-1"}
        assert not any("worker_exit_codes" in r for r in reports)
        assert sum(r["tasks_done"] for r in by_worker.values()) >= 4
        assert run.report.units == 8 and run.report.cache_hits == 8

    def test_dead_workers_are_named_by_exit_code(
        self, sweep_store, monkeypatch
    ):
        # Forked workers inherit the patch: each dies before any unit.
        monkeypatch.setattr(
            "repro.sweeps.distributed.run_worker",
            lambda *args, **kwargs: os._exit(3),
        )
        with pytest.raises(LookupError) as info:
            run_distributed(
                make_small_grid(), sweep_store, workers=2,
                mp_context=multiprocessing.get_context("fork"),
            )
        assert str(info.value) == (
            "worker(s) died before the grid finished: "
            "worker-0 (exit code 3), worker-1 (exit code 3)"
        )


def _victim_entry(specs_data, store_root, flag_path, kwargs):
    """A worker that freezes after its second claim (module-level for mp).

    It completes one task, claims the next, touches ``flag_path`` and then
    hangs while holding that live lease — the parent SIGKILLs it there, so
    the kill deterministically lands mid-chunk with an uncomputed unit
    behind a held lease.
    """
    from pathlib import Path

    from repro.experiments.spec import ExperimentSpec

    specs = [ExperimentSpec.from_dict(data) for data in specs_data]
    claims = 0

    def on_task(stage, task):
        nonlocal claims
        if stage == "claimed":
            claims += 1
            if claims == 2:
                Path(flag_path).touch()
                time.sleep(300.0)

    run_worker(specs, SweepStore(store_root), on_task=on_task, **kwargs)


@pytest.mark.slow
class TestSigkillChaos:
    def test_sigkill_mid_chunk_heals_byte_identical(self, tmp_path):
        grid = make_small_grid(base=make_sweep_spec(repeats=1))
        summary, payload_bytes = serial_baseline(grid, tmp_path / "serial")
        specs = grid_specs(grid)
        store = SweepStore(tmp_path / "shared")
        flag = tmp_path / "victim-blocked"
        ctx = multiprocessing.get_context()
        victim = ctx.Process(
            target=_victim_entry,
            args=(
                [spec.to_dict() for spec in specs],
                str(store.root),
                str(flag),
                dict(worker_id="victim", lease_ttl=1.0, chunk_size=1),
            ),
        )
        victim.start()
        try:
            deadline = time.time() + 60.0
            while not flag.exists():
                assert time.time() < deadline, "victim never blocked"
                assert victim.is_alive(), "victim exited prematurely"
                time.sleep(0.005)
            # Mid-chunk by construction: one task finished, a live lease
            # held on the next, its unit not yet computed.
            plan = plan_tasks(specs, 1)
            leases_dir = store.queue_root(plan.plan_id) / "leases"
            assert len(list(leases_dir.glob("*.json"))) == 1
            assert len(store) >= 1
            assert missing_units(specs, store)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            assert victim.exitcode == -signal.SIGKILL
        finally:
            if victim.is_alive():
                victim.kill()
                victim.join()

        healer = run_worker(
            specs, store, worker_id="healer", lease_ttl=0.2,
            chunk_size=1, poll_interval=0.01,
        )
        # The abandoned lease was reclaimed, no cell was lost, and the
        # merged bytes match the uninterrupted serial run.
        assert healer.tasks_stolen >= 1
        assert not missing_units(specs, store)
        assert grid_summary_json(merge_grid(grid, store)) == summary
        assert entry_bytes(store) == payload_bytes
        reports = worker_reports(store, plan.plan_id)
        assert [r["worker"] for r in reports] == ["healer"]


@pytest.mark.slow
class TestDistributedProperty:
    """Random fleets x random death schedules ≡ one serial run."""

    _BASELINE: dict[str, object] = {}

    @classmethod
    def tiny_grid(cls):
        return make_small_grid(
            base=make_sweep_spec(repeats=1, n_steps=2),
            axes=(
                {"name": "workload", "path": "workload",
                 "values": [600.0, 650.0, 700.0]},
            ),
        )

    @classmethod
    def baseline(cls):
        if not cls._BASELINE:
            with tempfile.TemporaryDirectory() as root:
                summary, payload_bytes = serial_baseline(
                    cls.tiny_grid(), root
                )
            cls._BASELINE["summary"] = summary
            cls._BASELINE["bytes"] = payload_bytes
        return cls._BASELINE["summary"], cls._BASELINE["bytes"]

    @settings(max_examples=12, deadline=None)
    @given(
        chunk_size=st.integers(min_value=1, max_value=3),
        batch=st.booleans(),
        deaths=st.lists(
            st.integers(min_value=0, max_value=3), min_size=0, max_size=3
        ),
        survivors=st.integers(min_value=1, max_value=2),
    )
    def test_any_schedule_converges_byte_identical(
        self, chunk_size, batch, deaths, survivors
    ):
        grid = self.tiny_grid()
        summary, payload_bytes = self.baseline()
        specs = grid_specs(grid)
        with tempfile.TemporaryDirectory() as root:
            store = SweepStore(root)
            for index, die_after in enumerate(deaths):
                dying_worker(
                    specs, store, f"victim-{index}", die_after,
                    batch=batch, chunk_size=chunk_size,
                )
            for index in range(survivors):
                run_worker(
                    specs, store, worker_id=f"survivor-{index}",
                    lease_ttl=0.0, chunk_size=chunk_size, batch=batch,
                    poll_interval=0.0,
                )
            # Every unit computed at least once, persisted exactly once,
            # and the merged aggregates match the serial bytes.
            assert not missing_units(specs, store)
            assert len(store) == 3
            assert entry_bytes(store) == payload_bytes
            assert grid_summary_json(merge_grid(grid, store)) == summary


class TestCliValidation:
    def _grid_file(self, tmp_path):
        return str(make_small_grid().write(tmp_path / "grid.json"))

    def test_worker_and_coordinator_exclusive(self, tmp_path, capsys):
        code = main(["sweep", "--grid", self._grid_file(tmp_path),
                     "--cache", str(tmp_path / "c"),
                     "--worker", "--coordinator"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_worker_needs_cache(self, tmp_path, capsys):
        code = main(["sweep", "--grid", self._grid_file(tmp_path),
                     "--worker"])
        assert code == 2
        assert "--cache" in capsys.readouterr().err

    def test_workers_needs_coordinator(self, tmp_path, capsys):
        code = main(["sweep", "--grid", self._grid_file(tmp_path),
                     "--cache", str(tmp_path / "c"), "--workers", "2"])
        assert code == 2
        assert "--coordinator" in capsys.readouterr().err

    def test_lease_ttl_must_be_positive(self, tmp_path, capsys):
        code = main(["sweep", "--grid", self._grid_file(tmp_path),
                     "--cache", str(tmp_path / "c"), "--worker",
                     "--lease-ttl", "0"])
        assert code == 2
        assert "--lease-ttl" in capsys.readouterr().err

    def test_worker_then_coordinator_merge(self, tmp_path, capsys):
        grid_file = self._grid_file(tmp_path)
        cache = str(tmp_path / "cache")
        out = str(tmp_path / "run.json")
        assert main(["sweep", "--grid", grid_file, "--cache", cache,
                     "--worker", "--worker-id", "w0"]) == 0
        assert "task(s) claimed" in capsys.readouterr().out
        assert main(["sweep", "--grid", grid_file, "--cache", cache,
                     "--coordinator", "--wait-timeout", "30",
                     "--out", out]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "run.json").read_text())
        assert len(summary["cells"]) == 4

    def test_coordinator_reports_a_rejected_cell(self, tmp_path, capfd):
        # Same ending as ``--worker`` on this grid: the cell's error
        # against the grid file, exit status 2, no worker traceback.
        grid = tmp_path / "grid.json"
        grid.write_text(
            '{"name": "g", "base": {"app": "hotelreservation", "n_steps": 4, '
            '"workload": {"kind": "constant", "params": {"rps": 400.0}}}, '
            '"axes": [{"name": "rps", "path": "workload.params.rps", '
            '"values": [400.0, -5.0]}]}'
        )
        code = main(["sweep", "--grid", str(grid),
                     "--cache", str(tmp_path / "cache"),
                     "--coordinator", "--workers", "2"])
        err = capfd.readouterr().err
        assert code == 2
        assert err == f"error: {grid}: rps must be >= 0\n"
