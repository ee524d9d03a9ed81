"""Distributed sweep execution: lease/claim workers over a shared store.

``run_sweep_cached`` tops out at one machine's process pool.  This module
turns the content-addressed :class:`~repro.sweeps.store.SweepStore` into a
work queue so N *independent* worker processes — on one machine or on many
hosts sharing the store directory — pull chunks of (spec, repeat) units
from the same grid:

* **deterministic plan** — every worker expands the same spec list into
  the same ordered unit list and chunks it into the same tasks, so the
  plan id (a content hash over the unit keys plus the chunk size) is the
  rendezvous: no coordinator hands out work;
* **lease/claim** — a worker claims a task by exclusively creating its
  lease file (:class:`~repro.sweeps.store.LeaseNamespace`), heartbeats
  the lease while computing, and releases it after writing the task's
  done marker; a worker that dies mid-task leaves an expiring lease that
  any surviving worker reclaims (a *steal*);
* **dedupe** — before computing a unit the worker probes the store by
  content hash, so units another worker (or a previous run) already
  persisted are skipped, and a task whose units are all present is
  fast-forwarded to done without being claimed; a corrupt entry reads
  as absent, so the worker recomputes and rewrites it;
* **byte-identity** — workers compute units through the local
  scheduler's own :func:`~repro.sweeps.scheduler.compute_units`, so the
  merged artifacts, aggregate summary, and store entries are
  byte-identical to a serial ``run_sweep_cached`` no matter how many
  workers ran, died, or raced.

Leases bound *wasted* work, they do not guard correctness: in the worst
interleavings two workers both compute a unit, and both write the same
bytes under the same content-addressed key.  That inversion — idempotent
writes below, advisory claims above — is what lets the protocol survive
SIGKILL with nothing to clean up or roll back.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import socket
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.experiments.artifact import ExperimentArtifact
from repro.experiments.spec import ExperimentSpec
from repro.metrics.export import UnitResult
from repro.obs.metrics import default_registry
from repro.sweeps.grid import SweepCell, SweepGrid
from repro.sweeps.scheduler import (
    GridRun,
    SweepReport,
    _partition_chunk,
    _sweep_report,
    build_artifacts,
    compute_units,
)
from repro.sweeps.store import (
    Lease,
    LeaseNamespace,
    SweepStore,
    _write_json_replace,
    canonical_key,
)

__all__ = [
    "DistPlan",
    "DistTask",
    "WorkerReport",
    "plan_tasks",
    "run_worker",
    "missing_units",
    "merge_grid",
    "wait_for_grid",
    "run_distributed",
    "worker_reports",
    "default_worker_id",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_TASK_UNITS",
]

#: Default lease time-to-live in seconds.  Must comfortably exceed the
#: worker's heartbeat interval (TTL/2, between units) plus the longest
#: single compute call — one scalar unit, or one whole batched group.
DEFAULT_LEASE_TTL = 30.0

#: Default units per claimable task.  Smaller tasks balance better and
#: lose less work to a steal; larger tasks amortize claim traffic and
#: give ``batch=True`` bigger vectorized groups.
DEFAULT_TASK_UNITS = 4

_REG = default_registry()
_DIST_CLAIMS = _REG.counter(
    "repro_dist_claims_total",
    "Distributed sweep tasks claimed (fresh leases acquired).",
)
_DIST_STEALS = _REG.counter(
    "repro_dist_steals_total",
    "Expired leases reclaimed from dead or stalled workers.",
)
_DIST_EXPIRED = _REG.counter(
    "repro_dist_lease_expired_total",
    "Expired foreign leases observed during claim scans.",
)
_DIST_HEARTBEATS = _REG.counter(
    "repro_dist_heartbeats_total",
    "Lease renewals written by in-progress workers.",
)
_DIST_TASKS_DONE = _REG.counter(
    "repro_dist_tasks_done_total",
    "Distributed sweep tasks marked complete.",
)


def default_worker_id() -> str:
    """A worker id unique enough across hosts and restarts."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class DistTask:
    """One claimable chunk of the plan: contiguous units of the sweep."""

    index: int
    task_id: str
    units: tuple[tuple[int, int], ...]  # (spec_index, repeat) pairs


@dataclass(frozen=True)
class DistPlan:
    """The shared task decomposition every worker derives independently.

    ``plan_id`` hashes the *unit cache keys* (not the grid file), so two
    grids that expand to the same physical units — or the same grid read
    on different hosts — land in the same queue namespace and cooperate.
    """

    plan_id: str
    tasks: tuple[DistTask, ...]
    n_units: int


def plan_tasks(
    specs: Sequence[ExperimentSpec], chunk_size: int | None = None
) -> DistPlan:
    """Deterministically chunk the sweep's units into claimable tasks.

    Every worker must call this with the same spec list and the same
    ``chunk_size``; the plan id folds both in, so a misconfigured worker
    ends up in a *different* queue namespace (wasting work but never
    corrupting the shared one — the store still dedupes its units).
    """
    chunk = DEFAULT_TASK_UNITS if chunk_size is None else int(chunk_size)
    if chunk < 1:
        raise ValueError("chunk_size must be >= 1")
    units: list[tuple[int, int]] = []
    digests: list[str] = []
    for spec_index, spec in enumerate(specs):
        for repeat in range(spec.repeats):
            units.append((spec_index, repeat))
            digests.append(canonical_key(SweepStore.unit_key(spec, repeat)))
    plan_id = canonical_key(
        {"kind": "dist-plan", "format": 1, "chunk": chunk, "units": digests}
    )[:16]
    tasks = tuple(
        DistTask(
            index=task_index,
            task_id=f"task-{task_index:05d}",
            units=tuple(units[start : start + chunk]),
        )
        for task_index, start in enumerate(range(0, len(units), chunk))
    )
    return DistPlan(plan_id=plan_id, tasks=tasks, n_units=len(units))


@dataclass
class WorkerReport:
    """What one ``run_worker`` call did (persisted under ``workers/``)."""

    worker: str
    plan_id: str
    tasks_total: int
    tasks_claimed: int = 0
    tasks_stolen: int = 0
    tasks_done: int = 0
    units_computed: int = 0
    units_cached: int = 0
    units_batched: int = 0
    units_scalar: int = 0
    heartbeats: int = 0
    waits: int = 0
    fallbacks: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "worker": self.worker,
            "plan_id": self.plan_id,
            "tasks_total": self.tasks_total,
            "tasks_claimed": self.tasks_claimed,
            "tasks_stolen": self.tasks_stolen,
            "tasks_done": self.tasks_done,
            "units_computed": self.units_computed,
            "units_cached": self.units_cached,
            "units_batched": self.units_batched,
            "units_scalar": self.units_scalar,
            "heartbeats": self.heartbeats,
            "waits": self.waits,
            "fallbacks": dict(sorted(self.fallbacks.items())),
            "seconds": self.seconds,
        }


class _DoneSet:
    """Atomic per-task completion markers (the claim scan's fast path).

    A marker asserts "every unit of this task is durably in the store" —
    the writer verifies the entries and makes them durable before
    marking (its own puts fsync each entry; the entries it found get a
    barrier), so whoever writes it (finisher, stealer, or a
    fast-forwarding scanner) the statement holds.
    """

    def __init__(self, root) -> None:
        self.root = root

    def path_for(self, task_id: str):
        return self.root / f"{task_id}.json"

    def exists(self, task_id: str) -> bool:
        return self.path_for(task_id).exists()

    def mark(self, task_id: str, payload: dict[str, Any]) -> None:
        _write_json_replace(self.path_for(task_id), payload)


# Test seam: called at ("claimed", task), ("unit", task) after each unit
# persists, and ("done", task) after the done marker lands.  An exception
# raised here abandons the worker mid-task *without* releasing its lease —
# exactly what SIGKILL looks like to the rest of the fleet.
OnTask = Callable[[str, DistTask], None]


def run_worker(
    specs: Sequence[ExperimentSpec],
    store: SweepStore,
    *,
    worker_id: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    chunk_size: int | None = None,
    batch: bool = False,
    poll_interval: float = 0.05,
    max_tasks: int | None = None,
    on_task: OnTask | None = None,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
) -> WorkerReport:
    """Pull tasks from the shared store until the whole sweep is done.

    The loop scans the plan in order: tasks with done markers are
    skipped, tasks whose units are all already persisted are marked done
    without a claim, live foreign leases are left alone, and expired
    ones are stolen.  Between compute calls the worker renews its lease
    (at half TTL) and after the last unit it writes the done marker and
    releases.  ``max_tasks`` bounds how many tasks this call claims
    (restart schedules in tests); ``on_task`` is a test seam.

    Returns after every task in the plan has a done marker, or once
    ``max_tasks`` claims completed.  The report is also persisted under
    the plan's ``workers/`` directory on clean exit.
    """
    started = clock()
    worker = worker_id or default_worker_id()
    specs = list(specs)
    plan = plan_tasks(specs, chunk_size)
    queue = store.queue_root(plan.plan_id)
    leases = LeaseNamespace(queue / "leases")
    done = _DoneSet(queue / "done")
    report = WorkerReport(
        worker=worker, plan_id=plan.plan_id, tasks_total=len(plan.tasks)
    )
    done_seen: set[str] = set()

    def heartbeat(lease: Lease) -> Lease:
        if clock() < lease.expires - lease_ttl / 2.0:
            return lease
        renewed = leases.renew(lease, lease_ttl, now=clock())
        if renewed is None:
            # Lost to a stealer (e.g. a long compute outlived the TTL).
            # Finish anyway: writes are idempotent, and stopping now
            # would waste the partial work.
            return lease
        report.heartbeats += 1
        _DIST_HEARTBEATS.inc()
        return renewed

    def sync_found(units: Sequence[tuple[int, int]]) -> None:
        # Entries this worker found rather than wrote: another process
        # (a local sweep, a merge's repairs) may have renamed them inside
        # a write group whose barrier is still ahead.
        store.sync(
            [store.path_for(store.unit_key(specs[i], r)) for i, r in units]
        )

    def run_task(task: DistTask, lease: Lease, persisted: int) -> None:
        # The claim check already found the first ``persisted`` units in
        # the store and the next one absent; only the rest are probed.
        found = list(task.units[:persisted])
        pending: list[tuple[int, ExperimentSpec, int]] = []
        for k, (spec_index, repeat) in enumerate(task.units):
            if k < persisted:
                continue
            spec = specs[spec_index]
            if k > persisted and store.get_result(spec, repeat) is not None:
                found.append((spec_index, repeat))
            else:
                pending.append((spec_index, spec, repeat))
        report.units_cached += len(found)
        try:
            # Each entry written here is fsynced by its put; the entries
            # found get one barrier, so the done marker names only
            # durable entries.
            sync_found(found)
            for batched, group in _partition_chunk(
                pending, batch, 1, report.fallbacks
            ):
                lease = heartbeat(lease)
                units = compute_units(
                    batched, [(spec, repeat) for _, spec, repeat in group]
                )
                if batched:
                    report.units_batched += len(group)
                else:
                    report.units_scalar += len(group)
                for (_, spec, repeat), unit in zip(group, units):
                    store.put_result(spec, repeat, unit)
                    report.units_computed += 1
                    if on_task is not None:
                        on_task("unit", task)
                    lease = heartbeat(lease)
        except Exception:
            # Free the task at once (a signal still leaves the lease to
            # expire): a peer then fails the same way, not after the TTL.
            leases.release(lease)
            raise
        done.mark(
            task.task_id,
            {"task": task.task_id, "worker": worker, "units": len(task.units)},
        )
        report.tasks_done += 1
        _DIST_TASKS_DONE.inc()
        leases.release(lease)
        if on_task is not None:
            on_task("done", task)

    while True:
        all_done = True
        progress = False
        for task in plan.tasks:
            if task.task_id in done_seen:
                continue
            if done.exists(task.task_id):
                done_seen.add(task.task_id)
                continue
            all_done = False
            if max_tasks is not None and report.tasks_claimed >= max_tasks:
                continue
            persisted = _persisted_prefix(store, specs, task)
            if persisted == len(task.units):
                # Every unit already persisted (by us, a peer, or a past
                # run): fast-forward the marker, no claim needed.
                sync_found(task.units)
                done.mark(
                    task.task_id,
                    {
                        "task": task.task_id,
                        "worker": worker,
                        "units": len(task.units),
                        "fast_forward": True,
                    },
                )
                done_seen.add(task.task_id)
                _DIST_TASKS_DONE.inc()
                progress = True
                continue
            now = clock()
            current = leases.read(task.task_id)
            if current is not None and float(
                current.get("expires", 0.0)
            ) <= now:
                _DIST_EXPIRED.inc()
            lease = leases.acquire(task.task_id, worker, lease_ttl, now=now)
            if lease is None:
                continue
            report.tasks_claimed += 1
            _DIST_CLAIMS.inc()
            if lease.stolen:
                report.tasks_stolen += 1
                _DIST_STEALS.inc()
            if on_task is not None:
                on_task("claimed", task)
            run_task(task, lease, persisted)
            done_seen.add(task.task_id)
            progress = True
        if all_done:
            break
        if max_tasks is not None and report.tasks_claimed >= max_tasks:
            break
        if not progress:
            report.waits += 1
            sleep(poll_interval)
    report.seconds = clock() - started
    _write_json_replace(
        queue / "workers" / f"{worker}.json", report.to_dict()
    )
    return report


def _persisted_prefix(
    store: SweepStore, specs: Sequence[ExperimentSpec], task: DistTask
) -> int:
    """How many of ``task``'s units, in order, the store already holds.

    Stops at the first absent (or corrupt) unit, so each unit is decoded
    at most once between this check and the task run.
    """
    for k, (spec_index, repeat) in enumerate(task.units):
        if store.get_result(specs[spec_index], repeat) is None:
            return k
    return len(task.units)


# -- merge / coordination ------------------------------------------------------
def _probe(
    store: SweepStore, spec: ExperimentSpec, repeat: int
) -> tuple[UnitResult | None, bool]:
    """A unit's stored result, and whether its entry proved corrupt.

    A corrupt entry was persisted (it is not missing) but must be
    recomputed before it can be merged.
    """
    corrupt = store.stats.corrupt
    unit = store.get_result(spec, repeat)
    return unit, store.stats.corrupt > corrupt


def missing_units(
    specs: Sequence[ExperimentSpec], store: SweepStore
) -> list[tuple[int, int]]:
    """The (spec_index, repeat) units not yet persisted in ``store``.

    A unit whose entry is corrupt counts as persisted: the merge
    recomputes it, since done markers keep workers from doing so.
    """
    missing = []
    for spec_index, spec in enumerate(specs):
        for repeat in range(spec.repeats):
            unit, corrupt = _probe(store, spec, repeat)
            if unit is None and not corrupt:
                missing.append((spec_index, repeat))
    return missing


def _merge_specs(
    specs: Sequence[ExperimentSpec],
    store: SweepStore,
    *,
    seconds: float = 0.0,
) -> tuple[list[ExperimentArtifact], SweepReport]:
    """Assemble artifacts + report from persisted unit results.

    This is the serial scheduler's aggregation step fed entirely from the
    cache, so a merged distributed run and an uninterrupted serial run
    produce byte-identical artifacts and aggregate summaries.  A unit
    whose entry is corrupt (a counted corrupt miss of ``get_result``) is
    recomputed on the scalar path and its entry rewritten, as the
    scheduler would; a unit with no entry at all raises LookupError.
    """
    results: dict[tuple[int, int], UnitResult] = {}
    absent: list[str] = []
    repaired = 0
    with store.write_group():
        for spec_index, spec in enumerate(specs):
            for repeat in range(spec.repeats):
                unit, corrupt = _probe(store, spec, repeat)
                if corrupt:
                    (unit,) = compute_units(False, [(spec, repeat)])
                    store.put_result(spec, repeat, unit)
                    repaired += 1
                if unit is None:
                    absent.append(f"{spec.name or spec.app}#{repeat}")
                else:
                    results[(spec_index, repeat)] = unit
    if absent:
        preview = ", ".join(absent[:5])
        raise LookupError(
            f"{len(absent)} unit(s) missing from {store.root} "
            f"(e.g. {preview}) — are workers still running?"
        )
    artifacts = build_artifacts(specs, results)
    report = _sweep_report(
        specs,
        results,
        cache_hits=len(results) - repaired,
        computed=repaired,
        chunks=0,
        seconds=seconds,
        scalar_units=repaired,
    )
    return artifacts, report


def merge_grid(
    grid: SweepGrid,
    store: SweepStore,
    *,
    cells: Sequence[SweepCell] | None = None,
    seconds: float = 0.0,
) -> GridRun:
    """Build the grid's :class:`GridRun` from a fully populated store.

    Raises LookupError (naming the gaps) when any unit is absent.  Merge
    writes only to repair a corrupt entry (it recomputes that unit and
    overwrites the entry with the same bytes a serial run writes), so it
    can run on any host that sees the store, any number of times, before
    or after the workers exit.
    """
    cells = tuple(grid.cells() if cells is None else cells)
    artifacts, report = _merge_specs(
        [cell.spec for cell in cells], store, seconds=seconds
    )
    return GridRun(
        grid=grid, cells=cells, artifacts=tuple(artifacts), report=report
    )


def wait_for_grid(
    grid: SweepGrid,
    store: SweepStore,
    *,
    timeout: float | None = None,
    poll_interval: float = 0.2,
    cells: Sequence[SweepCell] | None = None,
    on_progress: Callable[[int, int], None] | None = None,
) -> GridRun:
    """Block until every unit of ``grid`` is persisted, then merge.

    The coordinator side of a multi-host run: it touches no leases and
    computes nothing, it just polls the store (``on_progress`` receives
    ``(present, total)`` each pass) and merges when the last unit lands.
    """
    started = time.time()
    cells = tuple(grid.cells() if cells is None else cells)
    specs = [cell.spec for cell in cells]
    total = sum(spec.repeats for spec in specs)
    while True:
        missing = missing_units(specs, store)
        if on_progress is not None:
            on_progress(total - len(missing), total)
        if not missing:
            break
        if timeout is not None and time.time() - started > timeout:
            raise TimeoutError(
                f"{len(missing)}/{total} unit(s) still missing from "
                f"{store.root} after {timeout:.1f}s"
            )
        time.sleep(poll_interval)
    return merge_grid(
        grid, store, cells=cells, seconds=time.time() - started
    )


def _worker_entry(
    specs_data: list[dict[str, Any]],
    store_root: str,
    kwargs: dict[str, Any],
    errors: Any,
) -> None:
    # Module-level, plain-data arguments: works under fork and spawn.
    try:
        specs = [ExperimentSpec.from_dict(data) for data in specs_data]
        run_worker(specs, SweepStore(store_root), **kwargs)
    except (TypeError, ValueError) as exc:
        # A cell whose components reject their parameters: the sweep
        # cannot finish anywhere, so hand the reason to the coordinator
        # (which reports it as ``repro sweep --worker`` would) instead of
        # printing a traceback.
        errors.put((isinstance(exc, TypeError), str(exc)))
        raise SystemExit(2) from None


def worker_reports(
    store: SweepStore, plan_id: str
) -> list[dict[str, Any]]:
    """Every persisted worker report of one plan, sorted by worker id."""
    import json

    reports = []
    workers_dir = store.queue_root(plan_id) / "workers"
    for path in sorted(workers_dir.glob("*.json")):
        try:
            reports.append(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError):
            continue
    return reports


def run_distributed(
    grid: SweepGrid,
    store: SweepStore,
    *,
    workers: int = 2,
    batch: bool = False,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    chunk_size: int | None = None,
    cells: Sequence[SweepCell] | None = None,
    worker_prefix: str = "worker-",
    mp_context: multiprocessing.context.BaseContext | None = None,
) -> tuple[GridRun, list[dict[str, Any]]]:
    """Run ``grid`` with ``workers`` local worker processes, then merge.

    The single-machine convenience over the same protocol a multi-host
    fleet uses: each worker is a separate OS process pulling from the
    shared store, so killing one (tests, the dist gate) exercises the
    real lease-recovery path.  Returns the merged run plus the persisted
    worker reports.

    A cell whose components reject their parameters raises that
    worker's ``ValueError``/``TypeError`` here, once, after the other
    workers are stopped.  Workers that die for any other reason are
    named with their exit codes in a ``LookupError`` when units are left
    missing; if the survivors healed the sweep, the codes are appended
    to the reports instead.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    started = time.time()
    cells = tuple(grid.cells() if cells is None else cells)
    specs = [cell.spec for cell in cells]
    specs_data = [spec.to_dict() for spec in specs]
    plan = plan_tasks(specs, chunk_size)
    ctx = mp_context or multiprocessing.get_context()
    errors = ctx.SimpleQueue()
    procs = {
        f"{worker_prefix}{index}": ctx.Process(
            target=_worker_entry,
            args=(
                specs_data,
                str(store.root),
                dict(
                    worker_id=f"{worker_prefix}{index}",
                    lease_ttl=lease_ttl,
                    chunk_size=chunk_size,
                    batch=batch,
                ),
                errors,
            ),
        )
        for index in range(workers)
    }
    for proc in procs.values():
        proc.start()
    running = {proc.sentinel: proc for proc in procs.values()}
    try:
        while running and errors.empty():
            for sentinel in multiprocessing.connection.wait(list(running)):
                running.pop(sentinel).join()
        if not errors.empty():
            # A rejected cell fails every worker that reaches it: stop
            # the rest instead of letting them wait out its lease first.
            for proc in running.values():
                proc.terminate()
                proc.join()
            is_type_error, reason = errors.get()
            raise (TypeError if is_type_error else ValueError)(reason)
    finally:
        errors.close()
    failed = {
        name: proc.exitcode for name, proc in procs.items() if proc.exitcode
    }
    if failed and missing_units(specs, store):
        raise LookupError(
            "worker(s) died before the grid finished: "
            + ", ".join(f"{name} (exit code {code})"
                        for name, code in failed.items())
        )
    run = merge_grid(
        grid, store, cells=cells, seconds=time.time() - started
    )
    reports = worker_reports(store, plan.plan_id)
    if failed:
        # The merge succeeded, so the sweep healed around the failures;
        # surface them in the reports instead of raising.
        reports.append({"worker_exit_codes": list(failed.values())})
    return run, reports
