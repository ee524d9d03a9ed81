"""Content-addressed on-disk cache for sweep results.

Every cache entry is keyed by the SHA-256 of a canonical JSON encoding of
*what produced it* — for a unit result, the full serialized spec plus the
repeat index — so a cache hit is exactly "this computation already ran":
specs that differ in any field hash to different entries, and entries are
shared between figures that sweep overlapping (app, workload, seed) points.

An entry file is ``{"format", "key", "payload"}``.  Unit entries are
format 2 (:data:`UNIT_FORMAT`): the payload holds the run history as
packed columns (:func:`repro.metrics.export.loop_result_to_packed`)
under ``history``, next to the plain-JSON capture channels
(``manager_state``, ``decision_trace``).  Every other entry — OPTM
searches, service snapshots — is format 1 with a plain JSON payload.
Key objects keep their own ``format`` field, so digests did not move
when unit entries changed format: a format-1 unit entry is read as a
corrupt miss and rewritten in place by the recomputation.

Robustness properties the scheduler relies on:

* **atomic writes** — entries are written to a temp file in the target
  directory, fsynced and ``os.replace``d into place, so a killed sweep
  never leaves a half-written entry and concurrent writers of the same
  key can only produce one complete file (last writer wins, both wrote
  the same bytes);
* **corruption-tolerant loads** — a truncated/garbled/foreign file, an
  entry of the wrong format, or a unit entry whose history does not
  decode is a cache miss (counted in :attr:`SweepStore.stats`), never an
  exception and never a misread, and the recomputed result simply
  overwrites it;
* **self-describing entries** — each file stores its own key object and is
  verified against the requested key on load, so a hash collision or a
  misplaced file cannot alias a different computation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import tempfile
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, TYPE_CHECKING

from repro.metrics.export import MalformedHistoryError, UnitResult
from repro.obs.metrics import default_registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.spec import ExperimentSpec

__all__ = [
    "JsonDirectoryStore",
    "Lease",
    "LeaseNamespace",
    "SweepStore",
    "StoreStats",
    "UNIT_FORMAT",
    "UnitResult",
    "canonical_key",
    "paused_gc",
]

#: Format of key objects and of every entry except unit results.
_FORMAT = 1

#: Format of unit-result entries: the history as packed columns.
UNIT_FORMAT = 2

#: Queue state (leases, done markers, worker reports) lives under this
#: directory inside a store root.  Entry files live under two-hex-char
#: shards (``ab/<digest>.json``), so the queue namespace can never
#: collide with — or be globbed up as — a cache entry.
QUEUE_DIRNAME = "_queue"

# Process-global mirrors of the per-handle StoreStats counters: store
# handles come and go (one per sweep, per service state dir), the
# registry series aggregate across all of them for the /metrics scrape.
_REG = default_registry()
_STORE_HITS = _REG.counter(
    "repro_store_hits_total", "Result-store cache hits (all handles)."
)
_STORE_MISSES = _REG.counter(
    "repro_store_misses_total", "Result-store cache misses (all handles)."
)
_STORE_WRITES = _REG.counter(
    "repro_store_writes_total", "Result-store entries written (all handles)."
)
_STORE_CORRUPT = _REG.counter(
    "repro_store_corrupt_total",
    "Corrupt/foreign result-store entries treated as misses.",
)


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause the cyclic garbage collector for the body, then restore it.

    For code that builds large acyclic trees (batched run payloads):
    refcounting frees them, and letting generational GC rescan their
    tens of thousands of containers while they are built costs more
    than building them.  Restores the state
    found on entry, also when the body raises, so a caller that had GC
    disabled keeps it disabled and nested pauses compose.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def canonical_key(key_obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``key_obj``."""
    encoded = json.dumps(
        key_obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass
class StoreStats:
    """Counters for one store handle (not persisted)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
        }


@dataclass
class JsonDirectoryStore:
    """A directory of content-addressed JSON entries (the raw backend).

    Knows nothing about experiments: any JSON-encodable key object maps
    to an atomic, corruption-tolerant file.  :class:`SweepStore` layers
    the experiment-aware key constructors on top; the always-on service's
    state store (:mod:`repro.service.state`) uses this class directly as
    its ``directory`` backend, so both persistence planes share one
    on-disk format and one robustness contract.
    """

    root: Path
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key_obj: Any) -> Path:
        return self._path(canonical_key(key_obj))

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    # -- raw payload access ------------------------------------------------------
    def get_raw(
        self, key_obj: Any, *, entry_format: int = _FORMAT
    ) -> Any | None:
        """The stored payload for ``key_obj``, or None on miss/corruption.

        An entry whose ``format`` is not ``entry_format`` is corrupt.
        """
        digest = canonical_key(key_obj)
        try:
            entry = json.loads(self._path(digest).read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            _STORE_MISSES.inc()
            return None
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            entry = None
        # A foreign/garbled-but-valid-JSON file is also just a miss.
        if (
            not isinstance(entry, dict)
            or entry.get("format") != entry_format
            or "payload" not in entry
            or canonical_key(entry.get("key")) != digest
        ):
            self._count_corrupt()
            return None
        self.stats.hits += 1
        _STORE_HITS.inc()
        return entry["payload"]

    def _count_corrupt(self) -> None:
        self.stats.corrupt += 1
        self.stats.misses += 1
        _STORE_CORRUPT.inc()
        _STORE_MISSES.inc()

    def put_raw(
        self, key_obj: Any, payload: Any, *, entry_format: int = _FORMAT
    ) -> Path:
        """Atomically persist ``payload`` under ``key_obj``."""
        path = self.path_for(key_obj)
        _write_json_replace(
            path, {"format": entry_format, "key": key_obj, "payload": payload}
        )
        self.stats.writes += 1
        _STORE_WRITES.inc()
        return path

    # -- maintenance -------------------------------------------------------------
    def entry_paths(self) -> list[Path]:
        return sorted(self.root.glob("??/*.json"))

    def __len__(self) -> int:
        return len(self.entry_paths())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        paths = self.entry_paths()
        for path in paths:
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        return len(paths)

    # -- queue namespace ---------------------------------------------------------
    def queue_root(self, plan_id: str) -> Path:
        """The coordination directory of one distributed plan.

        Holds ``leases/``, ``done/`` and ``workers/`` subdirectories —
        the claim state :mod:`repro.sweeps.distributed` layers over the
        cache entries.  Disjoint from the entry shards by construction.
        """
        return self.root / QUEUE_DIRNAME / plan_id


def _encode(obj: Any) -> str:
    """The on-disk JSON text of an entry or lease (C encoder, one string)."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def _write_json_replace(path: Path, payload: Any) -> None:
    """Atomically (re)write ``path`` with a JSON payload.

    The one writer of cache entries and lease takeovers/renewals: the
    text goes to a temp file in the target directory, is fsynced and
    ``os.replace``d into place, so a reader never observes a half-written
    file and concurrent writers leave exactly one winner's bytes.  The
    payload is encoded before the temp file exists, so an unencodable
    payload (NaN) leaves nothing behind.
    """
    text = _encode(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem[:16]}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one task: who, until when, under which token.

    The ``token`` is what makes ownership checkable: every acquisition —
    fresh or stolen — mints a new one, and renew/release only act when
    the on-disk lease still carries the caller's token.
    """

    task_id: str
    worker: str
    token: str
    expires: float
    acquired: float
    renewals: int = 0
    stolen_from: str | None = None

    @property
    def stolen(self) -> bool:
        return self.stolen_from is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "task": self.task_id,
            "worker": self.worker,
            "token": self.token,
            "expires": self.expires,
            "acquired": self.acquired,
            "renewals": self.renewals,
            "stolen_from": self.stolen_from,
        }


@dataclass
class LeaseNamespace:
    """Atomic lease files over a shared directory (one file per task).

    The claim protocol needs only two filesystem guarantees — exclusive
    create (``O_CREAT|O_EXCL``) and atomic rename — both of which hold on
    local filesystems and NFSv4-style shared mounts:

    * **fresh claim** — exclusively create ``<task_id>.json``; losing the
      race means another worker holds the task;
    * **takeover** — an *expired* (or corrupt-and-stale) lease is replaced
      via temp-file + ``os.replace``, then re-read: only the worker whose
      token survived the rename proceeds;
    * **renewal/release** — read-verify the token first, so a worker that
      lost its lease to a steal cannot silently extend or delete the
      thief's claim.

    Leases are an *optimization*, not a correctness mechanism: in the
    worst interleavings two workers may both believe they own a task and
    compute it twice, but every result lands in the content-addressed
    store under the same key with identical bytes, so duplicated work can
    never corrupt a sweep.  Expiry compares wall-clock timestamps across
    workers, so multi-host fleets need loosely synchronized clocks (NTP
    drift ≪ the TTL).
    """

    root: Path

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, task_id: str) -> Path:
        return self.root / f"{task_id}.json"

    def read(self, task_id: str) -> dict[str, Any] | None:
        """The current lease record, or None (absent or unreadable).

        A record whose ``expires`` is not a finite real number (``null``,
        a string, a list, a bool, NaN) is unreadable too: its expiry
        cannot be compared, so the mtime rule decides as for garbage.
        """
        try:
            data = json.loads(self.path_for(task_id).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict):
            return None
        expires = data.get("expires", 0.0)
        if isinstance(expires, bool) or not isinstance(expires, (int, float)):
            return None
        try:
            finite = math.isfinite(expires)
        except OverflowError:  # an int too large for a float
            return None
        return data if finite else None

    def _fresh_by_mtime(self, task_id: str, ttl: float, now: float) -> bool:
        """Is an unreadable lease file young enough to be an in-flight write?

        A reader can catch a lease between exclusive create and content
        write; treating every unreadable file as stale would steal claims
        that are microseconds old.  An unreadable file older than one TTL
        really is garbage.
        """
        try:
            mtime = self.path_for(task_id).stat().st_mtime
        except OSError:
            return False
        return mtime > now - max(ttl, 1e-9)

    def acquire(
        self,
        task_id: str,
        worker: str,
        ttl: float,
        *,
        now: float | None = None,
    ) -> Lease | None:
        """Try to claim ``task_id``; returns the lease or None if held.

        A lease whose expiry has passed is taken over (``Lease.stolen``
        is set on the result).  ``ttl`` ≤ 0 makes every lease instantly
        stale — useful in tests, never in production.
        """
        now = time.time() if now is None else now
        lease = Lease(
            task_id=task_id,
            worker=worker,
            token=uuid.uuid4().hex,
            expires=now + ttl,
            acquired=now,
        )
        path = self.path_for(task_id)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            current = self.read(task_id)
            if current is not None:
                if float(current.get("expires", 0.0)) > now:
                    return None  # live claim by someone else
                holder = current.get("worker")
            else:
                if self._fresh_by_mtime(task_id, ttl, now):
                    return None  # probably an in-flight fresh claim
                holder = None
            lease = Lease(**{**lease.__dict__, "stolen_from": holder})
            _write_json_replace(path, lease.to_dict())
            after = self.read(task_id)
            if after is not None and after.get("token") == lease.token:
                return lease
            return None  # lost the takeover race to another stealer
        with os.fdopen(fd, "w") as fh:
            fh.write(_encode(lease.to_dict()))
            fh.flush()
            os.fsync(fh.fileno())
        return lease

    def renew(
        self, lease: Lease, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        """Extend a held lease; returns the renewed lease or None if lost."""
        now = time.time() if now is None else now
        current = self.read(lease.task_id)
        if current is None or current.get("token") != lease.token:
            return None
        renewed = Lease(
            **{
                **lease.__dict__,
                "expires": now + ttl,
                "renewals": lease.renewals + 1,
            }
        )
        _write_json_replace(self.path_for(lease.task_id), renewed.to_dict())
        return renewed

    def release(self, lease: Lease) -> bool:
        """Drop a held lease; returns False if it was no longer ours."""
        current = self.read(lease.task_id)
        if current is None or current.get("token") != lease.token:
            return False
        try:
            self.path_for(lease.task_id).unlink()
        except FileNotFoundError:
            pass
        return True


@dataclass
class SweepStore(JsonDirectoryStore):
    """A directory of content-addressed JSON cache entries."""

    # -- key construction --------------------------------------------------------
    @staticmethod
    def unit_key(spec: "ExperimentSpec", repeat: int) -> dict[str, Any]:
        """The cache key of one (spec, repeat) unit result.

        Fields that don't influence the unit's computation are excluded
        so grids sweeping the same physical point share entries:
        ``name`` is cosmetic, and ``repeats`` only bounds the repeat
        index (repeat ``r`` is fully determined by ``seed + r``), so a
        3-repeat and a 5-repeat sweep of the same base share their
        common units.
        """
        spec_data = spec.to_dict()
        spec_data.pop("name", None)
        spec_data.pop("repeats", None)
        return {
            "kind": "unit",
            "format": _FORMAT,
            "spec": spec_data,
            "repeat": int(repeat),
        }

    @staticmethod
    def optimum_key(
        app: str, workload: float, restarts: int
    ) -> dict[str, Any]:
        """The cache key of one OPTM search (see ``optimum_total``)."""
        return {
            "kind": "optimum",
            "format": _FORMAT,
            "app": app,
            "workload": round(float(workload), 6),
            "restarts": int(restarts),
        }

    # -- unit results ------------------------------------------------------------
    def get_result(
        self, spec: "ExperimentSpec", repeat: int
    ) -> UnitResult | None:
        """A stored unit result, decoded, or None.

        A format-1 entry, or a format-2 entry whose history does not
        decode, is a counted corrupt miss: the caller recomputes the
        unit and :meth:`put_result` overwrites the entry.
        """
        payload = self.get_raw(
            self.unit_key(spec, repeat), entry_format=UNIT_FORMAT
        )
        if payload is None:
            return None
        try:
            return UnitResult.from_entry(payload)
        except MalformedHistoryError:
            # get_raw counted a hit; the global counters are monotonic,
            # so only the per-handle tally is rolled back.
            self.stats.hits -= 1
            self._count_corrupt()
            return None

    def put_result(
        self,
        spec: "ExperimentSpec",
        repeat: int,
        result: UnitResult | dict[str, Any],
    ) -> Path:
        """Persist one unit result as a format-2 entry.

        ``result`` is a :class:`UnitResult` or a records-form unit
        payload, which is decoded here.
        """
        if not isinstance(result, UnitResult):
            result = UnitResult.from_payload(result)
        return self.put_raw(
            self.unit_key(spec, repeat),
            result.to_entry(),
            entry_format=UNIT_FORMAT,
        )
