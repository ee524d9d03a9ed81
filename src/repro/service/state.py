"""Knowledge plane: decision history + manager-state persistence.

The :class:`ServiceStateStore` is the MAPE-K "K": it accumulates every
guardian's decision feed in memory for the query API and persists
snapshots plus final histories through a pluggable *backend* — any
object with the content-addressed ``get_raw(key)``/``put_raw(key,
payload)`` surface that :class:`repro.sweeps.store.JsonDirectoryStore`
defines, plus :class:`~repro.sweeps.SweepStore`'s ``put_result(spec,
repeat, unit)`` for completed units.  Two backends ship, resolved
through the :data:`STATE_STORES` registry:

``memory``
    volatile in-process dict — the default for tests and one-shot
    drives;
``directory``
    a :class:`~repro.sweeps.SweepStore` directory.  Because a complete
    guardian history is byte-identical to the offline unit payload, the
    store flushes it through the sweep store's own unit-entry encoder
    under the *same* content-addressed unit key the sweep scheduler
    uses — so a finished service run writes the bytes an offline sweep
    writes, literally warms the sweep cache, and ``repro sweep
    --resume`` over the same specs gets cache hits.

Incomplete runs are never written under unit keys (that would poison
the sweep cache with partial histories); they persist only under
service-specific ``service_state`` keys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.experiments.registry import Registry
from repro.metrics.export import UnitResult
from repro.sweeps.store import StoreStats, SweepStore, canonical_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.guardian import Guardian
    from repro.service.types import Decision

__all__ = [
    "STATE_STORES",
    "MemoryBackend",
    "ServiceStateStore",
    "service_state_key",
]

_FORMAT = 1

#: Pluggable persistence backends for the service state store.  Factory
#: convention: ``factory(**params) -> backend`` where the backend
#: exposes ``get_raw``/``put_raw``/``put_result`` (see module docstring).
STATE_STORES = Registry("state-store backend")


class MemoryBackend:
    """Volatile in-process backend: a dict keyed by canonical key hash."""

    def __init__(self) -> None:
        self.entries: dict[str, Any] = {}
        self.keys: dict[str, Any] = {}
        self.stats = StoreStats()

    def get_raw(self, key_obj: Any) -> Any | None:
        digest = canonical_key(key_obj)
        if digest not in self.entries:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return self.entries[digest]

    def put_raw(self, key_obj: Any, payload: Any) -> str:
        digest = canonical_key(key_obj)
        self.entries[digest] = payload
        self.keys[digest] = key_obj
        self.stats.writes += 1
        return digest

    def put_result(self, spec: Any, repeat: int, result: UnitResult) -> str:
        """Keep a completed unit's store entry under its sweep unit key."""
        key = SweepStore.unit_key(spec, repeat)
        return self.put_raw(key, result.to_entry())

    def __len__(self) -> int:
        return len(self.entries)


@STATE_STORES.register("memory")
def _memory_backend(**params: Any):
    """Volatile in-process backend (state dies with the service)."""
    if params:
        raise TypeError(f"unknown memory backend params: {sorted(params)}")
    return MemoryBackend()


@STATE_STORES.register("directory")
def _directory_backend(*, root: str, **params: Any):
    """Content-addressed JSON directory sharing keys/bytes with the sweep cache."""
    if params:
        raise TypeError(f"unknown directory backend params: {sorted(params)}")
    return SweepStore(root)


def service_state_key(
    app_id: str, spec_data: dict[str, Any], repeat: int
) -> dict[str, Any]:
    """The content-addressed key of one app's live service snapshot.

    Distinct from the sweep unit key (``kind`` differs), so snapshots of
    partial runs can never alias completed unit results.
    """
    return {
        "kind": "service_state",
        "format": _FORMAT,
        "app": app_id,
        "spec": spec_data,
        "repeat": int(repeat),
    }


class ServiceStateStore:
    """Decision history + snapshot persistence for every registered app."""

    def __init__(
        self, backend: Any | None = None, *, snapshot_every: int = 0
    ) -> None:
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        self.backend = backend
        self.snapshot_every = snapshot_every
        self._decisions: dict[str, list[dict[str, Any]]] = {}
        self.unit_entries = 0
        self.snapshots = 0

    # -- the decision feed -------------------------------------------------------
    def record_decision(
        self, guardian: "Guardian", decision: "Decision"
    ) -> None:
        """Append one decision; snapshot periodically when configured."""
        self._decisions.setdefault(guardian.app_id, []).append(
            decision.to_dict()
        )
        if (
            self.backend is not None
            and self.snapshot_every
            and guardian.steps_done % self.snapshot_every == 0
        ):
            self.snapshot(guardian)

    def decisions(
        self, app_id: str, *, since: int = 0, limit: int | None = None
    ) -> list[dict[str, Any]]:
        """Decision dicts for ``app_id`` with ``record.step >= since``."""
        rows = [
            d for d in self._decisions.get(app_id, []) if d["step"] >= since
        ]
        if limit is not None:
            rows = rows[:limit]
        return rows

    def decision_count(self, app_id: str) -> int:
        return len(self._decisions.get(app_id, ()))

    def forget(self, app_id: str) -> None:
        self._decisions.pop(app_id, None)

    # -- persistence -------------------------------------------------------------
    def snapshot(self, guardian: "Guardian") -> Any | None:
        """Persist one app's live history + manager state (best effort).

        The payload carries the run-so-far in the offline unit encoding
        plus the live ``/state`` view; the key is service-specific, so
        partial histories never masquerade as completed sweep units.
        """
        if self.backend is None:
            return None
        key = service_state_key(
            guardian.app_id, guardian.spec.to_dict(), guardian.repeat
        )
        ref = self.backend.put_raw(
            key,
            {
                "step": guardian.steps_done,
                "complete": guardian.complete,
                "history": guardian.result_payload(),
                "state": guardian.state(),
            },
        )
        self.snapshots += 1
        return ref

    def flush(self, guardians: dict[str, "Guardian"]) -> dict[str, Any]:
        """Persist every app at shutdown; returns a per-app summary.

        Complete, error-free runs are additionally written under the
        sweep-store unit key — byte-identical to what an offline sweep
        of the same spec would cache.
        """
        summary: dict[str, Any] = {}
        for app_id, guardian in sorted(guardians.items()):
            entry: dict[str, Any] = {
                "steps": guardian.steps_done,
                "complete": guardian.complete,
                "error": guardian.error,
                "unit_entry": False,
            }
            if self.backend is not None:
                self.snapshot(guardian)
                if guardian.complete and guardian.error is None:
                    self.backend.put_result(
                        guardian.spec, guardian.repeat, guardian.result()
                    )
                    self.unit_entries += 1
                    entry["unit_entry"] = True
            summary[app_id] = entry
        return summary
