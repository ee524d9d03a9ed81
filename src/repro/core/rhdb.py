"""Resource allocation history database (RHDb) — §3.3 of the paper.

A lightweight single-table log of every applied allocation and the
response it produced.  Two queries matter:

* **rollback** (Alg. 1 line 4): on an SLO violation, return the
  *minimum-total-CPU* recorded configuration whose response satisfied the
  SLO;
* **exploration** (Alg. 1 line 6 / Eqn. 8): return a uniformly random
  recorded configuration without an SLO violation, letting PEMA walk back
  its reduction path and escape sub-optimal corners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.sim.types import Allocation

__all__ = ["RHDbRecord", "ResourceHistoryDB"]


@dataclass(frozen=True)
class RHDbRecord:
    """One row: the allocation applied at a step and what it produced."""

    step: int
    allocation: Allocation
    response: float
    workload: float
    slo: float

    @property
    def violated(self) -> bool:
        return self.response > self.slo

    @property
    def total_cpu(self) -> float:
        # Allocation caches its total and hash, so the rollback and
        # exploration scans pay for each allocation once.
        return self.allocation.total()


class ResourceHistoryDB:
    """Append-only in-memory history with the two PEMA queries."""

    #: Records kept before the oldest (never the best rollback) is dropped.
    DEFAULT_MAX_RECORDS = 100_000

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS) -> None:
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        self._records: list[RHDbRecord] = []
        self._tainted: set[Allocation] = set()
        self.max_records = max_records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RHDbRecord]:
        return iter(self._records)

    def insert(self, record: RHDbRecord) -> None:
        if self._records and record.step <= self._records[-1].step:
            raise ValueError(
                f"steps must increase: {record.step} after {self._records[-1].step}"
            )
        self._records.append(record)
        if len(self._records) > self.max_records:
            # Drop oldest but never the current best rollback candidate.
            best = self.best_rollback(record.slo)
            drop = self._records[0]
            if best is not None and drop is best:
                del self._records[1]
            else:
                del self._records[0]

    def last(self) -> RHDbRecord | None:
        return self._records[-1] if self._records else None

    def records(self) -> tuple[RHDbRecord, ...]:
        return tuple(self._records)

    # -- violation tainting -------------------------------------------------------
    def taint(self, allocation: Allocation) -> None:
        """Mark an allocation as having produced an SLO violation.

        Measurement noise can log a marginally infeasible allocation with a
        satisfying response; without tainting, rollback would return to it
        forever (violation → rollback to the same lucky record → violation
        …).  Once any interval under an allocation violates, every record
        of that exact allocation is excluded from rollback and exploration.
        """
        self._tainted.add(allocation)

    def is_tainted(self, allocation: Allocation) -> bool:
        return allocation in self._tainted

    def _safe(self, slo: float) -> list[RHDbRecord]:
        return [
            r
            for r in self._records
            if r.response <= slo and r.allocation not in self._tainted
        ]

    # -- PEMA queries ----------------------------------------------------------
    def best_rollback(self, slo: float) -> RHDbRecord | None:
        """Minimum-total-CPU untainted record whose response satisfied ``slo``."""
        satisfying = self._safe(slo)
        if not satisfying:
            return None
        return min(satisfying, key=lambda r: r.total_cpu)

    def random_non_violating(
        self, slo: float, rng: np.random.Generator
    ) -> RHDbRecord | None:
        """Uniformly random untainted, non-violating record (exploration)."""
        satisfying = self._safe(slo)
        if not satisfying:
            return None
        return satisfying[int(rng.integers(len(satisfying)))]

    def clone(self) -> "ResourceHistoryDB":
        """A shallow copy (records are immutable) for range bootstrapping."""
        out = ResourceHistoryDB(max_records=self.max_records)
        out._records = list(self._records)
        out._tainted = set(self._tainted)
        return out
