"""Static allocator — holds a fixed allocation forever.

Used as the fixed-allocation probe in several experiments (slope learning,
good-vs-bad distribution studies) and as a trivial sanity baseline.
"""

from __future__ import annotations

import numpy as np

from repro.sim.batched import BatchObservation, DecisionBank
from repro.sim.types import Allocation, IntervalMetrics

__all__ = ["FixedBank", "StaticAllocator"]


class FixedBank(DecisionBank):
    """:class:`StaticAllocator` cells: the start allocation, never changed."""

    def step(self, obs: BatchObservation, totals: np.ndarray) -> np.ndarray:
        return self.allocation


class StaticAllocator:
    """An autoscaler that never scales."""

    #: The batched sweep runner's form of this allocator.
    decision_bank = FixedBank

    def __init__(self, allocation: Allocation) -> None:
        self._allocation = allocation

    @property
    def allocation(self) -> Allocation:
        return self._allocation

    def decide(self, metrics: IntervalMetrics) -> Allocation:  # noqa: ARG002
        return self._allocation
