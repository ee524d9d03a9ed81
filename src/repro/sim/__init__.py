"""Performance-model substrate: analytical engine, DES, shared types."""

from repro.sim.batched import BatchedAnalyticalEngine, BatchObservation
from repro.sim.cfs import CFSModel, DEFAULT_PERIOD
from repro.sim.engine import AnalyticalEngine
from repro.sim.environment import Environment
from repro.sim.latency import (
    CellKernel,
    KernelSignals,
    LatencyParams,
    NoiselessLatencyKernel,
    end_to_end_latency,
    end_to_end_latency_batch,
    visit_latency,
)
from repro.sim.noise import NoiseModel
from repro.sim.types import Allocation, IntervalMetrics, ServiceMetrics

__all__ = [
    "Allocation",
    "IntervalMetrics",
    "ServiceMetrics",
    "Environment",
    "AnalyticalEngine",
    "BatchedAnalyticalEngine",
    "BatchObservation",
    "CFSModel",
    "DEFAULT_PERIOD",
    "LatencyParams",
    "NoiselessLatencyKernel",
    "CellKernel",
    "KernelSignals",
    "NoiseModel",
    "visit_latency",
    "end_to_end_latency",
    "end_to_end_latency_batch",
]
