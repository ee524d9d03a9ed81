"""PEMA core: the paper's contribution (Algorithm 1 + workload awareness)."""

from repro.core.batch import PEMABatch
from repro.core.config import PEMAConfig
from repro.core.controller import PEMAController, StepAction, StepResult
from repro.core.cost import CostModel, cost_weighted_probabilities
from repro.core.exploration import exploration_probability
from repro.core.fastloop import FastLoopResult, FastReactionLoop
from repro.core.loop import Autoscaler, ControlLoop, LoopRecord, LoopResult
from repro.core.manager import ManagerStep, WorkloadAwarePEMA
from repro.core.reduction import num_targets, reduction_fraction, reduction_signal
from repro.core.rhdb import ResourceHistoryDB, RHDbRecord
from repro.core.selection import select_targets
from repro.core.target import DynamicTarget, learn_slope
from repro.core.thresholds import ThresholdTracker
from repro.core.workload_range import RangeTree, SplitEvent, WorkloadRange

__all__ = [
    "PEMAConfig",
    "PEMAController",
    "PEMABatch",
    "StepAction",
    "StepResult",
    "WorkloadAwarePEMA",
    "ManagerStep",
    "ControlLoop",
    "Autoscaler",
    "LoopRecord",
    "LoopResult",
    "FastReactionLoop",
    "FastLoopResult",
    "CostModel",
    "cost_weighted_probabilities",
    "ResourceHistoryDB",
    "RHDbRecord",
    "ThresholdTracker",
    "RangeTree",
    "WorkloadRange",
    "SplitEvent",
    "DynamicTarget",
    "learn_slope",
    "reduction_signal",
    "num_targets",
    "reduction_fraction",
    "exploration_probability",
    "select_targets",
]
