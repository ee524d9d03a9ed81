"""repro — a reproduction of PEMA (HPDC '22).

*Practical Efficient Microservice Autoscaling with QoS Assurance*,
Hossen, Islam, Ahmed — a lightweight feedback-driven microservice resource
manager, reproduced end to end: the controller (Algorithm 1), workload-aware
dynamic ranging, the three prototype applications, simulated performance
engines (closed-form and discrete-event), the OPTM/RULE baselines, and the
full evaluation harness.

The declarative experiment API (:mod:`repro.experiments`) is the main
entry point: one JSON-round-tripping :class:`ExperimentSpec` describes a
scenario (app, engine backend, workload trace, autoscaler, seeds,
mid-run hooks) and the shared runner reproduces it identically from
Python, the CLI (``python -m repro experiment --spec file.json``), and
the benchmark helpers.

Quickstart::

    from repro.experiments import ExperimentSpec, run_experiment

    spec = ExperimentSpec(app="sockshop", workload=700.0, n_steps=60,
                          seed=1, repeats=3)
    artifact = run_experiment(spec, parallel=3)
    print(artifact.summary()["settled_total_mean"])

The underlying pieces (controller, engines, baselines, control loop)
remain directly importable for custom wiring.
"""

from repro.apps import AppSpec, app_names, build_app
from repro.baselines import OptimumSearch, RuleBasedAutoscaler, StaticAllocator
from repro.core import (
    ControlLoop,
    LoopResult,
    PEMAConfig,
    PEMAController,
    StepAction,
    WorkloadAwarePEMA,
)
from repro.experiments import (
    ExperimentArtifact,
    ExperimentSpec,
    run_experiment,
    run_sweep,
)
from repro.sim import Allocation, AnalyticalEngine, IntervalMetrics
from repro.sweeps import SweepGrid, SweepStore, run_grid

__version__ = "1.0.0"

__all__ = [
    "AppSpec",
    "build_app",
    "app_names",
    "Allocation",
    "IntervalMetrics",
    "AnalyticalEngine",
    "PEMAConfig",
    "PEMAController",
    "StepAction",
    "WorkloadAwarePEMA",
    "ControlLoop",
    "LoopResult",
    "ExperimentSpec",
    "ExperimentArtifact",
    "run_experiment",
    "run_sweep",
    "SweepGrid",
    "SweepStore",
    "run_grid",
    "OptimumSearch",
    "RuleBasedAutoscaler",
    "StaticAllocator",
    "__version__",
]
