"""Declarative experiment API: one spec -> runner -> artifact pipeline.

Every evaluation scenario in the repository — the 22 benchmark figures,
the examples, the CLI commands — reduces to the same construction:
build an app, wrap it in a performance-model engine, point an autoscaler
at it, drive a control loop over a workload trace, and summarize the
run.  This package makes that construction declarative:

* :class:`ExperimentSpec` — a frozen, JSON-round-tripping description of
  one experiment (app, engine backend, workload trace, autoscaler,
  SLO/interval/seed/repeats, mid-run hooks);
* registries (:data:`ENGINES`, :data:`AUTOSCALERS`, :data:`WORKLOADS`,
  :data:`HOOKS`) that resolve the spec's string keys to factories and
  accept third-party extensions;
* :func:`run_experiment` — execute a spec (multi-seed, optionally fanned
  out over processes by the sweep scheduler, whose
  :func:`~repro.sweeps.run_sweep_cached` runs many specs at once) into an
  :class:`ExperimentArtifact` that carries per-seed histories, summary
  statistics, and lossless JSON serialization;
* :func:`run_comparison` — a Fig. 15 cell (PEMA vs OPTM vs RULE) from a
  single PEMA spec.

Quickstart::

    from repro.experiments import ExperimentSpec, run_experiment

    spec = ExperimentSpec(app="sockshop", workload=700.0, n_steps=60,
                          seed=1, repeats=3)
    artifact = run_experiment(spec, parallel=3)
    print(artifact.summary()["settled_total_mean"])
"""

from repro.experiments.artifact import ExperimentArtifact
from repro.experiments.registry import (
    AUTOSCALERS,
    ENGINES,
    HOOKS,
    WORKLOADS,
    Registry,
)
from repro.experiments.runner import (
    ExperimentUnit,
    build_unit,
    clear_optimum_cache,
    derive_rule_spec,
    hooks_on_step,
    optimum_cache_info,
    optimum_result,
    optimum_results,
    optimum_store,
    reset_optimum_cache_info,
    optimum_total,
    run_comparison,
    run_experiment,
    run_unit,
    set_optimum_store,
)
from repro.experiments.spec import (
    CAPTURE_CHANNELS,
    SPEC_FIELDS,
    AutoscalerSpec,
    ComponentSpec,
    EngineSpec,
    ExperimentSpec,
    HookSpec,
    WorkloadSpec,
)

__all__ = [
    "ExperimentSpec",
    "WorkloadSpec",
    "AutoscalerSpec",
    "EngineSpec",
    "HookSpec",
    "ComponentSpec",
    "CAPTURE_CHANNELS",
    "SPEC_FIELDS",
    "ExperimentArtifact",
    "ExperimentUnit",
    "Registry",
    "ENGINES",
    "AUTOSCALERS",
    "WORKLOADS",
    "HOOKS",
    "build_unit",
    "hooks_on_step",
    "run_unit",
    "run_experiment",
    "run_comparison",
    "derive_rule_spec",
    "optimum_total",
    "optimum_result",
    "optimum_results",
    "clear_optimum_cache",
    "optimum_cache_info",
    "reset_optimum_cache_info",
    "set_optimum_store",
    "optimum_store",
]
