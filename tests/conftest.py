"""Shared fixtures: a small synthetic app, the paper's prototypes, and
the sweep-layer builders (tmp store + small spec/grid factories) that the
sweep, batched, replay, fault, and distributed suites all build on."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.apps import build_app
from repro.apps.spec import AppSpec, RequestClass, ServiceSpec, Stage
from repro.experiments import ExperimentSpec
from repro.sim import AnalyticalEngine, Allocation
from repro.sim.types import IntervalMetrics
from repro.sweeps import SweepGrid, SweepStore


def build_tiny_app() -> AppSpec:
    """A 4-service app small enough to reason about by hand.

    Exposed as a plain function so hypothesis tests can construct it
    per-example without function-scoped-fixture health checks.
    """
    services = (
        ServiceSpec("front", cpu_demand=0.002, latency_floor=0.010,
                    burstiness=4.0, tier="frontend", language="nodejs"),
        ServiceSpec("logic", cpu_demand=0.001, latency_floor=0.008,
                    burstiness=2.0, tier="logic", language="go"),
        ServiceSpec("db", cpu_demand=0.0015, latency_floor=0.006,
                    burstiness=3.0, tier="db", language="mysql"),
        ServiceSpec("cache", cpu_demand=0.0005, latency_floor=0.002,
                    burstiness=1.5, tier="cache", language="memcached"),
    )
    classes = (
        RequestClass(
            name="read",
            weight=0.7,
            stages=(
                Stage.seq("front"),
                Stage.fanout("logic", ("cache", 0.8)),
                Stage.seq("db"),
            ),
        ),
        RequestClass(
            name="write",
            weight=0.3,
            stages=(
                Stage.seq("front"),
                Stage.seq("logic"),
                Stage.seq("db", 2.0),
            ),
        ),
    )
    return AppSpec(
        name="tiny",
        services=services,
        request_classes=classes,
        slo=0.100,
        hop_latency=0.0005,
        reference_workload=100.0,
    )


@pytest.fixture
def tiny_app() -> AppSpec:
    return build_tiny_app()


@pytest.fixture
def tiny_engine(tiny_app) -> AnalyticalEngine:
    return AnalyticalEngine(tiny_app, seed=42)


@pytest.fixture
def sockshop_app() -> AppSpec:
    return build_app("sockshop")


@pytest.fixture
def sockshop_engine(sockshop_app) -> AnalyticalEngine:
    return AnalyticalEngine(sockshop_app, seed=7)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_metrics(
    latency: float,
    workload: float = 100.0,
    utils: dict[str, float] | None = None,
    throttles: dict[str, float] | None = None,
    services: tuple[str, ...] = ("front", "logic", "db", "cache"),
) -> IntervalMetrics:
    """Hand-built IntervalMetrics for controller unit tests."""
    util = [(utils or {}).get(name, 0.10) for name in services]
    throttle = [(throttles or {}).get(name, 0.0) for name in services]
    return IntervalMetrics(
        services,
        latency_p95=latency,
        workload_rps=workload,
        utilizations=util,
        throttles=throttle,
        usages=util,
        usages_p90=[u * 1.5 for u in util],
    )


@pytest.fixture
def metrics_factory():
    return make_metrics


@pytest.fixture
def tiny_allocation() -> Allocation:
    return Allocation({"front": 1.0, "logic": 0.8, "db": 0.9, "cache": 0.3})


# -- sweep-layer builders ------------------------------------------------------
# Plain functions (importable via ``from tests.conftest import ...``) so
# hypothesis tests can construct per-example values without
# function-scoped-fixture health checks; fixture wrappers below for
# ordinary tests.

def make_sweep_spec(**overrides) -> ExperimentSpec:
    """The canonical small sweep unit: sockshop @ 700 rps, 4 steps.

    Component overrides may be plain mappings (``workload={"kind": ...}``,
    ``hooks=[{...}]``) — the spec constructor coerces them.
    """
    base = dict(app="sockshop", workload=700.0, n_steps=4, seed=0)
    base.update(overrides)
    return ExperimentSpec(**base)


def make_small_grid(**grid_overrides) -> SweepGrid:
    """A 2x2 workload x alpha grid over :func:`make_sweep_spec` (x2 repeats)."""
    kwargs = dict(
        name="g",
        base=make_sweep_spec(repeats=2),
        axes=(
            {"name": "workload", "path": "workload", "values": [600.0, 700.0]},
            {"name": "alpha", "path": "autoscaler.params.alpha",
             "values": [0.4, 0.5]},
        ),
    )
    kwargs.update(grid_overrides)
    return SweepGrid(**kwargs)


@pytest.fixture
def sweep_store(tmp_path) -> SweepStore:
    """A fresh content-addressed store under this test's tmp dir."""
    return SweepStore(tmp_path / "sweep-store")


@pytest.fixture(scope="session")
def sweep_spec_factory():
    return make_sweep_spec


@pytest.fixture(scope="session")
def small_grid_factory():
    return make_small_grid


def frame_entry(header: dict, tail: bytes) -> bytes:
    """A format-4 store entry's bytes, written by hand: ``header`` as one
    compact JSON line (NaN literals allowed), space-padded so the
    columns start at a multiple of 8 bytes, then ``tail`` (the columns
    and any channel text)."""
    data = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return data + b" " * (-(len(data) + 1) % 8) + b"\n" + bytes(tail)
