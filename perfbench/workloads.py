"""The benchmark's four workloads, built from ``--seed``.

Each workload runs in this process with ``parallel=1``.  It exposes its
timed *calls* grouped into *rounds*: a round holds one cold call per
group (an app, a controller family, the whole fleet, or a DES cell) and
then ``warm_rounds`` rounds of warm calls.  Cold calls compute; warm
calls re-run the same specs against a store that holds every result, so
every unit is a cache hit.

A call does its untimed preparation, then times exactly the program
call inside ``timed()`` and returns ``(work, ops)``: control intervals
completed and operations attempted (units, or ticks for the service).  Output checks that need the
results run outside the timed window and report through ``self.fail``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Callable, ContextManager

from repro.experiments.runner import (
    _run_unit_worker,
    clear_optimum_cache,
    run_unit,
)
from repro.experiments.spec import ExperimentSpec
from repro.metrics.export import loop_result_to_dict
from repro.service import ServiceRuntime
from repro.sweeps import SweepGrid, SweepStore
from repro.sweeps import scheduler

ROOT = Path(__file__).resolve().parents[1]
GRIDS = ROOT / "benchmarks" / "grids"

Timed = Callable[[], ContextManager[None]]


def dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


def summary_digest(artifacts) -> str:
    """Digest of the artifacts' canonical summaries (the user-visible result)."""
    h = hashlib.sha256()
    for artifact in artifacts:
        h.update(artifact.summary_json().encode())
    return h.hexdigest()


def unit_payloads(artifact) -> list[dict[str, Any]]:
    """The per-repeat unit payloads an artifact was assembled from.

    Inverse of ``ExperimentArtifact.from_payloads``: the records round-trip
    losslessly through ``loop_result_to_dict``, and each capture channel's
    key is present exactly when the spec requested it.
    """
    capture = artifact.spec.capture
    payloads = []
    for repeat, result in enumerate(artifact.results):
        payload = loop_result_to_dict(result)
        if "manager_state" in capture:
            payload["manager_state"] = artifact.manager_states[repeat]
        if "decision_trace" in capture:
            payload["decision_trace"] = artifact.decision_traces[repeat]
        payloads.append(payload)
    return payloads


class Workload:
    """Base: groups of specs, a scratch store, and a failure log."""

    name = ""
    #: Warm rounds per cold round (warm calls are short; more samples).
    warm_rounds = 1
    #: Traced rounds: fixed, so every traced count repeats exactly.
    trace_rounds = 2

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.failures: list[str] = []
        self.checks = 0
        self.store: SweepStore | None = None
        self.groups: list[tuple[str, list[ExperimentSpec]]] = []
        self._digests: dict[str, str] = {}
        self._last_cold: dict[str, list] = {}

    # -- bookkeeping ---------------------------------------------------------
    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.fail(message)

    def same_digest(self, group: str, digest: str, what: str) -> None:
        expected = self._digests.setdefault(group, digest)
        self.check(digest == expected, f"{self.name}/{group}: {what} differs")

    @property
    def warm_calls(self) -> int:
        """Warm calls per warm round: one per group unless overridden."""
        return len(self.groups)

    @property
    def units(self) -> int:
        return sum(spec.repeats for _, specs in self.groups for spec in specs)

    @property
    def cell_steps(self) -> int:
        return sum(
            spec.repeats * spec.n_steps for _, specs in self.groups for spec in specs
        )

    def fresh_store(self) -> SweepStore:
        self.close()
        self.store = SweepStore(self.work_dir / "store")
        return self.store

    def close(self) -> None:
        shutil.rmtree(self.work_dir / "store", ignore_errors=True)
        self.store = None

    # -- the round protocol (overridden where a workload differs) -------------
    def begin_round(self) -> None:
        """Untimed preparation before a round's cold calls."""

    @property
    def cold_store(self) -> SweepStore | None:
        """The store cold calls write to; None runs them storeless."""
        return None

    def expected_fallbacks(self, specs: list[ExperimentSpec]) -> dict[str, int]:
        """The batch fallbacks a cold call of ``specs`` must report."""
        return {}

    def cold(self, group: int, timed: Timed) -> tuple[int, int]:
        label, specs = self.groups[group]
        with timed():
            artifacts, report = scheduler.run_sweep_cached(
                specs, store=self.cold_store, batch=True
            )
        self.check(
            report.computed == len(specs)
            and report.fallbacks == self.expected_fallbacks(specs),
            f"{self.name}/{label}: cold run computed {report.computed} "
            f"fallbacks {report.fallbacks}",
        )
        self.same_digest(label, summary_digest(artifacts), "cold summary")
        self._last_cold[label] = artifacts
        return sum(s.n_steps * s.repeats for s in specs), len(specs)

    def prepare_warm(self) -> None:
        """Untimed: make the store hold every unit of the last cold round."""
        if self.store is not None:
            return
        store = self.fresh_store()
        for artifacts in self._last_cold.values():
            for artifact in artifacts:
                for repeat, payload in enumerate(unit_payloads(artifact)):
                    store.put_result(artifact.spec, repeat, payload)

    def warm(self, group: int, timed: Timed) -> tuple[int, int]:
        label, specs = self.groups[group]
        with timed():
            artifacts, report = scheduler.run_sweep_cached(
                specs, store=self.store, batch=True
            )
        units = sum(s.repeats for s in specs)
        self.check(
            report.cache_hits == units and report.computed == 0,
            f"{self.name}/{label}: warm pass hits {report.cache_hits}/{units}, "
            f"computed {report.computed}",
        )
        self.same_digest(label, summary_digest(artifacts), "warm summary")
        return sum(s.n_steps * s.repeats for s in specs), units

    def final_checks(self) -> None:
        """Output checks run once, after the timed phase."""

    def ops(self, group: int) -> int:
        """Operations a call of ``group`` attempts (counted failed if it raises)."""
        return sum(spec.repeats for spec in self.groups[group][1])

    def trace_expectations(self, c: dict[str, int]) -> list[tuple[str, Any, Any]]:
        """``(count, traced, known total)`` for one traced round."""
        sweeps = len(self.groups) * (1 + self.warm_rounds)
        return [
            ("sim.batched.observe.cell_steps",
             c.get("sim.batched.observe.cell_steps"), self.cell_steps),
            ("sweeps.batched.run_units_batched.cells",
             c.get("sweeps.batched.run_units_batched.cells"), self.units),
            ("sweeps.scheduler.run_sweep_cached.calls",
             c.get("sweeps.scheduler.run_sweep_cached"), sweeps),
            ("sweeps.store.get.hits",
             c.get("sweeps.store.get.hits"), self.units * self.warm_rounds),
        ]


class ReplayDiurnal(Workload):
    """The shipped 36-hour Wikipedia replay grid, batched and storeless."""

    name = "replay_diurnal"
    warm_rounds = 3
    trace_rounds = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(work_dir)
        data = json.loads((GRIDS / "replay_diurnal.json").read_text())
        _offset_seeds(data, seed)
        by_app: dict[str, list[ExperimentSpec]] = {}
        for cell in SweepGrid.from_dict(data).cells():
            by_app.setdefault(cell.spec.app, []).append(cell.spec)
        self.groups = list(by_app.items())

    def final_checks(self) -> None:
        # One cell: the batched payload (as the store holds it) must be
        # byte-equal to the scalar unit worker's.
        label, specs = self.groups[0]
        artifact = self._last_cold[label][0]
        batched = dumps(unit_payloads(artifact)[0])
        scalar = dumps(_run_unit_worker(artifact.spec.to_dict(), 0))
        self.check(batched == scalar, f"{self.name}/{label}: batched != scalar")

    def trace_expectations(self, c: dict[str, int]) -> list[tuple[str, Any, Any]]:
        return super().trace_expectations(c) + [
            ("core.manager.decide.calls",
             c.get("core.manager.decide"), self.cell_steps),
        ]


class RobustnessWide(Workload):
    """robustness_smoke's disturbance x controller grid, widened by seeds.

    Every round writes a fresh store (cold) and reads it back (warm); the
    in-process OPTM cache is cleared first so the cold pass is cold.
    """

    name = "robustness_wide"
    n_seeds = 12
    trace_rounds = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(work_dir)
        data = json.loads((GRIDS / "robustness_smoke.json").read_text())
        data["name"] = "robustness_wide"
        data["axes"].append(
            {
                "name": "seed",
                "path": "seed",
                "values": [1000 * seed + k for k in range(self.n_seeds)],
            }
        )
        by_kind: dict[str, list[ExperimentSpec]] = {}
        for cell in SweepGrid.from_dict(data).cells():
            by_kind.setdefault(cell.spec.autoscaler.kind, []).append(cell.spec)
        self.groups = list(by_kind.items())

    def begin_round(self) -> None:
        self.fresh_store()
        clear_optimum_cache()

    @property
    def cold_store(self) -> SweepStore | None:
        return self.store

    def prepare_warm(self) -> None:
        """The cold round already wrote every unit to this round's store."""

    def trace_expectations(self, c: dict[str, int]) -> list[tuple[str, Any, Any]]:
        # ``sweeps.store.scans`` is reported but not pinned: its count is
        # the program's choice (today one scan per unit and pass), not a
        # total the workload fixes.
        return super().trace_expectations(c) + [
            ("sweeps.store.put.calls", c.get("sweeps.store.put"), self.units),
        ]


class ServiceStream(Workload):
    """A fleet streamed through an in-process ServiceRuntime (no HTTP).

    Closed loop: ``drive()`` submits samples round-robin and parks on a
    full guardian queue (64 deep) until a tick frees a slot.

    The ticks run on the service loop thread while the reference kernel
    runs on the main thread, so the process is pinned to one core: the
    kernel then times the core the ticks run on.  The main thread only
    waits during a drive, so pinning costs no parallelism.
    """

    name = "service_stream"
    n_steps = 96
    fleet_seeds = 3
    trace_rounds = 3

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(work_dir)
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        specs = []
        for k in range(self.fleet_seeds):
            s = 10 * seed + k
            specs += [
                ExperimentSpec.from_dict({
                    "name": f"sockshop-pema-{k}",
                    "app": "sockshop",
                    "workload": {"kind": "sinusoid", "params": {
                        "low": 200.0, "high": 700.0, "period": 6000.0}},
                    "n_steps": self.n_steps,
                    "seed": 11 + s,
                    "capture": ["decision_trace"],
                }),
                ExperimentSpec.from_dict({
                    "name": f"hotel-wapema-{k}",
                    "app": "hotelreservation",
                    "workload": {"kind": "wikipedia", "params": {
                        "low_rps": 250.0, "high_rps": 900.0, "seed": 42 + s}},
                    "autoscaler": {"kind": "workload_aware_pema", "params": {
                        "workload_low": 150.0, "workload_high": 900.0,
                        "start_rps": 900.0, "min_range_width": 81.25}},
                    "n_steps": self.n_steps,
                    "seed": 7 + s,
                    "capture": ["decision_trace"],
                }),
                ExperimentSpec.from_dict({
                    "name": f"train-rule-{k}",
                    "app": "trainticket",
                    "workload": {"kind": "ramp", "params": {
                        "start_rps": 120.0, "end_rps": 260.0, "duration": 6000.0}},
                    "autoscaler": {"kind": "rule"},
                    "engine": {"seed_offset": 2000},
                    "n_steps": self.n_steps,
                    "seed": 3 + s,
                    "capture": ["decision_trace"],
                }),
            ]
        self.groups = [("fleet", specs)]
        self._streamed: dict[str, str] = {}

    def cold(self, group: int, timed: Timed) -> tuple[int, int]:
        label, specs = self.groups[group]
        runtime = ServiceRuntime()
        runtime.start()
        try:
            for spec in specs:
                runtime.register(spec)
            with timed():
                submitted = runtime.drive()
            guardians = dict(runtime.orchestrator.guardians)
        finally:
            runtime.shutdown()
        poisoned = sorted(a for a, g in guardians.items() if g.error is not None)
        self.check(not poisoned, f"{self.name}: poisoned guardians {poisoned}")
        self.check(
            submitted == self.cell_steps,
            f"{self.name}: submitted {submitted} of {self.cell_steps} samples",
        )
        streamed = {a: dumps(g.result_payload()) for a, g in guardians.items()}
        self.same_digest(label, dumps(streamed), "streamed payloads")
        self._streamed = streamed
        return submitted, len(specs)

    def prepare_warm(self) -> None:
        if self.store is not None:
            return
        store = self.fresh_store()
        for spec in self.groups[0][1]:
            store.put_result(spec, 0, json.loads(self._streamed[spec.name]))

    def warm(self, group: int, timed: Timed) -> tuple[int, int]:
        label, specs = self.groups[group]
        with timed():
            artifacts, report = scheduler.run_sweep_cached(specs, store=self.store)
        self.check(
            report.cache_hits == len(specs) and report.computed == 0,
            f"{self.name}: warm pass hits {report.cache_hits}/{len(specs)}",
        )
        self.same_digest("warm", summary_digest(artifacts), "warm summary")
        return sum(s.n_steps for s in specs), len(specs)

    def ops(self, group: int) -> int:
        return self.cell_steps

    def trace_expectations(self, c: dict[str, int]) -> list[tuple[str, Any, Any]]:
        ticks = self.cell_steps
        return [
            ("service.guardian.tick.calls", c.get("service.guardian.tick"), ticks),
            ("service.orchestrator.submit.calls",
             c.get("service.orchestrator.submit"), ticks),
            ("sim.engine.observe.calls", c.get("sim.engine.observe"), ticks),
            ("obs.decision_record.calls", c.get("obs.decision_record"), ticks),
            ("sweeps.scheduler.run_sweep_cached.calls",
             c.get("sweeps.scheduler.run_sweep_cached"), self.warm_rounds),
            ("sweeps.store.get.hits",
             c.get("sweeps.store.get.hits"), self.units * self.warm_rounds),
        ]

    def final_checks(self) -> None:
        for spec in self.groups[0][1]:
            offline = dumps(_run_unit_worker(spec.to_dict(), 0))
            self.check(
                self._streamed.get(spec.name) == offline,
                f"{self.name}/{spec.name}: streamed payload != offline payload",
            )


class DesCells(Workload):
    """A small DES grid through the scheduler's scalar fallback.

    A cold call is one cell (the fallback's natural unit); a warm call
    reads the whole grid back, since one cached cell is too little work
    to time.  Arrivals are Poisson: under the default bursty MMPP arrivals
    one 1.5 s measurement window completes anywhere from 180 to 550
    requests at the same rate, so per-seed work would swamp the event
    loop's speed.
    """

    name = "des_cells"
    warm_rounds = 4
    warm_calls = 1
    trace_rounds = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(work_dir)
        specs = [
            ExperimentSpec.from_dict({
                "name": f"des-{app}-{k}",
                "app": app,
                "workload": {"kind": "constant", "params": {"rps": rps}},
                "n_steps": 4,
                "seed": 100 * seed + 7 + k,
                "engine": {"kind": "des", "params": {
                    "sim_seconds": 2.0, "warmup_seconds": 0.5,
                    "config": {"arrivals": "poisson"}}},
            })
            for app, rps in (("sockshop", 150.0), ("hotelreservation", 200.0))
            for k in range(3)
        ]
        self.groups = [(spec.name, [spec]) for spec in specs]

    def expected_fallbacks(self, specs: list[ExperimentSpec]) -> dict[str, int]:
        return {"engine:des": len(specs)}

    def cold(self, group: int, timed: Timed) -> tuple[int, int]:
        result = super().cold(group, timed)
        label = self.groups[group][0]
        self.same_digest(f"{label}:payloads", dumps([
            p for a in self._last_cold[label] for p in unit_payloads(a)
        ]), "payloads")
        return result

    def trace_expectations(self, c: dict[str, int]) -> list[tuple[str, Any, Any]]:
        return [
            ("sim.des.observe.calls", c.get("sim.des.observe"), self.cell_steps),
            ("experiments.control_loop.run.calls",
             c.get("experiments.control_loop.run"), self.units),
            ("sim.des.requests > 0", c.get("sim.des.requests", 0) > 0, True),
            ("sweeps.scheduler.run_sweep_cached.calls",
             c.get("sweeps.scheduler.run_sweep_cached"),
             len(self.groups) + self.warm_rounds),
            ("sweeps.store.get.hits",
             c.get("sweeps.store.get.hits"), self.units * self.warm_rounds),
        ]

    def warm(self, group: int, timed: Timed) -> tuple[int, int]:
        specs = [spec for _, cell in self.groups for spec in cell]
        with timed():
            artifacts, report = scheduler.run_sweep_cached(specs, store=self.store)
        self.check(
            report.cache_hits == len(specs) and report.computed == 0,
            f"{self.name}: warm pass hits {report.cache_hits}/{len(specs)}",
        )
        cold = [a for label, _ in self.groups for a in self._last_cold[label]]
        self.check(
            summary_digest(artifacts) == summary_digest(cold),
            f"{self.name}: warm summary differs from cold",
        )
        return sum(s.n_steps for s in specs), len(specs)

    def final_checks(self) -> None:
        unit = run_unit(self.groups[0][1][0])
        self.check(
            unit.engine.last_completed > 0,
            f"{self.name}: DES completed no requests",
        )


def _offset_seeds(data: dict[str, Any], seed: int) -> None:
    """Offset every spec seed and trace seed of a grid dict by ``seed``."""

    def walk(node: Any) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "seed" and isinstance(value, int):
                    node[key] = value + seed
                else:
                    walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(data["base"])
    for axis in data["axes"]:
        if axis.get("path") == "seed":
            axis["values"] = [v + seed for v in axis["values"]]
        else:
            walk(axis["values"])


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ReplayDiurnal, RobustnessWide, ServiceStream, DesCells)
}
