"""CI gate for the DES engine: vectorized fidelity + speedup + batch coverage.

Three gates in one artifact:

* **fidelity** — the vectorized :class:`MicroserviceSimulator` must be
  bit-identical to the retained scalar :class:`ReferenceSimulator`
  (IntervalMetrics, started/completed counters, and every recorded span)
  across arrival processes and seeds, at an ample allocation and at a
  squeezed one that throttles, and a whole DES sweep-cell payload
  run through the experiment worker must be byte-identical between
  ``mode="reference"`` and ``mode="vectorized"``;
* **speedup** — the vectorized simulator must run at least
  ``--min-speedup`` times faster than the reference on the
  ``bench_des_validation`` workload shape (best-of ``--repeats``);
* **coverage** — every spec of every shipped grid in
  ``benchmarks/grids/*.json`` must classify as batchable
  (``classify_unit`` returns no fallback reason), so ``--batch`` never
  silently degrades to scalar on a shipped figure.

Writes a ``BENCH_des.json`` artifact with the measured numbers either
way, and exits non-zero when a gate fails.

Usage::

    PYTHONPATH=src python benchmarks/des_gate.py \
        --out BENCH_des.json --min-speedup 3.0 --repeats 5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.apps import build_app
from repro.experiments import ExperimentSpec
from repro.experiments.runner import _run_unit_worker
from repro.sim.des import MicroserviceSimulator, ReferenceSimulator, SimConfig
from repro.sim.types import Allocation
from repro.sweeps import SweepGrid
from repro.sweeps.batched import classify_unit

WORKLOAD = 200.0
SIM_SECONDS = 8.0
WARMUP_SECONDS = 2.0
SEEDS = (0, 1, 82)
ARRIVALS = ("mmpp", "poisson")
THROTTLED_SCALE = 0.12
"""Fraction of ``generous_allocation(WORKLOAD)`` the throttled fidelity
scenarios run at."""


def _identity_pair(app, alloc, arrivals: str, seed: int):
    """(reference, vectorized) runs of one scenario, traces on."""
    pair = []
    for cls in (ReferenceSimulator, MicroserviceSimulator):
        cfg = SimConfig(arrivals=arrivals, trace=True)
        sim = cls(app, alloc, WORKLOAD, config=cfg, seed=seed)
        metrics = sim.run(SIM_SECONDS, warmup=WARMUP_SECONDS)
        pair.append((sim, metrics))
    return pair


def _spans(sim) -> list[tuple]:
    return [
        (s.request_id, s.service, s.start, s.end, s.cpu_time)
        for s in sim.traces.spans
    ]


def check_fidelity(app, alloc, failures: list[str], label: str = "") -> dict:
    scenarios = 0
    throttle_seconds = 0.0
    for arrivals in ARRIVALS:
        for seed in SEEDS:
            tag = f"fidelity{label}[{arrivals},seed={seed}]"
            (ref, m_ref), (vec, m_vec) = _identity_pair(
                app, alloc, arrivals, seed
            )
            scenarios += 1
            throttle_seconds += sum(
                m.throttle_seconds for m in m_ref.services.values()
            )
            if m_ref != m_vec:
                failures.append(f"{tag}: IntervalMetrics diverge")
            if (ref.window.started, ref.window.completed) != (
                vec.window.started,
                vec.window.completed,
            ):
                failures.append(f"{tag}: request counters diverge")
            if _spans(ref) != _spans(vec):
                failures.append(f"{tag}: trace spans diverge")
    return {"scenarios": scenarios, "seeds": list(SEEDS),
            "arrivals": list(ARRIVALS), "throttle_seconds": throttle_seconds}


def check_payload_identity(failures: list[str]) -> dict:
    """One full sweep-cell payload, byte-compared across engine modes."""
    payloads = {}
    for mode in ("reference", "vectorized"):
        spec = ExperimentSpec(
            app="sockshop",
            workload=150.0,
            n_steps=2,
            seed=7,
            engine={
                "kind": "des",
                "params": {
                    "sim_seconds": 2.0,
                    "warmup_seconds": 0.5,
                    "mode": mode,
                },
            },
        )
        payloads[mode] = json.dumps(
            _run_unit_worker(spec.to_dict(), 0), sort_keys=True
        )
    if payloads["reference"] != payloads["vectorized"]:
        failures.append("payload: DES sweep-cell bytes differ across modes")
    return {"bytes": len(payloads["vectorized"])}


def timed_seconds(cls, app, alloc, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one mode over all seeds (no traces)."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        for seed in SEEDS:
            cfg = SimConfig(arrivals="mmpp")
            sim = cls(app, alloc, WORKLOAD, config=cfg, seed=seed)
            sim.run(SIM_SECONDS, warmup=WARMUP_SECONDS)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def check_grid_coverage(grids_dir: Path, failures: list[str]) -> dict:
    """Every shipped grid spec must classify as batchable."""
    coverage: dict = {}
    for grid_path in sorted(grids_dir.glob("*.json")):
        grid = SweepGrid.read(grid_path)
        reasons: dict[str, int] = {}
        for cell in grid.cells():
            _, reason = classify_unit(cell.spec)
            if reason is not None:
                reasons[reason] = reasons.get(reason, 0) + 1
        coverage[grid_path.name] = {
            "cells": grid.n_cells,
            "fallbacks": reasons,
        }
        if reasons:
            failures.append(
                f"coverage: {grid_path.name} would fall back under --batch: "
                f"{reasons}"
            )
    return coverage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_des.json")
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing runs per mode (best one counts)")
    parser.add_argument("--grids", default="benchmarks/grids")
    args = parser.parse_args(argv)

    failures: list[str] = []
    bench: dict = {
        "min_speedup": args.min_speedup,
        "workload_rps": WORKLOAD,
        "sim_seconds": SIM_SECONDS,
        "warmup_seconds": WARMUP_SECONDS,
    }

    app = build_app("sockshop")
    alloc = Allocation({name: 2.0 for name in app.service_names})

    bench["fidelity"] = check_fidelity(app, alloc, failures)
    # At 2 cores/service the scenarios above never throttle; this
    # squeezed allocation does, so the quota-exhaust and throttled-period
    # paths are compared too.
    bench["fidelity_throttled"] = check_fidelity(
        app,
        app.generous_allocation(WORKLOAD).scale(THROTTLED_SCALE),
        failures,
        label="-throttled",
    )
    bench["fidelity_throttled"]["alloc_scale"] = THROTTLED_SCALE
    if bench["fidelity_throttled"]["throttle_seconds"] <= 0.0:
        failures.append("fidelity-throttled: the squeezed scenarios never throttle")
    bench["payload"] = check_payload_identity(failures)
    bench["coverage"] = check_grid_coverage(Path(args.grids), failures)

    repeats = max(args.repeats, 1)
    ref_seconds = timed_seconds(ReferenceSimulator, app, alloc, repeats)
    vec_seconds = timed_seconds(MicroserviceSimulator, app, alloc, repeats)
    speedup = ref_seconds / vec_seconds if vec_seconds > 0 else float("inf")
    if speedup < args.min_speedup:
        failures.append(
            f"vectorized speedup {speedup:.2f}x < required "
            f"{args.min_speedup:.2f}x ({ref_seconds * 1000:.1f} ms vs "
            f"{vec_seconds * 1000:.1f} ms best-of-{repeats})"
        )
    bench["timed"] = {
        "reference_seconds": ref_seconds,
        "vectorized_seconds": vec_seconds,
        "repeats": repeats,
    }
    bench["speedup"] = speedup
    bench["passed"] = not failures
    bench["failures"] = failures

    Path(args.out).write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(json.dumps(bench, indent=2, sort_keys=True))
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"des gate passed: vectorized {speedup:.2f}x reference "
          f"({ref_seconds * 1000:.1f} vs {vec_seconds * 1000:.1f} ms), "
          f"all shipped grids batchable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
