"""CI gate: the always-on control plane, streaming vs offline.

Boots a :class:`repro.service.ServiceRuntime` (HTTP API on an ephemeral
port), registers several apps, streams each app's own trace through the
``replay`` load driver, and asserts the service's core guarantees:

* **decision parity** — every app's streamed decision history must be
  byte-identical (canonical JSON) to the offline runner's unit payload
  for the same (spec, repeat);
* **cache warm-up** — the shutdown flush must land each complete run
  under the sweep-store unit key, byte-identical to the offline bytes;
* **HTTP surface** — ``/apps``, ``/decisions``, and ``/state`` must
  answer consistently with the streamed run;
* **throughput** — the service must sustain at least ``--min-ticks-sec``
  control-loop ticks per second across the fleet (best-of
  ``--repeats`` storeless drives).

Writes a ``BENCH_service.json`` artifact with the measured numbers
either way, and exits non-zero when a gate fails.

Usage::

    PYTHONPATH=src python benchmarks/service_gate.py \
        --out BENCH_service.json --min-ticks-sec 200
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import urllib.request
from pathlib import Path
from time import perf_counter

from repro.experiments.runner import _run_unit_worker
from repro.experiments.spec import ExperimentSpec
from repro.service import ServiceRuntime, ServiceStateStore, service_session
from repro.sweeps import SweepStore

APPS = ("sockshop", "hotelreservation", "trainticket")


def gate_specs(n_steps: int) -> list[ExperimentSpec]:
    """One spec per prototype app, diverse traces and autoscalers."""
    return [
        ExperimentSpec.from_dict({
            "name": "sockshop-svc",
            "app": "sockshop",
            "workload": {"kind": "sinusoid",
                         "params": {"low": 200.0, "high": 700.0,
                                    "period": 6000.0}},
            "n_steps": n_steps,
            "seed": 11,
            "capture": ["manager_state"],
        }),
        ExperimentSpec.from_dict({
            "name": "hotelreservation-svc",
            "app": "hotelreservation",
            "workload": {"kind": "wikipedia",
                         "params": {"low_rps": 250.0, "high_rps": 900.0}},
            "n_steps": n_steps,
            "seed": 7,
        }),
        ExperimentSpec.from_dict({
            "name": "trainticket-svc",
            "app": "trainticket",
            "workload": {"kind": "ramp",
                         "params": {"start_rps": 120.0, "end_rps": 260.0,
                                    "duration": 6000.0}},
            "n_steps": n_steps,
            "autoscaler": {"kind": "rule"},
            "engine": {"seed_offset": 2000},
            "seed": 3,
        }),
    ]


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def http_get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return json.loads(response.read())


def timed_ticks_per_sec(specs, repeats: int) -> dict:
    """Best-of-``repeats`` streaming throughput (no store, no HTTP)."""
    total = sum(spec.n_steps for spec in specs)
    best = None
    for _ in range(repeats):
        runtime = ServiceRuntime()
        runtime.start()
        for spec in specs:
            runtime.register(spec)
        start = perf_counter()
        runtime.drive()
        seconds = perf_counter() - start
        runtime.shutdown()
        if best is None or seconds < best:
            best = seconds
    return {
        "ticks": total,
        "seconds": best,
        "ticks_per_sec": total / best if best > 0 else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--steps", type=int, default=40,
                        help="control intervals streamed per app")
    parser.add_argument("--min-ticks-sec", type=float, default=200.0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing drives (best one counts)")
    parser.add_argument("--state-root", default=None,
                        help="state-store directory (default: a fresh "
                        "temporary directory)")
    args = parser.parse_args(argv)

    tmp_state = None
    if args.state_root:
        state_root = Path(args.state_root)
    else:  # don't litter the working tree with state entries
        tmp_state = tempfile.TemporaryDirectory(prefix="service-gate-state-")
        state_root = Path(tmp_state.name)

    failures: list[str] = []
    bench: dict = {
        "apps": len(APPS),
        "steps_per_app": args.steps,
        "min_ticks_sec": args.min_ticks_sec,
    }

    specs = gate_specs(args.steps)
    offline = {
        spec.name: dumps(_run_unit_worker(spec.to_dict(), 0))
        for spec in specs
    }

    store_backend = SweepStore(state_root)
    store_backend.clear()
    store = ServiceStateStore(store_backend)
    with service_session(specs, store=store, http=True) as runtime:
        submitted = runtime.drive()
        expected = len(specs) * args.steps
        if submitted != expected:
            failures.append(
                f"drive submitted {submitted} ticks, expected {expected}"
            )
        base = runtime.url
        status = http_get(base, "/apps")
        if status["ticks"] != expected:
            failures.append(
                f"/apps reports {status['ticks']} ticks, "
                f"expected {expected}"
            )
        for spec in specs:
            guardian = runtime.orchestrator.guardians[spec.name]
            streamed = dumps(guardian.result_payload())
            if streamed != offline[spec.name]:
                failures.append(
                    f"{spec.name}: streamed decision history differs "
                    f"from the offline runner's payload"
                )
            row = http_get(base, f"/apps/{spec.name}")
            if not row["complete"] or row["error"]:
                failures.append(
                    f"{spec.name}: /apps row not complete/clean: "
                    f"{row['steps_done']} steps, error {row['error']!r}"
                )
            feed = http_get(base, f"/decisions?app={spec.name}")
            if feed["total"] != args.steps:
                failures.append(
                    f"{spec.name}: /decisions total {feed['total']} != "
                    f"{args.steps}"
                )
            last = feed["decisions"][-1]["record"]
            offline_last = json.loads(offline[spec.name])["records"][-1]
            if dumps(last) != dumps(offline_last):
                failures.append(
                    f"{spec.name}: /decisions last record differs from "
                    f"the offline history"
                )
            state = http_get(base, f"/state?app={spec.name}")
            if state["step"] != args.steps:
                failures.append(
                    f"{spec.name}: /state step {state['step']} != "
                    f"{args.steps}"
                )

    # After shutdown: every complete run warmed the sweep cache.
    check_store = SweepStore(state_root)
    for spec in specs:
        cached = check_store.get_result(spec, 0)
        if cached is None:
            failures.append(f"{spec.name}: no sweep-store unit entry")
        elif dumps(cached.to_payload()) != offline[spec.name]:
            failures.append(
                f"{spec.name}: flushed unit entry differs from the "
                f"offline bytes"
            )
    bench["unit_entries"] = store.unit_entries
    bench["snapshots"] = store.snapshots

    timed = timed_ticks_per_sec(specs, max(args.repeats, 1))
    bench["timed"] = timed
    bench["timing_repeats"] = max(args.repeats, 1)
    if timed["ticks_per_sec"] < args.min_ticks_sec:
        failures.append(
            f"service throughput {timed['ticks_per_sec']:.1f} ticks/sec "
            f"< required {args.min_ticks_sec:.1f}"
        )

    bench["passed"] = not failures
    bench["failures"] = failures
    Path(args.out).write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(json.dumps(bench, indent=2, sort_keys=True))
    if tmp_state is not None:
        tmp_state.cleanup()
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"service gate passed: {len(APPS)} apps, streaming equals "
          f"offline, {timed['ticks_per_sec']:.0f} ticks/sec")
    return 0


if __name__ == "__main__":
    sys.exit(main())
