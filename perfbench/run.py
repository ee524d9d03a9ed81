#!/usr/bin/env python3
"""The repo's benchmark: one workload per run, checked, host-normalized.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload replay_diurnal --seed 0 \
        --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced phase (spans written to
``perfbench/traces/<workload>-seed<n>.jsonl``).  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

_T_START = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Setup is measured in this many fresh processes; the median is reported.
SETUP_PROBES = 3
#: Self times must add up to the covered span time within this share of
#: the traced phase's wall time.
TRACE_TOLERANCE = 0.01


def _require_source() -> None:
    """Refuse to run without the program's sources in this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Rates:
    """Per-round rates, raw and at reference host speed."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.ref: list[float] = []

    def add(self, amount: int, calls: list[tuple[int, int, float, float]]) -> None:
        self.raw.append(amount / sum(c[2] for c in calls))
        self.ref.append(amount / sum(c[3] for c in calls))

    def line(self, name: str, what: str) -> str:
        q1, med, q3 = _quartiles(self.ref)
        return (
            f"# {name}: {len(self.ref)} {what}, q1 {q1:.1f} median {med:.1f} "
            f"q3 {q3:.1f}; raw median {statistics.median(self.raw):.1f}"
        )


class Phase:
    """A sequence of timed calls, each bracketed by reference-kernel runs."""

    def __init__(self, workload: Any, meter: Any, recorder: Any = None) -> None:
        self.workload = workload
        self.meter = meter
        self.recorder = recorder
        self.cold = Rates()
        self.warm = Rates()
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self._last = 0.0

    @contextlib.contextmanager
    def timed(self) -> Iterator[None]:
        if self.recorder is not None:
            self.recorder.active = True
        start = perf_counter()
        try:
            yield
        finally:
            self._last = perf_counter() - start
            if self.recorder is not None:
                self.recorder.active = False

    def _call(self, method: Any, group: int) -> tuple[int, int, float, float] | None:
        """``(work, ops, raw seconds, reference seconds)``, None if it raised."""
        before = self.meter.brackets[-1]
        try:
            work, ops = method(group, self.timed)
        except Exception:  # a raising call is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            ops = self.workload.ops(group)
            self.attempted += ops
            self.failed += ops
            self.meter.bracket()
            return None
        after = self.meter.bracket()
        self.wall_s += self._last
        self.attempted += ops
        return work, ops, self._last, self.meter.reference_seconds(self._last, before, after)

    def rounds(self, *, deadline: float | None = None, count: int | None = None) -> None:
        """Run whole rounds until ``deadline`` (at least one) or ``count``."""
        wl = self.workload
        done = 0
        # Collect once, before the phase: the garbage a call leaves behind
        # is then collected inside later calls, so its cost is counted.
        gc.collect()
        self.meter.bracket()
        while True:
            if count is not None and done >= count:
                break
            if count is None and done > 0 and perf_counter() >= deadline:
                break
            wl.begin_round()
            cold = [self._call(wl.cold, g) for g in range(len(wl.groups))]
            if all(cold):
                self.cold.add(sum(c[0] for c in cold), cold)
            for _ in range(wl.warm_rounds):
                wl.prepare_warm()
                warm = [self._call(wl.warm, g) for g in range(wl.warm_calls)]
                if all(warm):
                    self.warm.add(sum(c[1] for c in warm), warm)
            done += 1


def _setup_probes(args: argparse.Namespace, meter: Any) -> tuple[list[float], list[float]]:
    """Process start to ready in fresh processes: (raw, reference) seconds.

    The parent runs a kernel bracket just before each spawn and the probe
    runs one just after it is ready; their mean normalizes that probe.
    """
    raw, ref = [], []
    for _ in range(SETUP_PROBES):
        before = meter.bracket()
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = proc.stdout.readline()
            elapsed = perf_counter() - start
            after = proc.stdout.readline()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        raw.append(elapsed)
        ref.append(meter.reference_seconds(elapsed, before, float(after)))
    return raw, ref


def _declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for the mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def _traced(wl: Any, meter: Any, args: argparse.Namespace, untraced: Phase) -> tuple[dict, Phase]:
    """The traced phase: fixed rounds with every layer call wrapped."""
    from tracing import SpanRecorder, layer_metrics

    rec = SpanRecorder(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
    rec.install()
    phase = Phase(wl, meter, rec)
    per_round: list[dict[str, int]] = []
    t0 = perf_counter()
    try:
        for _ in range(wl.trace_rounds):
            spans_before = len(rec.spans)
            counters_before = dict(rec.counters)
            phase.rounds(count=1)
            counts: dict[str, int] = {}
            for span in rec.spans[spans_before:]:
                counts[span[2]] = counts.get(span[2], 0) + 1
            for name, value in rec.counters.items():
                counts[name] = value - counters_before[name]
            per_round.append(counts)
    finally:
        rec.uninstall()
    layers = layer_metrics(rec.spans, rec.counters, phase.wall_s)
    for i, counts in enumerate(per_round[1:], start=2):
        wl.check(counts == per_round[0], f"trace: round {i} counts differ from round 1")
    for name, actual, expected in wl.trace_expectations(per_round[0]):
        wl.check(actual == expected, f"trace: {name} = {actual}, expected {expected}")
    gap = abs(layers["self_total_s"] - layers["covered_s"])
    wl.check(
        gap <= TRACE_TOLERANCE * phase.wall_s,
        f"trace: self times {layers['self_total_s']:.4f}s vs covered "
        f"{layers['covered_s']:.4f}s",
    )
    path = rec.write_jsonl(HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl", t0)
    print(f"# spans: {len(rec.spans)} written to {path.relative_to(ROOT)}")
    untraced_rate = statistics.median(untraced.cold.ref)
    traced_rate = statistics.median(phase.cold.ref)
    metrics = {k: v for k, v in layers.items() if k not in ("covered_s", "self_total_s")}
    metrics.update(
        {
            "trace.wall_s": phase.wall_s,
            "trace.harness_share": (phase.wall_s - layers["covered_s"]) / phase.wall_s,
            "trace.overhead": untraced_rate / traced_rate - 1.0,
        }
    )
    return metrics, phase


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()

    from hostref import REF_KERNEL_MS, HostMeter
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have {sorted(WORKLOADS)})")
    work_dir = HERE / ".work" / str(os.getpid())
    wl = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        # One untimed warm-up call; the first timed call follows it.
        wl.begin_round()
        wl.cold(0, contextlib.nullcontext)
        if args.setup_probe:
            print("ready", flush=True)
            print(HostMeter().bracket(), flush=True)
            return 0
        raw_setup_s = perf_counter() - _T_START
        meter = HostMeter()
        phase = Phase(wl, meter)
        phase.rounds(deadline=perf_counter() + args.seconds)
        layers: dict[str, Any] = {}
        if args.trace:
            layers, traced = _traced(wl, meter, args, phase)
        else:
            setup_raw, setup_ref = _setup_probes(args, meter)
        wl.final_checks()
    finally:
        wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = phase.attempted + wl.checks
    failed = phase.failed + len(wl.failures)
    if args.trace:
        attempted += traced.attempted
        failed += traced.failed
    if not meter.guard_ok():  # the whole run is void
        failed = attempted
        wl.fail(
            f"other-thread guard: {meter.other_thread_cpu:.4f} CPU-s by other "
            f"threads during {sum(meter.kernel_ms) / 1e3:.3f} s of kernel"
        )
    for message in wl.failures:
        print(f"# FAILED: {message}")

    if args.trace:
        metrics = dict(layers)
        metrics.update(
            {
                "host.ref_kernel_ms": meter.median_ms,
                "host.other_thread_cpu": meter.other_thread_cpu,
                "raw.steps_per_s": statistics.median(phase.cold.raw),
                "raw.warm_units_per_s": statistics.median(phase.warm.raw),
                "raw.setup_s": raw_setup_s,
            }
        )
    else:
        metrics = {
            "steps_per_s": statistics.median(phase.cold.ref),
            "warm_units_per_s": statistics.median(phase.warm.ref),
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
        print(phase.cold.line("steps_per_s", f"rounds of {len(wl.groups)} calls"))
        print(phase.warm.line("warm_units_per_s", "rounds"))
        print(
            f"# setup_s: {SETUP_PROBES} processes, reference "
            f"{[round(t, 3) for t in setup_ref]}, raw {[round(t, 3) for t in setup_raw]}"
        )
        print(
            f"# kernel: median {meter.median_ms:.2f} ms over {len(meter.kernel_ms)} "
            f"runs (reference {REF_KERNEL_MS} ms); error_rate {failed / attempted:.6f}"
        )
        raw = {
            "steps_per_s": statistics.median(phase.cold.raw),
            "warm_units_per_s": statistics.median(phase.warm.raw),
            "setup_s": statistics.median(setup_raw),
            "ref_kernel_ms": meter.median_ms,
        }
        print(f"# raw: {json.dumps(raw)}")
    declared = _declared(bool(args.trace))
    if sorted(declared) != sorted(metrics):
        print(
            f"# FAILED: metric names differ from BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(metrics))}"
        )
        failed += 1
    for name, unit in declared.items():
        if name in metrics:
            print(f"{name:48s} {metrics[name]:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()
                    if name in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
