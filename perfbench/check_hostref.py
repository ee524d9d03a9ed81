"""Checks of the reference-kernel normalization, the guard, and self time.

Not collected by a plain ``pytest`` run (the file name does not match
``test_*.py``): the CPU-hog check takes a few seconds and needs a quiet
core.  Run it explicitly from the root of a checkout::

    python3 -m pytest perfbench/check_hostref.py -q
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostref import REF_KERNEL_MS, HostMeter  # noqa: E402
from tracing import layer_metrics  # noqa: E402


def _bound(name: str) -> float:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in bench["end_to_end"] if m["name"] == name)


def synthetic_load() -> float:
    """Fixed work shaped like a control step: dict bookkeeping + small arrays."""
    state: dict[str, float] = {}
    alloc = np.full(12, 1.5)
    total = 0.0
    for step in range(300):
        usage = alloc * (0.5 + 0.01 * (step % 7))
        util = usage / alloc
        for j, u in enumerate(util.tolist()):
            state[f"s{j}"] = state.get(f"s{j}", 0.0) * 0.9 + u
        alloc = np.maximum(alloc * (1.0 - 0.01 * (util - 0.6)), 0.2)
        total += float(alloc.sum())
    return total


def measure(seconds: float) -> tuple[float, float, HostMeter]:
    """Median raw and reference-speed calls/s of the synthetic load."""
    meter = HostMeter()
    meter.bracket()
    raw, ref = [], []
    end = perf_counter() + seconds
    while perf_counter() < end:
        before = meter.brackets[-1]
        start = perf_counter()
        synthetic_load()
        elapsed = perf_counter() - start
        after = meter.bracket()
        raw.append(1.0 / elapsed)
        ref.append(1.0 / meter.reference_seconds(elapsed, before, after))
    return statistics.median(raw), statistics.median(ref), meter


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_cpu_hog_halves_raw_rate_but_not_normalized_rate():
    original = os.sched_getaffinity(0)
    core = min(original)
    os.sched_setaffinity(0, {core})
    try:
        quiet_raw, quiet_ref, quiet = measure(3.0)
        hog = subprocess.Popen(
            [sys.executable, "-c",
             f"import os\nos.sched_setaffinity(0, {{{core}}})\nwhile True: pass"]
        )
        try:
            busy_raw, busy_ref, busy = measure(3.0)
        finally:
            hog.kill()
            hog.wait(timeout=10)
    finally:
        os.sched_setaffinity(0, original)
    assert hog.poll() is not None
    # Sharing one core with a hog roughly halves the raw rate ...
    assert 0.3 < busy_raw / quiet_raw < 0.7, busy_raw / quiet_raw
    # ... while the normalized rate stays within the benchmark's bound.
    drift = abs(busy_ref / quiet_ref - 1.0)
    assert drift <= _bound("steps_per_s"), drift
    # The hog is another process, so the other-thread guard stays quiet.
    assert quiet.guard_ok() and busy.guard_ok()


def test_guard_voids_background_thread_work():
    meter = HostMeter()
    stop = threading.Event()

    def spin() -> None:
        n = 0
        while not stop.is_set():
            n += 1

    worker = threading.Thread(target=spin)
    worker.start()
    try:
        for _ in range(5):
            meter.bracket()
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert meter.other_thread_cpu > 0.0
    assert not meter.guard_ok()


def test_guard_passes_without_other_threads():
    meter = HostMeter()
    for _ in range(5):
        meter.bracket()
    assert meter.guard_ok()


def test_normalization_scales_with_kernel_time():
    meter = HostMeter()
    # A call on a host at half reference speed: the brackets average to
    # twice the reference kernel time, so the call counts half as long.
    slow = 2.0 * REF_KERNEL_MS
    assert meter.reference_seconds(3.0, slow - 2.0, slow + 2.0) == pytest.approx(1.5)


def test_self_time_subtracts_direct_children():
    # run(0..10) > observe(1..4) > step(2..3); build(5..6); a parked submit
    # (7..9) overlaps ticks owned by another task and counts as wait only.
    spans = [
        (3, 2, "core.controller.step", 2.0, 3.0, None),
        (2, 1, "sim.engine.observe", 1.0, 4.0, None),
        (4, 1, "experiments.build_unit", 5.0, 6.0, None),
        (1, None, "experiments.control_loop.run", 0.0, 10.0, None),
        (5, None, "service.orchestrator.submit", 7.0, 9.0, {"parked": True}),
    ]
    counters = {
        "sim.batched.observe.cell_steps": 0,
        "sim.des.requests": 0,
        "sweeps.batched.run_units_batched.cells": 0,
        "sweeps.store.put.bytes": 0,
        "sweeps.store.get.hits": 0,
    }
    out = layer_metrics(spans, counters, wall_s=12.0)
    assert out["experiments.control_loop.run.self_s"] == pytest.approx(6.0)
    assert out["sim.engine.observe.self_s"] == pytest.approx(2.0)
    assert out["core.controller.step.self_s"] == pytest.approx(1.0)
    assert out["service.orchestrator.submit.self_s"] == 0.0
    assert out["service.orchestrator.submit.wait_s"] == pytest.approx(2.0)
    assert out["service.orchestrator.submit.calls"] == 1
    assert out["self_total_s"] == pytest.approx(out["covered_s"]) == pytest.approx(10.0)
    assert out["experiments.control_loop.run.share"] == pytest.approx(0.5)
