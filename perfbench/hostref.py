"""Reference kernel: reports wall-clock metrics at reference host speed.

The benchmark shares its host with other tenants.  On a 2-core shared VM
the same code's raw rate drifts by tens of percent between processes
minutes apart, and host speed flips between fast and slow states within
seconds.  A fixed kernel timed around each call slows down with the host.
Each timed call is therefore converted to *reference seconds*::

    reference_s = call_s * REF_KERNEL_MS / local_kernel_ms

where ``local_kernel_ms`` is the mean of the kernel runs just before and
just after the call (a bracket of three runs on each side).  On a host
running at half speed the kernel takes twice as long and so does the
call, so the reference time stays put.

The kernel imports nothing from ``repro`` and runs with the garbage
collector off.  It mixes a pure-Python dict/int loop with small NumPy
calls, the same blend as the program's own profile (per-step Python
control logic around small-array numerics).

The guard: while the kernel runs, the process's other threads must use
(almost) no CPU.  ``process_time() - thread_time()`` over the kernel is
exactly their CPU time.  A change that slowed the kernel with background
work would inflate every normalized number; the guard voids such a run.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Kernel time, in milliseconds, that defines reference host speed (close
#: to the fast state of a 2-core x86-64 VM running CPython 3.11 and
#: NumPy 2.4).  Frozen: changing it rescales every normalized metric.
REF_KERNEL_MS = 20.0

#: Kernel runs on each side of a timed call.
BRACKET_REPS = 3

#: Other-thread CPU allowed while the kernel runs, as a share of the
#: kernel's wall time summed over a run.
GUARD_SHARE = 0.05


def ref_kernel() -> float:
    """A fixed amount of interpreter and small-array NumPy work."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(60_000):
        key = (i * 2_654_435_761) & 1023
        table[key] = table.get(key, 0) + i
        acc += key
    x = np.linspace(0.0, 1.0, 48)
    total = float(acc)
    for _ in range(2_000):
        x = np.sqrt(x * x + 0.5) - 0.1
        total += float(x.max())
    return total + sum(sorted(table.values())[:8])


class HostMeter:
    """Times the reference kernel between calls and normalizes by it."""

    def __init__(self) -> None:
        self.kernel_ms: list[float] = []
        self.brackets: list[float] = []
        self.other_cpu_s: list[float] = []

    def bracket(self) -> float:
        """Run the kernel ``BRACKET_REPS`` times; returns their mean wall time in ms."""
        walls = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(BRACKET_REPS):
                cpu0 = time.process_time()
                own0 = time.thread_time()
                t0 = time.perf_counter()
                ref_kernel()
                wall = time.perf_counter() - t0
                other = (time.process_time() - cpu0) - (time.thread_time() - own0)
                walls.append(wall * 1e3)
                self.other_cpu_s.append(max(other, 0.0))
        finally:
            if gc_was_enabled:
                gc.enable()
        self.kernel_ms.extend(walls)
        self.brackets.append(sum(walls) / BRACKET_REPS)
        return self.brackets[-1]

    @property
    def median_ms(self) -> float:
        if not self.kernel_ms:
            raise RuntimeError("reference kernel never ran")
        return statistics.median(self.kernel_ms)

    @property
    def other_thread_cpu(self) -> float:
        """Other threads' CPU seconds summed over every kernel run."""
        return sum(self.other_cpu_s)

    def guard_ok(self) -> bool:
        """True when other threads stayed (nearly) idle during the kernel."""
        kernel_s = sum(self.kernel_ms) / 1e3
        return self.other_thread_cpu <= GUARD_SHARE * kernel_s

    def reference_seconds(self, raw_seconds: float, before_ms: float, after_ms: float) -> float:
        """A call's duration at reference host speed, from its two brackets."""
        return raw_seconds * REF_KERNEL_MS / ((before_ms + after_ms) / 2.0)
