"""The traced run: spans around calls into each layer of ``repro``.

Nothing inside the program is instrumented.  :class:`SpanRecorder`
replaces a fixed list of public functions and methods (:data:`WRAPS`)
with wrappers that record one span per call -- name, start, end, parent
span id, run id -- while the recorder is active, and restores the
originals afterwards.  Functions that other modules import by name are
wrapped in every importing module, or calls through those names would
go unseen.

Spans stay in memory and are written once, at exit, as JSONL in the
record schema of :mod:`repro.obs.trace` (span ids, parent ids and the
run id ride in ``data``).  The parent of a span is the span open in the
same thread *and* asyncio task (a :class:`contextvars.ContextVar`), so
guardian ticks on the service loop thread never nest under the driver's
``submit`` calls.

Self time is a span's duration minus the durations of its direct
children: children of one parent run one after another in one thread,
so that is exactly the part of the interval they cover.  A ``submit``
that found its guardian's queue full parks until a tick frees a slot;
its whole duration is reported as ``wait_s`` and none as self time,
because the ticks that ran meanwhile own that wall time.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

__all__ = ["SpanRecorder", "WRAPS", "LAYER_NAMES", "layer_metrics"]

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)

Extra = Callable[["SpanRecorder", tuple, dict, Any], None]


def _cell_steps(rec: "SpanRecorder", args: tuple, kwargs: dict, result: Any) -> None:
    # BatchedAnalyticalEngine.observe(self, allocation, rates, intervals)
    rec.add("sim.batched.observe.cell_steps", len(args[2]))


def _des_requests(rec: "SpanRecorder", args: tuple, kwargs: dict, result: Any) -> None:
    rec.add("sim.des.requests", int(result.completed_requests))


def _batch_cells(rec: "SpanRecorder", args: tuple, kwargs: dict, result: Any) -> None:
    rec.add("sweeps.batched.run_units_batched.cells", len(args[0]))


def _put_bytes(rec: "SpanRecorder", args: tuple, kwargs: dict, result: Any) -> None:
    rec.add("sweeps.store.put.bytes", Path(result).stat().st_size)


def _get_hits(rec: "SpanRecorder", args: tuple, kwargs: dict, result: Any) -> None:
    rec.add("sweeps.store.get.hits", 0 if result is None else 1)


#: (layer call name, [(module, owner attribute or None, attribute)], extra).
#: ``owner`` None wraps a module-level function under ``attribute``.
WRAPS: tuple[tuple[str, list[tuple[str, str | None, str]], Extra | None], ...] = (
    ("workload.rate_schedule", [
        ("repro.workload.replay", None, "rate_schedule"),
        ("repro.workload", None, "rate_schedule"),
        ("repro.sweeps.batched", None, "rate_schedule"),
        ("repro.service.drivers", None, "rate_schedule"),
    ], None),
    ("sim.engine.observe", [("repro.sim.engine", "AnalyticalEngine", "observe")], None),
    ("sim.batched.observe", [
        ("repro.sim.batched", "BatchedAnalyticalEngine", "observe"),
    ], _cell_steps),
    ("sim.des.observe", [("repro.sim.des.engine", "DESEngine", "observe")], _des_requests),
    ("core.controller.step", [("repro.core.controller", "PEMAController", "step")], None),
    ("core.manager.decide", [("repro.core.manager", "WorkloadAwarePEMA", "decide")], None),
    ("core.batch.step", [("repro.core.batch", "PEMABatch", "step")], None),
    ("baselines.rule.step", [("repro.baselines.rule", "RuleBatch", "step")], None),
    ("baselines.optm.find", [
        ("repro.baselines.optm", "OptimumSearch", "find"),
        ("repro.baselines.optm_batch", "OptimumBatch", "find_many"),
    ], None),
    ("baselines.decide", [
        ("repro.baselines.rule", "RuleBasedAutoscaler", "decide"),
        ("repro.baselines.pid", "PIDController", "decide"),
        ("repro.baselines.brownout", "BrownoutController", "decide"),
    ], None),
    ("experiments.spec.from_dict", [
        ("repro.experiments.spec", "ExperimentSpec", "from_dict"),
    ], None),
    ("experiments.build_unit", [
        ("repro.experiments.runner", None, "build_unit"),
        ("repro.experiments", None, "build_unit"),
        ("repro.service.guardian", None, "build_unit"),
    ], None),
    ("experiments.control_loop.run", [("repro.core.loop", "ControlLoop", "run")], None),
    ("sweeps.scheduler.run_sweep_cached", [
        ("repro.sweeps.scheduler", None, "run_sweep_cached"),
        ("repro.sweeps", None, "run_sweep_cached"),
    ], None),
    ("sweeps.batched.run_units_batched", [
        ("repro.sweeps.batched", None, "run_units_batched"),
        ("repro.sweeps", None, "run_units_batched"),
    ], _batch_cells),
    ("sweeps.store.put", [("repro.sweeps.store", "JsonDirectoryStore", "put_raw")], _put_bytes),
    ("sweeps.store.get", [("repro.sweeps.store", "JsonDirectoryStore", "get_raw")], _get_hits),
    ("sweeps.store.scans", [("repro.sweeps.store", "JsonDirectoryStore", "entry_paths")], None),
    ("sweeps.aggregate.build_artifacts", [
        ("repro.sweeps.scheduler", None, "build_artifacts"),
        ("repro.sweeps", None, "build_artifacts"),
        ("repro.sweeps.distributed", None, "build_artifacts"),
    ], None),
    ("metrics.export.to_dict", [
        ("repro.metrics.export", None, "loop_result_to_dict"),
        ("repro.metrics", None, "loop_result_to_dict"),
        ("repro.experiments.runner", None, "loop_result_to_dict"),
        ("repro.experiments.artifact", None, "loop_result_to_dict"),
        ("repro.service.guardian", None, "loop_result_to_dict"),
    ], None),
    ("metrics.export.from_dict", [
        ("repro.metrics.export", None, "loop_result_from_dict"),
        ("repro.metrics", None, "loop_result_from_dict"),
        ("repro.experiments.runner", None, "loop_result_from_dict"),
        ("repro.experiments.artifact", None, "loop_result_from_dict"),
    ], None),
    ("service.guardian.tick", [("repro.service.guardian", "Guardian", "tick")], None),
    ("service.orchestrator.submit", [
        ("repro.service.orchestrator", "Orchestrator", "submit"),
    ], None),
    ("service.rescaler.apply", [("repro.service.rescaler", "Rescaler", "apply")], None),
    ("obs.decision_record", [
        ("repro.obs.decision", None, "decision_record"),
        ("repro.obs", None, "decision_record"),
        ("repro.core.loop", None, "decision_record"),
        ("repro.service.guardian", None, "decision_record"),
    ], None),
)

LAYER_NAMES = tuple(name for name, _, _ in WRAPS)

#: Counters other than ``.calls`` that belong to a wrapped call.
EXTRA_COUNTERS = (
    "sim.batched.observe.cell_steps",
    "sim.des.requests",
    "sweeps.batched.run_units_batched.cells",
    "sweeps.store.put.bytes",
    "sweeps.store.get.hits",
)


class SpanRecorder:
    """In-memory spans for the wrapped calls; active only inside calls."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.active = False
        self.spans: list[tuple[int, int | None, str, float, float, dict | None]] = []
        self.counters: dict[str, int] = {name: 0 for name in EXTRA_COUNTERS}
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] += value

    # -- wrapping ----------------------------------------------------------------
    def install(self) -> None:
        """Wrap every call in :data:`WRAPS`; :meth:`uninstall` undoes it."""
        for name, targets, extra in WRAPS:
            for module_name, owner_name, attr in targets:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                raw = (
                    owner.__dict__[attr]
                    if owner_name is not None
                    else getattr(module, attr)
                )
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, self._wrapped(raw, name, extra))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _wrapped(self, fn: Any, name: str, extra: Extra | None) -> Any:
        if isinstance(fn, classmethod):
            return classmethod(self._wrapped(fn.__func__, name, extra))
        if isinstance(fn, staticmethod):
            return staticmethod(self._wrapped(fn.__func__, name, extra))
        rec = self
        spans = self.spans
        ids = self._ids

        if inspect.iscoroutinefunction(fn):
            # The one coroutine wrapped is Orchestrator.submit(self, sample):
            # a full guardian queue means the put parks.

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not rec.active:
                    return await fn(*args, **kwargs)
                orchestrator, sample = args[0], args[1]
                data = {"parked": orchestrator._guardian(sample.app).queue.full()}
                sid = next(ids)
                parent = _CURRENT.get()
                token = _CURRENT.set(sid)
                start = perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    _CURRENT.reset(token)
                    spans.append((sid, parent, name, start, end, data))
                if extra is not None:
                    extra(rec, args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not rec.active:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _CURRENT.reset(token)
                spans.append((sid, parent, name, start, end, None))
            if extra is not None:
                extra(rec, args, kwargs, result)
            return result

        return wrapper

    # -- output ------------------------------------------------------------------
    def write_jsonl(self, path: Path, t0: float) -> Path:
        """All spans as :mod:`repro.obs.trace` span records, one per line.

        ``t`` is the start offset from ``t0``; ``parent`` is the parent
        span's name, and ``data`` carries the span, parent and run ids.
        """
        by_id = {sid: (name, parent) for sid, parent, name, _, _, _ in self.spans}

        def depth(parent: int | None) -> int:
            d = 0
            while parent is not None:
                d += 1
                parent = by_id[parent][1]
            return d

        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, name, start, end, data in sorted(
                self.spans, key=lambda s: s[4]
            ):
                record = {
                    "type": "span",
                    "name": name,
                    "t": start - t0,
                    "dur": end - start,
                    "depth": depth(parent),
                    "parent": by_id[parent][0] if parent is not None else None,
                    "data": {
                        "span": sid,
                        "parent_span": parent,
                        "run": self.run_id,
                        **(data or {}),
                    },
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return path


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def layer_metrics(
    spans: list[tuple[int, int | None, str, float, float, dict | None]],
    counters: dict[str, int],
    wall_s: float,
) -> dict[str, Any]:
    """Per-layer ``.calls``/``.self_s``/``.share`` plus the extra counters.

    Also returns ``covered_s`` (the union of top-level span intervals)
    and ``self_total_s``: with correct nesting the two are equal, and
    ``wall_s - covered_s`` is harness time.
    """
    child_s: dict[int, float] = {}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    calls = {name: 0 for name in LAYER_NAMES}
    self_s = {name: 0.0 for name in LAYER_NAMES}
    wait_s = 0.0
    ticks: list[float] = []
    top: list[tuple[float, float]] = []
    for sid, parent, name, start, end, data in spans:
        calls[name] += 1
        if data and data.get("parked"):
            wait_s += end - start
            continue
        self_s[name] += (end - start) - child_s.get(sid, 0.0)
        if parent is None:
            top.append((start, end))
        if name == "service.guardian.tick":
            ticks.append(end - start)
    out: dict[str, Any] = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.share"] = self_s[name] / wall_s if wall_s > 0 else 0.0
    requests = counters["sim.des.requests"]
    ticks.sort()
    gets = calls["sweeps.store.get"]
    out.update(
        {
            "sim.batched.observe.cell_steps": counters["sim.batched.observe.cell_steps"],
            "sim.des.requests": requests,
            "sim.des.us_per_request": (
                self_s["sim.des.observe"] / requests * 1e6 if requests else 0.0
            ),
            "sweeps.batched.run_units_batched.cells": counters[
                "sweeps.batched.run_units_batched.cells"
            ],
            "sweeps.store.put.bytes": counters["sweeps.store.put.bytes"],
            "sweeps.store.get.hit_ratio": (
                counters["sweeps.store.get.hits"] / gets if gets else 0.0
            ),
            "service.guardian.tick.p50_us": _percentile(ticks, 0.50) * 1e6,
            "service.guardian.tick.p99_us": _percentile(ticks, 0.99) * 1e6,
            "service.orchestrator.submit.wait_s": wait_s,
        }
    )
    covered = _union_length(top)
    out["covered_s"] = covered
    out["self_total_s"] = sum(self_s.values())
    return out
