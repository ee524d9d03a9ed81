"""Export utilities: run histories to CSV/JSON, and the packed codec.

Downstream users want the raw series (for plotting in their own stack);
these writers keep the on-disk format trivial — plain CSV with one header
row, or plain-dict JSON.  Two JSON forms round-trip exactly:

* the **records** form (:func:`loop_result_to_dict`), one dict per
  interval — what :class:`repro.experiments.ExperimentArtifact` persists,
  what unit workers return and what the streaming service emits;
* the **packed** form (:func:`loop_result_to_packed`), the columns as
  base64 little-endian arrays — what the sweep store keeps at rest
  (:mod:`repro.sweeps.store`).  float64 values travel as their 8 bytes,
  so decoding yields bit-identical columns and re-encoding them as
  records gives the same bytes as the original records.

Both decoders apply the same value rule and raise
:class:`MalformedHistoryError` on anything they cannot decode;
:class:`UnitResult`, one computed unit, applies it to fresh histories.
"""

from __future__ import annotations

import base64
import csv
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Collection, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.loop import LoopRecord, LoopResult

__all__ = [
    "MalformedHistoryError",
    "loop_record_to_dict",
    "loop_result_to_csv",
    "loop_result_to_dict",
    "loop_result_from_dict",
    "loop_result_to_packed",
    "loop_result_from_packed",
    "UnitResult",
]


def _interval_rows(result: "LoopResult") -> Iterator[tuple]:
    """Per interval: step, time, workload, response, total_cpu, violated,
    slo and the allocation row, as Python scalars (one ``tolist()`` per
    column)."""
    return zip(
        result.steps.tolist(),
        result.times.tolist(),
        result.workloads.tolist(),
        result.responses.tolist(),
        result.total_cpu.tolist(),
        result.violated.tolist(),
        result.slos.tolist(),
        result.allocations.tolist(),
    )


def loop_result_to_csv(result: "LoopResult", path: str | Path) -> int:
    """Dump a run history: one row per control interval plus per-service
    allocations (wide format)."""
    path = Path(path)
    if not len(result):
        raise ValueError("empty run")
    service_names = list(result.service_names)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "time", "workload_rps", "response_s", "total_cpu",
             "violated", "slo_s"]
            + [f"cpu[{name}]" for name in service_names]
        )
        for step, time, workload, response, total_cpu, violated, slo, row in (
            _interval_rows(result)
        ):
            writer.writerow(
                [
                    step,
                    f"{time:.6g}",
                    f"{workload:.6g}",
                    f"{response:.9g}",
                    f"{total_cpu:.6g}",
                    int(violated),
                    f"{slo:.6g}",
                ]
                + [f"{cpu:.6g}" for cpu in row]
            )
    return len(result)


def loop_record_to_dict(rec: "LoopRecord") -> dict[str, Any]:
    """One interval record in the canonical JSON encoding.

    Allocations are encoded as ``[name, cpu]`` pairs rather than an
    object: JSON writers that sort keys would otherwise reorder the
    services, and summation order matters to the last ulp of
    ``Allocation.total()``.  The streaming service's per-tick decision
    feed uses exactly this encoding, so a streamed history and an
    offline one compare byte-for-byte.
    """
    return {
        "step": rec.step,
        "time": rec.time,
        "workload": rec.workload,
        "response": rec.response,
        "total_cpu": rec.total_cpu,
        "violated": bool(rec.violated),
        "slo": rec.slo,
        "allocation": [
            [name, cpu]
            for name, cpu in zip(
                rec.allocation.names, rec.allocation.as_array().tolist()
            )
        ],
    }


def loop_result_to_dict(result: "LoopResult") -> dict[str, Any]:
    """A JSON-serializable run history (lossless; see the inverse below).

    Record for record the :func:`loop_record_to_dict` encoding, built
    from the columns without a per-record object.
    """
    names = result.service_names
    return {
        "records": [
            {
                "step": step,
                "time": time,
                "workload": workload,
                "response": response,
                "total_cpu": total_cpu,
                "violated": violated,
                "slo": slo,
                "allocation": [[name, cpu] for name, cpu in zip(names, row)],
            }
            for step, time, workload, response, total_cpu, violated, slo, row
            in _interval_rows(result)
        ]
    }


class MalformedHistoryError(ValueError):
    """A run history that does not decode or breaks the value rule."""


_FLOAT_FIELDS = ("time", "workload", "response", "total_cpu", "slo")


def _check_values(values: np.ndarray, field: Callable[[int], str]) -> None:
    """Reject ``values`` unless every one is finite and >= 0.

    The rule :class:`~repro.sim.types.Allocation` applies to CPU values
    (one min and one max pass; NaN fails ``>= 0``).  ``field`` names the
    field of a flat index, for the error message.
    """
    if values.size and not (values.min() >= 0 and values.max() < np.inf):
        bad = int(np.flatnonzero(~(np.isfinite(values) & (values >= 0)))[0])
        raise MalformedHistoryError(
            f"invalid {field(bad)} value {values[bad].item()!r}"
        )


def _check_block(values: np.ndarray, step: np.ndarray, n: int) -> None:
    """The value rule over one history: its ``values`` block and steps."""
    scalars = len(_FLOAT_FIELDS) * n
    _check_values(
        values,
        lambda i: _FLOAT_FIELDS[i // n] if i < scalars else "allocation",
    )
    _check_values(step, lambda i: "step")


def loop_result_from_dict(data: dict[str, Any]) -> "LoopResult":
    """Rebuild a :class:`LoopResult` from :func:`loop_result_to_dict` output.

    One comprehension per field fills the columns without building a
    per-record object.  Every float of the history, scalar fields and
    allocation matrix alike, lands in one array and is validated in one
    pass.  A missing key, a non-numeric, negative or non-finite value,
    or service names that differ between records raise
    :class:`MalformedHistoryError` (a ``ValueError``).
    """
    from repro.core.loop import LoopResult

    try:
        records = data["records"]
        if not records:
            return LoopResult()
        n = len(records)
        allocation = [rec["allocation"] for rec in records]
        # ``[name, cpu]`` pairs flattened to name, cpu, name, cpu, ...:
        # one slice each yields every name and every CPU value in order.
        flat = list(chain.from_iterable(chain.from_iterable(allocation)))
        width = len(allocation[0])
        names = tuple(flat[0 : 2 * width : 2])
        if (
            not width
            or len(flat) != 2 * sum(map(len, allocation))
            or flat[0::2] != list(names) * n
            or len(set(names)) != width
        ):
            raise MalformedHistoryError(
                "every record must allocate the same distinct services, "
                "in the same order, as [name, cpu] pairs"
            )
        # One run of ``n`` values per scalar field, then the row-major
        # allocation matrix.
        values = np.array(
            [rec[field] for field in _FLOAT_FIELDS for rec in records]
            + flat[1::2],
            dtype=np.float64,
        )
        step = np.array([rec["step"] for rec in records], dtype=np.int64)
        _check_block(values, step, n)
        scalars = len(_FLOAT_FIELDS) * n
        time, workload, response, total_cpu, slo = (
            values[start : start + n] for start in range(0, scalars, n)
        )
        return LoopResult(
            names,
            step=step,
            time=time,
            workload=workload,
            response=response,
            total_cpu=total_cpu,
            violated=[bool(rec["violated"]) for rec in records],
            slo=slo,
            allocations=values[scalars:].reshape(n, width),
        )
    except MalformedHistoryError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise MalformedHistoryError(f"malformed run history: {exc!r}") from exc



# -- the packed form ---------------------------------------------------------------
# Little-endian on every host, so an entry reads the same everywhere.
_STEP_DTYPE = np.dtype("<i8")
_VIOLATED_DTYPE = np.dtype("<u1")
_VALUES_DTYPE = np.dtype("<f8")


def _pack(column: np.ndarray, dtype: np.dtype) -> str:
    return base64.b64encode(column.astype(dtype, copy=False).tobytes()).decode(
        "ascii"
    )


def _unpack(text: Any, dtype: np.dtype, count: int, field: str) -> np.ndarray:
    """``count`` values of ``dtype`` from base64 ``text``, or raise."""
    if not isinstance(text, str):
        raise MalformedHistoryError(f"{field} must be a base64 string")
    raw = base64.b64decode(text, validate=True)
    if len(raw) != count * dtype.itemsize:
        raise MalformedHistoryError(
            f"{field} holds {len(raw)} bytes, expected {count} "
            f"x {dtype.itemsize}"
        )
    return np.frombuffer(raw, dtype=dtype)


def _values_block(result: "LoopResult") -> np.ndarray:
    """Time, workload, response, total_cpu and slo, then the row-major
    allocation matrix, as one float64 array."""
    return np.concatenate(
        [
            result.times,
            result.workloads,
            result.responses,
            result.total_cpu,
            result.slos,
            result.allocations.ravel(),
        ]
    )


def loop_result_to_packed(result: "LoopResult") -> dict[str, Any]:
    """The run history as packed columns (lossless; inverse below).

    ``n`` intervals over ``names`` (stored once); ``step`` is ``int64``,
    ``violated`` one ``uint8`` 0/1 per interval, and ``values`` one
    ``float64`` block: ``n`` values each of time, workload, response,
    total_cpu and slo, then the row-major ``(n, len(names))`` allocation
    matrix.  Every array is little-endian and base64-encoded.
    """
    return {
        "n": len(result),
        "names": list(result.service_names),
        "step": _pack(result.steps, _STEP_DTYPE),
        "violated": _pack(result.violated, _VIOLATED_DTYPE),
        "values": _pack(_values_block(result), _VALUES_DTYPE),
    }


def loop_result_from_packed(data: dict[str, Any]) -> "LoopResult":
    """Rebuild a :class:`LoopResult` from :func:`loop_result_to_packed` output.

    Raises :class:`MalformedHistoryError` for a missing key, bad base64,
    an array whose length does not match ``n``, a ``violated`` byte
    other than 0/1, names that are empty, duplicated or not strings, and
    any value the records decoder would reject (negative or non-finite).
    """
    from repro.core.loop import LoopResult

    try:
        n = data["n"]
        names = data["names"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise MalformedHistoryError(f"invalid interval count {n!r}")
        if (
            not isinstance(names, list)
            or not all(isinstance(name, str) and name for name in names)
            or len(set(names)) != len(names)
            or (n and not names)
        ):
            raise MalformedHistoryError(
                "names must be distinct non-empty strings"
            )
        width = len(names)
        scalars = len(_FLOAT_FIELDS) * n
        step = _unpack(data["step"], _STEP_DTYPE, n, "step")
        violated = _unpack(data["violated"], _VIOLATED_DTYPE, n, "violated")
        values = _unpack(
            data["values"], _VALUES_DTYPE, scalars + n * width, "values"
        )
        if violated.size and violated.max() > 1:
            raise MalformedHistoryError("violated flags must be 0 or 1")
        _check_block(values, step, n)
        time, workload, response, total_cpu, slo = values[:scalars].reshape(
            len(_FLOAT_FIELDS), n
        )
        return LoopResult(
            names,
            step=step,
            time=time,
            workload=workload,
            response=response,
            total_cpu=total_cpu,
            violated=violated.view(np.bool_),
            slo=slo,
            allocations=values[scalars:].reshape(n, width),
        )
    except MalformedHistoryError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedHistoryError(f"malformed packed history: {exc!r}") from exc


# -- one computed unit ------------------------------------------------------
@dataclass(frozen=True)
class UnitResult:
    """One (spec, repeat) unit: its history plus capture channels.

    ``channels`` holds the requested capture channels
    (``manager_state``, ``decision_trace``) by name.  Every executor
    returns units in this form, the store keeps them packed
    (:meth:`to_entry`) and artifacts take the :class:`LoopResult` as is;
    :meth:`to_payload` is the records form, built only where a unit
    leaves as JSON.
    """

    result: "LoopResult"
    channels: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def computed(
        cls,
        result: "LoopResult",
        capture: Collection[str],
        *,
        manager_state: Callable[[], Any],
        decision_trace: Callable[[], Any],
    ) -> "UnitResult":
        """A freshly computed unit, as every executor builds it.

        The history must pass the decoders' value rule (every value
        finite and >= 0), or :class:`MalformedHistoryError` is raised:
        a unit that could not be read back is never produced.  Each
        channel is present exactly when ``capture`` names it, and its
        producer is called only then.
        """
        _check_block(_values_block(result), result.steps, len(result))
        channels: dict[str, Any] = {}
        if "manager_state" in capture:
            channels["manager_state"] = manager_state()
        if "decision_trace" in capture:
            channels["decision_trace"] = decision_trace()
        return cls(result, channels)

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "UnitResult":
        """Decode a records-form unit payload (one history decode)."""
        result = loop_result_from_dict(payload)
        return cls(result, {k: v for k, v in payload.items() if k != "records"})

    def to_payload(self) -> dict[str, Any]:
        """The records-form unit payload (the JSON boundary's encoding)."""
        return {**loop_result_to_dict(self.result), **self.channels}

    @classmethod
    def from_entry(cls, payload: Any) -> "UnitResult":
        """Decode a format-2 store entry payload (one history decode).

        Raises :class:`MalformedHistoryError` when it does not decode.
        """
        if not isinstance(payload, dict) or "history" not in payload:
            raise MalformedHistoryError("unit entry holds no packed history")
        result = loop_result_from_packed(payload["history"])
        return cls(result, {k: v for k, v in payload.items() if k != "history"})

    def to_entry(self) -> dict[str, Any]:
        """The format-2 store entry payload: packed history plus channels."""
        return {"history": loop_result_to_packed(self.result), **self.channels}
