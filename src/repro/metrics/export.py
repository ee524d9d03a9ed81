"""Export utilities: run histories to CSV/JSON, and the column layout.

Downstream users want the raw series (for plotting in their own stack);
these writers keep the on-disk format trivial — plain CSV with one header
row, or plain-dict JSON.  Two forms round-trip exactly:

* the **records** form (:func:`loop_result_to_dict`), one JSON dict per
  interval — what :class:`repro.experiments.ExperimentArtifact` persists,
  what unit workers return and what the streaming service emits;
* the **column** form (:meth:`UnitResult.to_columns`), a small JSON
  header (``n``, the service names and a channel table) plus three raw
  little-endian columns and each capture channel's JSON text — what the
  sweep store keeps at rest after its header line
  (:mod:`repro.sweeps.store` owns that framing).  float64 values travel
  as their 8 bytes, so decoding yields bit-identical columns and
  re-encoding them as records gives the same bytes as the original
  records.  A channel's text is checked against its CRC-32 when the
  entry is read but decoded only when the channel is (:class:`Channels`).

Both decoders apply the same value rule and raise
:class:`MalformedHistoryError` on anything they cannot decode;
:class:`UnitResult`, one computed unit, applies it to fresh histories.
"""

from __future__ import annotations

import csv
import json
import zlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Collection, Iterator, Mapping,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.loop import LoopRecord, LoopResult

__all__ = [
    "Channels",
    "MalformedHistoryError",
    "loop_record_to_dict",
    "loop_result_to_csv",
    "loop_result_to_dict",
    "loop_result_from_dict",
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



# -- the at-rest (format 4) column layout ------------------------------------
# Little-endian on every host, so an entry reads the same everywhere.
_VALUES_DTYPE = np.dtype("<f8")
_STEP_DTYPE = np.dtype("<i8")
_VIOLATED_DTYPE = np.dtype("<u1")


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


def _history_from_columns(history: Any, tail: Any) -> "LoopResult":
    """Rebuild a :class:`LoopResult` from the ``{"n", "names"}`` header
    and a buffer of exactly the columns :meth:`UnitResult.to_columns`
    lays out.

    Raises :class:`MalformedHistoryError` for any other header, a buffer
    of any other length, a ``violated`` byte other than 0/1, names that
    are empty, duplicated or not strings, and any value the records
    decoder would reject (negative or non-finite).
    """
    from repro.core.loop import LoopResult

    if not isinstance(history, dict) or history.keys() != {"n", "names"}:
        raise MalformedHistoryError('history header must be {"n", "names"}')
    n = history["n"]
    names = history["names"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise MalformedHistoryError(f"invalid interval count {n!r}")
    if (
        not isinstance(names, list)
        or not all(isinstance(name, str) and name for name in names)
        or len(set(names)) != len(names)
        or (n and not names)
    ):
        raise MalformedHistoryError("names must be distinct non-empty strings")
    width = len(names)
    scalars = len(_FLOAT_FIELDS) * n
    step_at = 8 * (scalars + n * width)  # 8-byte values and steps
    violated_at = step_at + 8 * n
    if len(tail) != violated_at + n:
        raise MalformedHistoryError(
            f"history columns hold {len(tail)} bytes, "
            f"expected {violated_at + n}"
        )
    values = np.frombuffer(tail, _VALUES_DTYPE, step_at // 8)
    step = np.frombuffer(tail, _STEP_DTYPE, n, step_at)
    violated = np.frombuffer(tail, _VIOLATED_DTYPE, n, violated_at)
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


# -- capture channels -------------------------------------------------------
def _encode_channel(value: Any) -> bytes:
    """A channel value's at-rest JSON text."""
    return json.dumps(value, sort_keys=True, allow_nan=False).encode()


def _decode_channel(text: memoryview) -> Any:
    """A stored channel's value: its JSON text, decoded."""
    return json.loads(bytes(text))


class Channels(Mapping[str, Any]):
    """A unit's capture channels by name, read-only.

    A computed channel holds its value; a channel read from the store
    holds a view of its JSON text in the entry's bytes (which the
    history's columns view too) and is decoded the first time it is
    read, then kept.  :meth:`encoded` and :meth:`holds` answer from the
    text, so paths that only re-store a unit or count its channels
    decode nothing.  Pickling decodes every channel.
    """

    def __init__(self, values: Mapping[str, Any] = ()) -> None:
        self._values = dict(values)

    def __getitem__(self, name: str) -> Any:
        value = self._values[name]
        if type(value) is memoryview:
            value = self._values[name] = _decode_channel(value)
        return value

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"Channels({dict(self)!r})"

    def __reduce__(self) -> tuple[Any, ...]:
        return Channels, (dict(self),)

    def encoded(self, name: str) -> bytes | memoryview:
        """Channel ``name``'s at-rest JSON text (no decode)."""
        value = self._values[name]
        return value if type(value) is memoryview else _encode_channel(value)

    def holds(self, name: str) -> bool:
        """Is channel ``name`` present and not ``null``?  (No decode.)"""
        value = self._values.get(name)
        if type(value) is memoryview:
            return value != b"null"
        return value is not None


def _stored_channels(
    table: Any, tail: memoryview
) -> tuple[int, dict[str, memoryview]]:
    """Split the channel blobs off the end of ``tail``.

    ``table`` maps each channel name to ``[nbytes, crc32]``; the blobs
    follow the columns in name order and end the entry.  Returns where
    the columns end and each channel's text.  Raises
    :class:`MalformedHistoryError` for a malformed table, blobs longer
    than ``tail``, or a blob whose CRC-32 differs.
    """
    if not isinstance(table, dict):
        raise MalformedHistoryError("channel table must be an object")
    names = sorted(table)
    for name in names:
        entry = table[name]
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(type(v) is int for v in entry)
            or entry[0] < 1
        ):
            raise MalformedHistoryError(
                f"invalid channel table entry {name!r}: {entry!r}"
            )
    start = len(tail) - sum(table[name][0] for name in names)
    if start < 0:
        raise MalformedHistoryError("channel table exceeds the entry")
    channels = {}
    at = start
    for name in names:
        nbytes, crc = table[name]
        blob = tail[at : at + nbytes]
        at += nbytes
        if zlib.crc32(blob) != crc:
            raise MalformedHistoryError(f"channel {name!r} fails its CRC-32")
        channels[name] = blob
    return start, channels


# -- one computed unit ------------------------------------------------------
@dataclass(frozen=True)
class UnitResult:
    """One (spec, repeat) unit: its history plus capture channels.

    ``channels`` holds the requested capture channels
    (``manager_state``, ``decision_trace``) by name, as a read-only
    :class:`Channels` mapping (a plain mapping passed in is wrapped).
    Every executor returns units in this form, the store keeps them as
    raw columns and channel text (:meth:`to_columns`) and artifacts take
    the :class:`LoopResult` as is; :meth:`to_payload` is the records
    form, built only where a unit leaves as JSON.
    """

    result: "LoopResult"
    channels: Mapping[str, Any] = field(default_factory=Channels)

    def __post_init__(self) -> None:
        if not isinstance(self.channels, Channels):
            object.__setattr__(self, "channels", Channels(self.channels))

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
    def from_columns(cls, payload: Any, tail: Any) -> "UnitResult":
        """Decode a format-4 store entry: its JSON payload and the bytes
        after its header line (one history decode, no channel decode).

        Raises :class:`MalformedHistoryError` when it does not decode or
        a channel fails its CRC-32.
        """
        if not isinstance(payload, dict) or payload.keys() != {
            "channels", "history"
        }:
            raise MalformedHistoryError(
                'unit entry payload must be {"channels", "history"}'
            )
        tail = memoryview(tail)
        end, channels = _stored_channels(payload["channels"], tail)
        result = _history_from_columns(payload["history"], tail[:end])
        return cls(result, channels)

    def to_columns(self) -> tuple[dict[str, Any], list[Any]]:
        """The format-4 store entry: the JSON payload and the buffers that
        follow its header line.

        The payload is the ``{"n", "names"}`` history header and the
        channel table, ``{name: [nbytes, crc32]}``.  The buffers are the
        contiguous little-endian columns, in order — the ``float64``
        values block (``n`` values each of time, workload, response,
        total_cpu and slo, then the row-major ``(n, len(names))``
        allocation matrix), ``step`` as ``int64`` and ``violated`` as one
        ``uint8`` 0/1 per interval — then each channel's
        ``json.dumps(value, sort_keys=True, allow_nan=False)`` text, in
        name order.  A channel read from the store keeps its text.
        """
        result = self.result
        header = {"n": len(result), "names": list(result.service_names)}
        columns: list[Any] = [
            _values_block(result).astype(_VALUES_DTYPE, copy=False),
            np.ascontiguousarray(result.steps, _STEP_DTYPE),
            np.ascontiguousarray(result.violated).view(_VIOLATED_DTYPE),
        ]
        table = {}
        for name in sorted(self.channels):
            blob = self.channels.encoded(name)
            table[name] = [len(blob), zlib.crc32(blob)]
            columns.append(blob)
        return {"channels": table, "history": header}, columns
