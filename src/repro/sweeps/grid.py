"""Declarative sweep grids: axis definitions over a base experiment spec.

A :class:`SweepGrid` turns one base :class:`~repro.experiments.ExperimentSpec`
plus a list of :class:`SweepAxis` definitions into the cartesian product of
cells the paper's figures sweep over (workload level, α/β, CPU speed, SLO,
seeds).  Each axis either varies a single dotted field path
(``"autoscaler.params.alpha"``) over scalar values, or — for zipped axes,
where several fields move together — enumerates override mappings whose keys
are dotted paths (``{"app": "sockshop", "workload": 700.0, "seed": 700}``).

Grids are frozen value objects that round-trip losslessly through JSON, so a
whole benchmark figure is one ``benchmarks/grids/<name>.json`` file: the CLI
(``repro sweep --grid``), the scheduler, and the figure benchmarks all expand
the same file to the same spec list.
"""

from __future__ import annotations

import itertools
import json
from copy import deepcopy
from dataclasses import dataclass, field
from difflib import get_close_matches
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.experiments.spec import SPEC_FIELDS, ExperimentSpec, loads_finite

__all__ = [
    "SweepAxis",
    "SweepCell",
    "SweepGrid",
    "set_path",
    "validate_override_path",
]

#: Reserved key in a zipped-axis override mapping: names the cell instead of
#: setting a spec field.
LABEL_KEY = "label"

#: The component spec fields a dotted path may descend into.  Anything
#: under ``params`` is factory-specific and validated by the factory at
#: build time; everything above it is schema-checked here so a typo fails
#: at grid load with a did-you-mean instead of surfacing later (or, worse,
#: silently materializing a new nested mapping).
_COMPONENT_FIELDS: dict[str, frozenset[str]] = {
    "workload": frozenset({"kind", "params"}),
    "autoscaler": frozenset({"kind", "params"}),
    "engine": frozenset({"kind", "params", "seed_offset"}),
}


def _suggestion(word: str, options: Iterable[str]) -> str:
    close = get_close_matches(word, list(options), n=1)
    return f" — did you mean {close[0]!r}?" if close else ""


def validate_override_path(path: str, *, owner: str = "axis") -> None:
    """Check a dotted override path against the spec schema.

    Raises ValueError (with a did-you-mean suggestion when one is close)
    for unknown spec fields, descent into scalar fields, and misspelled
    component subfields.  Paths below ``params`` are factory-specific and
    pass through untouched.
    """
    keys = path.split(".")
    if not all(keys):
        raise ValueError(f"malformed {owner} override path {path!r}")
    root = keys[0]
    if root not in SPEC_FIELDS:
        raise ValueError(
            f"{owner} override path {path!r}: unknown spec field {root!r} "
            f"(known: {', '.join(sorted(SPEC_FIELDS))})"
            f"{_suggestion(root, SPEC_FIELDS)}"
        )
    if len(keys) == 1:
        return
    subfields = _COMPONENT_FIELDS.get(root)
    if subfields is None:
        raise ValueError(
            f"{owner} override path {path!r} descends into {root!r}, "
            f"which takes a whole value (only "
            f"{', '.join(sorted(_COMPONENT_FIELDS))} have subfields)"
        )
    if keys[1] not in subfields:
        raise ValueError(
            f"{owner} override path {path!r}: {root!r} has no field "
            f"{keys[1]!r} (known: {', '.join(sorted(subfields))})"
            f"{_suggestion(keys[1], subfields)}"
        )
    if keys[1] != "params" and len(keys) > 2:
        raise ValueError(
            f"{owner} override path {path!r} descends into scalar field "
            f"{root}.{keys[1]}"
        )


def set_path(data: dict[str, Any], path: str, value: Any) -> None:
    """Assign ``value`` at a dotted ``path`` inside a nested dict.

    Intermediate mappings are created on demand; assigning *through* a
    non-mapping (e.g. ``"workload.params.rps"`` when ``workload`` is a bare
    rate) is an error rather than a silent overwrite.
    """
    keys = path.split(".")
    if not all(keys):
        raise ValueError(f"malformed override path {path!r}")
    node = data
    for key in keys[:-1]:
        child = node.setdefault(key, {})
        if not isinstance(child, dict):
            raise ValueError(
                f"override path {path!r} descends through non-mapping "
                f"field {key!r} ({child!r})"
            )
        node = child
    node[keys[-1]] = deepcopy(value)


def _scalar_label(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a name plus the values it takes.

    With ``path`` set, ``values`` are scalars assigned at that dotted path.
    Without it, every value is an override mapping ``{dotted.path: value}``
    (plus an optional ``"label"``) — the zipped form, where one axis step
    moves several spec fields together.
    """

    name: str
    values: tuple[Any, ...]
    path: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("axis name must be a non-empty string")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        if self.path is not None:
            validate_override_path(self.path, owner=f"axis {self.name!r}")
        else:
            for value in self.values:
                if not isinstance(value, Mapping):
                    raise ValueError(
                        f"axis {self.name!r} has no path, so every value "
                        f"must be an override mapping: {value!r}"
                    )
                for key in value:
                    if key != LABEL_KEY:
                        validate_override_path(
                            key, owner=f"axis {self.name!r}"
                        )

    def label(self, index: int) -> str:
        """The human-readable coordinate of value ``index`` on this axis."""
        value = self.values[index]
        if self.path is not None:
            return _scalar_label(value)
        label = value.get(LABEL_KEY)
        return str(label) if label is not None else str(index)

    def overrides(self, index: int) -> dict[str, Any]:
        """The ``{dotted.path: value}`` overrides of value ``index``."""
        value = self.values[index]
        if self.path is not None:
            return {self.path: value}
        return {k: v for k, v in value.items() if k != LABEL_KEY}

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"name": self.name, "values": list(self.values)}
        if self.path is not None:
            d["path"] = self.path
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepAxis":
        known = {"name", "values", "path"}
        extra = set(data) - known
        if extra:
            hints = "".join(
                _suggestion(word, known) for word in sorted(extra)
            )
            raise ValueError(
                f"unknown SweepAxis fields: {sorted(extra)}{hints}"
            )
        for required in ("name", "values"):
            if required not in data:
                raise ValueError(f"SweepAxis needs {required!r}")
        return cls(
            name=data["name"],
            values=tuple(data["values"]),
            path=data.get("path"),
        )


@dataclass(frozen=True)
class SweepCell:
    """One expanded grid point: its index, axis coordinates, and spec."""

    index: int
    coords: dict[str, str]  # axis name -> value label, in axis order
    spec: ExperimentSpec

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass(frozen=True)
class SweepGrid:
    """A named cartesian product of axes over a base experiment spec."""

    name: str
    base: ExperimentSpec
    axes: tuple[SweepAxis, ...] = ()
    title: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("grid name must be a non-empty string")
        if not isinstance(self.base, ExperimentSpec):
            object.__setattr__(
                self, "base", ExperimentSpec.from_dict(self.base)
            )
        object.__setattr__(
            self,
            "axes",
            tuple(
                a if isinstance(a, SweepAxis) else SweepAxis.from_dict(a)
                for a in self.axes
            ),
        )
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names: {names}")

    # -- expansion ---------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        n = 1
        for axis in self.axes:
            n *= len(axis.values)
        return n

    def cells(self) -> list[SweepCell]:
        """Expand the full cartesian product, last axis varying fastest."""
        cells: list[SweepCell] = []
        index_ranges = [range(len(a.values)) for a in self.axes]
        for cell_index, combo in enumerate(itertools.product(*index_ranges)):
            data = self.base.to_dict()
            coords: dict[str, str] = {}
            for axis, value_index in zip(self.axes, combo):
                coords[axis.name] = axis.label(value_index)
                for path, value in axis.overrides(value_index).items():
                    set_path(data, path, value)
            if not data.get("name"):
                tag = ",".join(f"{k}={v}" for k, v in coords.items())
                data["name"] = f"{self.name}[{tag}]" if tag else self.name
            cells.append(
                SweepCell(
                    index=cell_index,
                    coords=coords,
                    spec=ExperimentSpec.from_dict(data),
                )
            )
        return cells

    def specs(self) -> list[ExperimentSpec]:
        return [cell.spec for cell in self.cells()]

    def validate(self) -> "SweepGrid":
        """Expand every cell and resolve its registry keys."""
        for cell in self.cells():
            cell.spec.validate()
        return self

    def __iter__(self) -> Iterator[SweepCell]:
        return iter(self.cells())

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "name": self.name,
            "base": self.base.to_dict(),
            "axes": [a.to_dict() for a in self.axes],
        }
        if self.title:
            d["title"] = self.title
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepGrid":
        known = {"name", "base", "axes", "title"}
        extra = set(data) - known
        if extra:
            hints = "".join(
                _suggestion(word, known) for word in sorted(extra)
            )
            raise ValueError(
                f"unknown SweepGrid fields: {sorted(extra)}{hints}"
            )
        for required in ("name", "base"):
            if required not in data:
                raise ValueError(f"SweepGrid needs {required!r}")
        return cls(
            name=data["name"],
            base=ExperimentSpec.from_dict(data["base"]),
            axes=tuple(
                SweepAxis.from_dict(a) for a in data.get("axes", ())
            ),
            title=str(data.get("title", "")),
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepGrid":
        return cls.from_dict(loads_finite(text))

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def read(cls, path: str | Path) -> "SweepGrid":
        return cls.from_json(Path(path).read_text())
