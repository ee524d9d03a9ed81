"""Benchmark support: the fixed-width tables every driver prints, and the
program names the traced benchmark run wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.sweeps import format_table


class TestFormatting:
    def test_table_alignment(self):
        out = format_table(
            ["name", "value"], [["a", 1.5], ["longer", 22.123456]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "longer" in lines[4]

    def test_table_row_width_check(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])


def _perfbench_wrap_targets() -> list[tuple[str, str, str | None, str]]:
    """Every ``(layer, module, owner, attribute)`` perfbench's tracer wraps,
    read from ``perfbench/tracing.py`` by path (it is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [
        (layer, module, owner, attr)
        for layer, targets, _ in tracing.WRAPS
        for module, owner, attr in targets
    ]


class TestPerfbenchWrapTargets:
    """The traced benchmark run patches these names; one that no longer
    resolves (a "dead" import dropped, a method moved to a base class)
    breaks every traced run."""

    @pytest.mark.parametrize(
        "layer, module_name, owner_name, attr",
        _perfbench_wrap_targets(),
        ids=lambda v: str(v),
    )
    def test_target_resolves(self, layer, module_name, owner_name, attr):
        # Resolved as SpanRecorder.install resolves it, without patching.
        module = importlib.import_module(module_name)
        if owner_name is None:
            assert callable(getattr(module, attr, None)), (
                f"{layer}: {module_name}.{attr} is gone"
            )
        else:
            owner = getattr(module, owner_name)
            assert attr in owner.__dict__, (
                f"{layer}: {attr} is not defined on {module_name}.{owner_name}"
            )
