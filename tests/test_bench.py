"""Benchmark report formatting: the fixed-width tables every driver prints."""

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
