"""CSV export and app description utilities."""

import csv
from pathlib import Path

import pytest

from repro.apps import build_app, describe_app, describe_plan
from repro.baselines import StaticAllocator
from repro.core import ControlLoop
from repro.metrics import loop_result_to_csv
from repro.sim import AnalyticalEngine
from repro.workload import ConstantWorkload


class TestExport:
    def _run(self, tiny_app):
        engine = AnalyticalEngine(tiny_app, seed=1)
        static = StaticAllocator(tiny_app.generous_allocation(100.0))
        loop = ControlLoop(
            engine, static, ConstantWorkload(100.0), slo=tiny_app.slo
        )
        return loop.run(5)

    def test_loop_result_csv(self, tiny_app, tmp_path):
        result = self._run(tiny_app)
        path = tmp_path / "run.csv"
        rows = loop_result_to_csv(result, path)
        assert rows == 5
        with path.open() as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0][:3] == ["step", "time", "workload_rps"]
        assert len(parsed) == 6  # header + 5 records
        assert any(col.startswith("cpu[") for col in parsed[0])

    def test_loop_result_csv_empty(self, tmp_path):
        from repro.core.loop import LoopResult

        with pytest.raises(ValueError):
            loop_result_to_csv(LoopResult(), tmp_path / "x.csv")


class TestDescribe:
    def test_describe_app_mentions_everything(self):
        app = build_app("sockshop")
        text = describe_app(app)
        for svc in app.service_names:
            assert svc in text
        assert "SLO 250 ms" in text
        assert "[frontend]" in text and "[db]" in text

    def test_describe_plan(self):
        app = build_app("sockshop")
        text = describe_plan(app, "checkout")
        assert "stage" in text
        assert "orders" in text

    def test_describe_plan_unknown(self):
        app = build_app("sockshop")
        with pytest.raises(KeyError):
            describe_plan(app, "nope")

    def test_cli_describe(self, capsys):
        from repro.cli import main

        assert main(["describe", "--app", "trainticket",
                     "--plan", "search"]) == 0
        out = capsys.readouterr().out
        assert "seat" in out
        assert "trainticket/search" in out
