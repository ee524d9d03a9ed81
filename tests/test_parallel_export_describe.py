"""Parallel runner, CSV export, and app description utilities."""

import csv
from pathlib import Path

import numpy as np
import pytest

from repro.apps import build_app, describe_app, describe_plan
from repro.bench import parallel_pema_totals, run_parallel
from repro.baselines import StaticAllocator
from repro.core import ControlLoop
from repro.metrics import loop_result_to_csv
from repro.sim import AnalyticalEngine
from repro.workload import ConstantWorkload


def _square(x: float) -> float:
    return x * x


class TestRunParallel:
    def test_inline_mode(self):
        out = run_parallel(_square, [{"x": 2.0}, {"x": 3.0}], max_workers=1)
        assert out == [4.0, 9.0]

    def test_empty(self):
        assert run_parallel(_square, []) == []

    def test_process_mode_matches_inline(self):
        kwargs = [{"x": float(i)} for i in range(6)]
        inline = run_parallel(_square, kwargs, max_workers=1)
        parallel = run_parallel(_square, kwargs, max_workers=2)
        assert inline == parallel

    def test_validation(self):
        with pytest.raises(ValueError):
            run_parallel(_square, [{"x": 1.0}], max_workers=0)

    def test_parallel_pema_totals_deterministic(self):
        a = parallel_pema_totals(
            "sockshop", 700.0, n_steps=15, runs=2, max_workers=1
        )
        b = parallel_pema_totals(
            "sockshop", 700.0, n_steps=15, runs=2, max_workers=2
        )
        np.testing.assert_allclose(a, b)
        assert a.shape == (2,)

    def test_runs_validation(self):
        with pytest.raises(ValueError):
            parallel_pema_totals("sockshop", 700.0, runs=0)


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
