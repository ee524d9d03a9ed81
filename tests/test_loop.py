"""Control loop: execution semantics, hooks, summaries, history codec."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import StaticAllocator
from repro.core import ControlLoop, PEMAConfig, PEMAController
from repro.core.loop import LoopHistory, LoopRecord, LoopResult
from repro.metrics.export import (
    MalformedHistoryError,
    UnitResult,
    loop_record_to_dict,
    loop_result_from_dict,
    loop_result_to_csv,
    loop_result_to_dict,
)
from repro.sim import AnalyticalEngine, NoiseModel
from repro.sim.types import Allocation
from repro.sweeps.aggregate import _longest_violation_streak
from repro.workload import ConstantWorkload, StepWorkload


def make_loop(tiny_app, autoscaler=None, **kw):
    engine = AnalyticalEngine(tiny_app, seed=1, noise=NoiseModel.none())
    scaler = autoscaler or PEMAController(
        tiny_app.service_names,
        tiny_app.slo,
        tiny_app.generous_allocation(100.0),
        PEMAConfig(explore_a=0.0, explore_b=0.0),
        seed=0,
    )
    defaults = dict(interval=120.0)
    defaults.update(kw)
    return ControlLoop(engine, scaler, ConstantWorkload(100.0), **defaults)


class TestExecution:
    def test_run_produces_records(self, tiny_app):
        result = make_loop(tiny_app).run(10)
        assert len(result) == 10
        assert result.steps.tolist() == list(range(10))
        assert np.all(result.workloads == 100.0)
        assert np.all(result.responses > 0)

    def test_first_record_uses_initial_allocation(self, tiny_app):
        static = StaticAllocator(tiny_app.uniform_allocation(1.0))
        result = make_loop(tiny_app, autoscaler=static, slo=tiny_app.slo).run(3)
        assert result.records[0].total_cpu == pytest.approx(4.0)

    def test_interval_spacing(self, tiny_app):
        result = make_loop(tiny_app, interval=60.0).run(3)
        assert result.times.tolist() == [0.0, 60.0, 120.0]

    def test_workload_trace_followed(self, tiny_app):
        engine = AnalyticalEngine(tiny_app, seed=1)
        static = StaticAllocator(tiny_app.generous_allocation(200.0))
        trace = StepWorkload([(0.0, 50.0), (120.0, 150.0)])
        loop = ControlLoop(engine, static, trace, slo=tiny_app.slo)
        result = loop.run(3)
        assert result.workloads.tolist() == [50.0, 150.0, 150.0]

    def test_validation(self, tiny_app):
        with pytest.raises(ValueError):
            make_loop(tiny_app, interval=0.0)
        with pytest.raises(ValueError):
            make_loop(tiny_app).run(0)

    def test_slo_required_without_attribute(self, tiny_app):
        engine = AnalyticalEngine(tiny_app, seed=1)
        static = StaticAllocator(tiny_app.uniform_allocation(1.0))
        with pytest.raises(ValueError):
            ControlLoop(engine, static, ConstantWorkload(100.0))


class TestViolations:
    def test_violations_marked(self, tiny_app):
        # A starved allocation must violate the 100ms SLO.
        starved = tiny_app.uniform_allocation(0.05)
        static = StaticAllocator(starved)
        result = make_loop(tiny_app, autoscaler=static, slo=tiny_app.slo).run(5)
        assert result.violation_count() == 5
        assert result.violation_rate() == 1.0

    def test_dynamic_slo_tracked_live(self, tiny_app):
        loop = make_loop(tiny_app)

        def tighten(step, lp):
            if step == 2:
                lp.autoscaler.set_slo(0.001)  # impossible SLO

        result = loop.run(4, on_step=tighten)
        assert not result.records[0].violated
        assert result.records[2].violated
        assert result.records[2].slo == pytest.approx(0.001)

    def test_best_satisfying_total(self, tiny_app):
        result = make_loop(tiny_app).run(15)
        ok_totals = [r.total_cpu for r in result.records if not r.violated]
        assert result.best_satisfying_total() == pytest.approx(min(ok_totals))

    def test_settled_total_empty_raises(self):
        with pytest.raises(LookupError):
            LoopResult().final_allocation()


class TestIntegrationPieces:
    def test_hook_sees_loop(self, tiny_app):
        seen = []
        loop = make_loop(tiny_app)
        loop.run(3, on_step=lambda step, lp: seen.append((step, lp is loop)))
        assert seen == [(0, True), (1, True), (2, True)]


# -- columnar history: codec and summary properties ---------------------------
_values = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def histories(draw, min_size=0):
    """A ``loop_result_to_dict``-shaped payload of random intervals."""
    names = draw(
        st.lists(
            st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True
        )
    )
    n = draw(st.integers(min_value=min_size, max_value=25))
    records = []
    for step in range(n):
        records.append({
            "step": step,
            "time": draw(_values),
            "workload": draw(_values),
            "response": draw(_values),
            "total_cpu": draw(_values),
            "violated": draw(st.booleans()),
            "slo": draw(_values),
            "allocation": [[name, draw(_values)] for name in names],
        })
    return {"records": records}


def _reference_decode(data):
    """The per-record decoder the columnar codec replaced."""
    return [
        LoopRecord(
            step=int(rec["step"]),
            time=float(rec["time"]),
            workload=float(rec["workload"]),
            response=float(rec["response"]),
            total_cpu=float(rec["total_cpu"]),
            violated=bool(rec["violated"]),
            slo=float(rec["slo"]),
            allocation=Allocation(
                [(name, float(cpu)) for name, cpu in rec["allocation"]]
            ),
        )
        for rec in data["records"]
    ]


def _reference_streak(records):
    longest = current = 0
    for rec in records:
        current = current + 1 if rec.violated else 0
        longest = max(longest, current)
    return longest


def _dumps(payload):
    return json.dumps(payload, sort_keys=True)


class TestColumnarHistory:
    @settings(max_examples=60, deadline=None)
    @given(histories())
    def test_codec_round_trips_byte_identically(self, payload):
        result = loop_result_from_dict(payload)
        once = loop_result_to_dict(result)
        assert _dumps(once) == _dumps(payload)
        assert once == {
            "records": [loop_record_to_dict(rec) for rec in result.records]
        }
        twice = loop_result_to_dict(loop_result_from_dict(once))
        assert _dumps(twice) == _dumps(payload)

    @settings(max_examples=60, deadline=None)
    @given(histories())
    def test_lazy_records_equal_reference_decoder(self, payload):
        result = loop_result_from_dict(payload)
        assert list(result.records) == _reference_decode(payload)
        assert result.records is result.records  # built once

    @settings(max_examples=60, deadline=None)
    @given(histories(min_size=1), st.integers(min_value=1, max_value=8))
    def test_summaries_equal_record_fold(self, payload, tail):
        result = loop_result_from_dict(payload)
        records = _reference_decode(payload)
        assert result.violation_count() == sum(r.violated for r in records)
        assert result.violation_rate() == (
            sum(r.violated for r in records) / len(records)
        )
        assert result.final_allocation() == records[-1].allocation
        assert (
            result.final_allocation().total()
            == records[-1].allocation.total()
        )
        assert _longest_violation_streak(result.violated) == (
            _reference_streak(records)
        )
        totals = [r.total_cpu for r in records if not r.violated]
        if totals:
            assert result.best_satisfying_total() == min(totals)
            assert result.settled_total(tail) == float(np.mean(totals[-tail:]))
        else:
            with pytest.raises(LookupError):
                result.best_satisfying_total()
            with pytest.raises(LookupError):
                result.settled_total(tail)

    @settings(max_examples=40, deadline=None)
    @given(histories())
    def test_builder_matches_decoded_history(self, payload):
        history = LoopHistory()
        for rec in _reference_decode(payload):
            history.append(
                rec.step, rec.time, rec.workload, rec.response,
                rec.total_cpu, rec.violated, rec.slo, rec.allocation,
            )
        assert len(history) == len(payload["records"])
        assert history.build() == loop_result_from_dict(payload)

    def test_builder_rejects_mixed_services(self):
        history = LoopHistory()
        history.append(0, 0.0, 1.0, 0.1, 1.0, False, 0.2, Allocation({"a": 1.0}))
        history.append(1, 1.0, 1.0, 0.1, 1.0, False, 0.2, Allocation({"b": 1.0}))
        with pytest.raises(ValueError, match="same services"):
            history.build()

    def test_empty_history(self, tmp_path):
        for empty in (
            LoopResult(),
            LoopHistory().build(),
            loop_result_from_dict({"records": []}),
        ):
            assert len(empty) == 0 and empty.records == ()
            assert empty.violation_count() == 0
            assert empty.violation_rate() == 0.0
            assert loop_result_to_dict(empty) == {"records": []}
            with pytest.raises(LookupError, match="empty run"):
                empty.final_allocation()
            with pytest.raises(LookupError):
                empty.best_satisfying_total()
            with pytest.raises(LookupError):
                empty.settled_total()
            with pytest.raises(ValueError, match="empty run"):
                loop_result_to_csv(empty, tmp_path / "x.csv")

    def test_columns_are_read_only(self, tiny_app):
        result = make_loop(tiny_app).run(3)
        for column in (result.total_cpu, result.violated, result.allocations):
            with pytest.raises(ValueError):
                column[0] = column[0]

    @pytest.mark.parametrize("protocol", [4, 5])
    def test_columns_stay_read_only_when_unpickled(self, tiny_app, protocol):
        # Units cross the sweep's process pool as pickled LoopResults.
        result = make_loop(tiny_app).run(3)
        unpickled = pickle.loads(pickle.dumps(result, protocol=protocol))
        assert unpickled == result
        for column in (
            unpickled.total_cpu, unpickled.violated, unpickled.allocations
        ):
            with pytest.raises(ValueError):
                column[0] = column[0]

    def test_control_loop_history_round_trips(self, tiny_app):
        result = make_loop(tiny_app).run(6)
        assert result.allocations.shape == (6, len(tiny_app.service_names))
        assert result.service_names == tuple(tiny_app.service_names)
        assert loop_result_from_dict(loop_result_to_dict(result)) == result
        for rec, total in zip(result.records, result.total_cpu.tolist()):
            assert rec.allocation.total() == total


# -- the column codec (the sweep store's at-rest form) ------------------------
#: Values at the edges of what a history may hold: both zeros, the
#: smallest subnormal, a subnormal, the smallest normal and the huge.
_EDGE_VALUES = (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308)
_packed_values = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(
        min_value=0.0, max_value=1e308, allow_nan=False, allow_infinity=False
    ),
)


@st.composite
def loop_results(draw):
    """Random histories: T 0-50, S 1-20, any (non-ASCII) service names."""
    names = draw(
        st.lists(
            st.text(min_size=1, max_size=8), min_size=1, max_size=20,
            unique=True,
        )
    )
    n = draw(st.integers(min_value=0, max_value=50))

    def column():
        return draw(st.lists(_packed_values, min_size=n, max_size=n))

    return LoopResult(
        names,
        step=draw(
            st.lists(
                st.integers(min_value=0, max_value=2**63 - 1),
                min_size=n, max_size=n,
            )
        ),
        time=column(),
        workload=column(),
        response=column(),
        total_cpu=column(),
        violated=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        slo=column(),
        allocations=np.array(
            draw(
                st.lists(
                    _packed_values,
                    min_size=n * len(names), max_size=n * len(names),
                )
            ),
            dtype=np.float64,
        ).reshape(n, len(names)),
    )


def _through_json(payload):
    return json.loads(json.dumps(payload, sort_keys=True))


def _through_columns(result):
    """``result`` encoded as a unit entry (payload through JSON, the
    columns as one buffer, as the store writes them) and decoded."""
    payload, columns = UnitResult(result).to_columns()
    return UnitResult.from_columns(
        _through_json(payload), b"".join(columns)
    ).result


class TestPackedHistory:
    @settings(max_examples=80, deadline=None)
    @given(loop_results())
    def test_round_trips_to_identical_records(self, result):
        decoded = _through_columns(result)
        assert _dumps(loop_result_to_dict(decoded)) == _dumps(
            loop_result_to_dict(result)
        )
        assert decoded == result
        assert decoded.service_names == result.service_names
        # Bit-exact, signed zeros and subnormals included.
        assert decoded.allocations.tobytes() == result.allocations.tobytes()
        assert decoded.responses.tobytes() == result.responses.tobytes()

    def test_edge_values_and_non_ascii_names(self):
        names = ("größe", "α→β", "服务")
        values = np.array(_EDGE_VALUES[:3] * 2 + _EDGE_VALUES[3:] * 2)
        result = LoopResult(
            names,
            step=[0, 1, 2, 3],
            time=values[:4],
            workload=values[4:8],
            response=values[8:],
            total_cpu=values[:4],
            violated=[True, False, True, False],
            slo=values[4:8],
            allocations=values.reshape(4, 3),
        )
        payload, _ = UnitResult(result).to_columns()
        assert _through_json(payload)["history"]["names"] == list(names)
        decoded = _through_columns(result)
        assert _dumps(loop_result_to_dict(decoded)) == _dumps(
            loop_result_to_dict(result)
        )
        assert np.signbit(decoded.workloads).tolist() == np.signbit(
            values[4:8]
        ).tolist()

    def test_layout_is_little_endian_columns(self):
        result = LoopResult(
            ("a", "b"),
            step=[3, 4],
            time=[1.0, 2.0],
            workload=[10.0, 20.0],
            response=[0.1, 0.2],
            total_cpu=[3.0, 7.0],
            violated=[False, True],
            slo=[0.5, 0.5],
            allocations=[[1.0, 2.0], [3.0, 4.0]],
        )
        payload, columns = UnitResult(result).to_columns()
        assert payload == {
            "channels": {}, "history": {"n": 2, "names": ["a", "b"]}
        }
        values, step, violated = (column.tobytes() for column in columns)
        assert step == np.array([3, 4], "<i8").tobytes()
        assert violated == bytes([0, 1])
        assert values == np.array(
            [1.0, 2.0, 10.0, 20.0, 0.1, 0.2, 3.0, 7.0, 0.5, 0.5,
             1.0, 2.0, 3.0, 4.0],
            "<f8",
        ).tobytes()

    def test_empty_history(self):
        for empty in (LoopResult(), LoopResult(("a", "b"))):
            decoded = _through_columns(empty)
            assert len(decoded) == 0
            assert loop_result_to_dict(decoded) == {"records": []}

    @pytest.mark.parametrize("data", [None, [], "x", {"n": 0}])
    def test_non_mapping_or_incomplete_raises(self, data):
        with pytest.raises(MalformedHistoryError):
            UnitResult.from_columns({"history": data}, b"")
