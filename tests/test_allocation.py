"""Allocation value-type semantics."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.types import Allocation

NAMES = ("a", "b", "c")


def alloc(*values: float) -> Allocation:
    return Allocation(dict(zip(NAMES, values)))


class TestConstruction:
    def test_mapping_access(self):
        a = alloc(1.0, 2.0, 3.0)
        assert a["a"] == 1.0
        assert a["c"] == 3.0
        assert len(a) == 3
        assert list(a) == list(NAMES)

    def test_missing_key(self):
        with pytest.raises(KeyError):
            alloc(1, 2, 3)["nope"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Allocation({})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Allocation({"a": -0.5})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Allocation({"a": float("nan")})

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), -0.1, None, "0.5"]
    )
    @pytest.mark.parametrize("position", [0, 1])
    def test_invalid_value_names_first_bad_service(self, bad, position):
        values = [1.0, 2.0, 3.0]
        values[position] = bad
        values[2] = -1.0  # a later offender must not be the one named
        message = f"invalid CPU value for {NAMES[position]!r}: {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            alloc(*values)

    def test_from_array_roundtrip(self):
        a = Allocation.from_array(NAMES, np.array([0.5, 1.5, 2.5]))
        assert a.as_array().tolist() == [0.5, 1.5, 2.5]

    def test_from_array_length_mismatch(self):
        with pytest.raises(ValueError):
            Allocation.from_array(NAMES, np.array([1.0, 2.0]))


class TestIdentity:
    def test_equality_and_hash(self):
        assert alloc(1, 2, 3) == alloc(1, 2, 3)
        assert hash(alloc(1, 2, 3)) == hash(alloc(1, 2, 3))
        assert alloc(1, 2, 3) != alloc(1, 2, 4)

    def test_usable_in_sets(self):
        s = {alloc(1, 2, 3), alloc(1, 2, 3), alloc(9, 9, 9)}
        assert len(s) == 2

    def test_order_matters_for_names(self):
        a = Allocation({"a": 1.0, "b": 2.0})
        b = Allocation({"b": 2.0, "a": 1.0})
        assert a != b  # different service ordering is a different vector


class TestVectorOps:
    def test_total(self):
        assert alloc(1.0, 2.0, 3.5).total() == pytest.approx(6.5)

    def test_with_value(self):
        a = alloc(1, 2, 3).with_value("b", 9.0)
        assert a["b"] == 9.0
        assert a["a"] == 1.0

    def test_with_value_unknown(self):
        with pytest.raises(KeyError):
            alloc(1, 2, 3).with_value("zzz", 1.0)

    def test_reduce_fraction(self):
        a = alloc(1.0, 2.0, 3.0).reduce(["a", "c"], 0.5)
        assert a["a"] == pytest.approx(0.5)
        assert a["b"] == pytest.approx(2.0)
        assert a["c"] == pytest.approx(1.5)

    def test_reduce_floor(self):
        a = alloc(0.06, 1.0, 1.0).reduce(["a"], 0.9, floor=0.05)
        assert a["a"] == pytest.approx(0.05)

    def test_reduce_invalid_fraction(self):
        with pytest.raises(ValueError):
            alloc(1, 1, 1).reduce(["a"], 1.0)

    def test_reduce_unknown_service(self):
        with pytest.raises(KeyError):
            alloc(1, 1, 1).reduce(["zzz"], 0.1)

    def test_scale(self):
        a = alloc(1.0, 2.0, 3.0).scale(2.0)
        assert a.total() == pytest.approx(12.0)

    def test_scale_invalid(self):
        with pytest.raises(ValueError):
            alloc(1, 1, 1).scale(0.0)

    def test_clamp(self):
        a = alloc(0.01, 5.0, 1.0).clamp(lower=0.1, upper=2.0)
        assert a["a"] == pytest.approx(0.1)
        assert a["b"] == pytest.approx(2.0)
        assert a["c"] == pytest.approx(1.0)

    def test_as_array_with_order(self):
        a = alloc(1.0, 2.0, 3.0)
        assert a.as_array(["c", "a"]).tolist() == [3.0, 1.0]

    @pytest.mark.parametrize(
        "order", [None, "names", ("a", "b", "c"), ["a", "b", "c"]]
    )
    def test_as_array_own_order_is_a_writable_copy(self, order):
        a = alloc(1.0, 2.0, 3.0)
        out = a.as_array(a.names if order == "names" else order)
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, 2.0, 3.0]
        out[0] = 99.0  # a copy: the allocation stays immutable
        assert a["a"] == 1.0

    def test_as_array_permuted_order(self):
        a = alloc(1.0, 2.0, 3.0)
        assert a.as_array(("c", "a", "b")).tolist() == [3.0, 1.0, 2.0]

    def test_as_array_generator_order(self):
        a = alloc(1.0, 2.0, 3.0)
        assert a.as_array(n for n in ("b", "c")).tolist() == [2.0, 3.0]
        assert a.as_array(n for n in NAMES).tolist() == [1.0, 2.0, 3.0]

    def test_as_array_unknown_name(self):
        with pytest.raises(KeyError, match="zz"):
            alloc(1.0, 2.0, 3.0).as_array(("a", "zz"))


class TestMonotoneOrder:
    def test_monotone_le(self):
        assert alloc(1, 2, 3).monotone_le(alloc(1, 2, 3))
        assert alloc(0.5, 2, 3).monotone_le(alloc(1, 2, 3))
        assert not alloc(1.5, 2, 3).monotone_le(alloc(1, 2, 3))

    def test_monotone_le_mismatched_services(self):
        with pytest.raises(ValueError):
            alloc(1, 2, 3).monotone_le(Allocation({"x": 1.0}))

    @given(
        values=st.lists(
            st.floats(min_value=0.05, max_value=10.0), min_size=3, max_size=3
        ),
        frac=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_reduce_is_monotone(self, values, frac):
        a = alloc(*values)
        reduced = a.reduce(NAMES, frac)
        assert reduced.monotone_le(a)
        assert reduced.total() <= a.total() + 1e-12
