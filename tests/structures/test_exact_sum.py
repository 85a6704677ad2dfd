"""Tests for the exact running sum behind the sliding-AVG oracle's mean."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.exact_sum import ExactSum
from tests.conftest import outcome


_VALUES = st.one_of(
    st.sampled_from([1e16, 1.0, -1e16, 0.0, -0.0, 5e-324, 1e308, -1e308, 2.0**960]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3),
)


class TestExactSum:
    def test_empty_sum_is_zero(self):
        assert repr(ExactSum().fsum([])) == "0.0"

    def test_cancellation_is_exact(self):
        total = ExactSum()
        for x in (1e16, 1.0, -1e16):
            total.add(x)
        assert total.fsum([1e16, 1.0, -1e16]) == 1.0
        total.remove(1e16)
        assert total.fsum([1.0, -1e16]) == math.fsum([1.0, -1e16])

    def test_huge_members_defer_to_fsum(self):
        total = ExactSum()
        for x in (1e308, 1e308):
            total.add(x)
        with pytest.raises(OverflowError):
            total.fsum([1e308, 1e308])
        total.remove(1e308)
        total.remove(1e308)
        total.add(3.0)
        assert total.fsum(iter(())) == 3.0  # partials alone once they leave

    def test_non_finite_members_defer_to_fsum(self):
        total = ExactSum()
        total.add(float("inf"))
        total.add(1.0)
        assert total.fsum([float("inf"), 1.0]) == float("inf")
        total.remove(float("inf"))
        assert total.fsum(iter(())) == 1.0

    @given(
        ops=st.lists(st.tuples(st.booleans(), _VALUES), min_size=1, max_size=80),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fsum_of_the_multiset(self, ops):
        total = ExactSum()
        members: list[float] = []
        for insert, x in ops:
            if insert or not members:
                members.append(x)
                total.add(x)
            else:
                total.remove(members.pop(0))  # FIFO, like a sliding window
            assert outcome(total.fsum, iter(members)) == outcome(math.fsum, members)
