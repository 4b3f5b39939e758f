"""Tests for the sliding aggregators behind Cache-Strategy-A."""

import pytest

from repro.errors import ExecutionError
from repro.execution import (
    CumulativeAggregator,
    MonotonicAggregator,
    RunningSumAggregator,
    make_sliding,
)


class TestRunningSumAggregator:
    def test_sum(self):
        agg = RunningSumAggregator("sum")
        agg.add(1, 10)
        agg.add(2, 20)
        assert agg.result() == 30
        agg.evict_below(2)
        assert agg.result() == 20

    def test_avg(self):
        agg = RunningSumAggregator("avg")
        agg.add(1, 10)
        agg.add(2, 20)
        assert agg.result() == 15.0

    def test_count(self):
        agg = RunningSumAggregator("count")
        agg.add(1, "a")
        agg.add(2, "b")
        assert agg.result() == 2

    def test_empty_raises(self):
        with pytest.raises(ExecutionError):
            RunningSumAggregator("sum").result()

    def test_wrong_func(self):
        with pytest.raises(ExecutionError):
            RunningSumAggregator("min")

    def test_matches_fresh_sum_after_many_slides(self):
        # the recompute-from-cache design means no float drift
        import random

        rng = random.Random(5)
        values = [rng.uniform(0, 1) for _ in range(200)]
        agg = RunningSumAggregator("sum")
        for position, value in enumerate(values):
            agg.add(position, value)
            agg.evict_below(position - 9)
            window = values[max(0, position - 9) : position + 1]
            assert agg.result() == sum(window)


class TestMonotonicAggregator:
    def test_min(self):
        agg = MonotonicAggregator("min")
        for position, value in enumerate([5, 3, 8, 1, 9]):
            agg.add(position, value)
        assert agg.result() == 1
        agg.evict_below(4)
        assert agg.result() == 9

    def test_max_sliding(self):
        agg = MonotonicAggregator("max")
        values = [2, 9, 4, 7, 1, 8, 3]
        for position, value in enumerate(values):
            agg.add(position, value)
            agg.evict_below(position - 2)
            assert agg.result() == max(values[max(0, position - 2) : position + 1])

    def test_count_tracks_window(self):
        agg = MonotonicAggregator("max")
        agg.add(1, 5)
        agg.add(2, 3)
        assert agg.count == 2
        agg.evict_below(2)
        assert agg.count == 1

    def test_empty_raises(self):
        with pytest.raises(ExecutionError):
            MonotonicAggregator("min").result()

    def test_wrong_func(self):
        with pytest.raises(ExecutionError):
            MonotonicAggregator("sum")


class TestCumulativeAggregator:
    @pytest.mark.parametrize(
        "func,values,expected",
        [
            ("sum", [1, 2, 3], 6),
            ("avg", [1, 2, 3], 2.0),
            ("count", [1, 2, 3], 3),
            ("min", [3, 1, 2], 1),
            ("max", [3, 1, 2], 3),
        ],
    )
    def test_funcs(self, func, values, expected):
        agg = CumulativeAggregator(func)
        for value in values:
            agg.add(value)
        assert agg.result() == expected

    def test_empty_raises(self):
        with pytest.raises(ExecutionError):
            CumulativeAggregator("sum").result()


class TestFactory:
    def test_routing(self):
        assert isinstance(make_sliding("sum"), RunningSumAggregator)
        assert isinstance(make_sliding("avg"), RunningSumAggregator)
        assert isinstance(make_sliding("count"), RunningSumAggregator)
        assert isinstance(make_sliding("min"), MonotonicAggregator)
        assert isinstance(make_sliding("max"), MonotonicAggregator)
