"""Tests for the sliding aggregators behind Cache-Strategy-A."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import base
from repro.algebra.aggregate import apply_aggregate
from repro.errors import ExecutionError
from repro.execution import (
    CumulativeAggregator,
    ExecutionCounters,
    MonotonicAggregator,
    RunningSumAggregator,
    SlidingAggregator,
    execute_plan,
    make_sliding,
)
from repro.execution.guard import QueryGuard
from repro.model import AtomType, BaseSequence, RecordSchema, Span
from repro.optimizer import optimize


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

    @pytest.mark.parametrize("func", ("sum", "avg", "count", "min", "max"))
    def test_extend_is_one_add_each(self, func):
        # nan and -0.0 make the fold order observable.
        values = [0.1, -0.0, 0.2, float("nan"), 0.3, 1e16, -1e16, 0.0, 7.5]
        for cut in range(len(values) + 1):
            one_by_one = CumulativeAggregator(func)
            for value in values:
                one_by_one.add(value)
            chunked = CumulativeAggregator(func)
            chunked.extend(values[:cut])
            chunked.extend(values[cut:])
            assert chunked.count == one_by_one.count
            assert repr(chunked.result()) == repr(one_by_one.result())

    def test_fold(self):
        assert CumulativeAggregator.fold("sum", [[1, 2], [], [3]], False) == 6
        assert repr(CumulativeAggregator.fold("sum", [[1, 2], [3]], True)) == "6.0"
        assert CumulativeAggregator.fold("max", iter([(1,), (5,), (2,)]), False) == 5
        assert CumulativeAggregator.fold("count", [[], []], False) is None


class TestSlide:
    def test_evicts_absorbs_emits_and_charges(self):
        counters = ExecutionCounters()
        items = iter([(0, 1), (1, 2), (3, 4), (4, 8)])
        guard = QueryGuard(check_stride=3)
        emitted = []
        checkpoints = []
        guard.checkpoint = lambda: checkpoints.append(len(emitted))
        for item in make_sliding("sum").slide(2, items, range(0, 8), counters, guard):
            emitted.append(item)
        assert emitted == [(0, 1), (1, 3), (2, 2), (3, 4), (4, 12), (5, 8)]
        # A checkpoint after every third position (positions 2 and 5 were
        # emitted by then), and one when the drained loop runs past its end.
        assert checkpoints == [3, 6, 6]
        # four insertions, four evictions; never more than the scope.
        assert counters.cache_ops == 8
        assert counters.max_cache_occupancy == 2

    def test_resumes_from_a_seeded_cache(self):
        # The batch scalar path: the carry is entered uncharged, then
        # the tile's own records slide through and are charged.
        counters = ExecutionCounters()
        aggregator = make_sliding("max")
        aggregator.add(3, 9)
        aggregator.add(4, 1)
        out = list(aggregator.slide(2, iter([(6, 5)]), range(5, 8), counters))
        assert out == [(5, 1), (6, 5), (7, 5)]
        assert counters.cache_ops == 3  # two evictions, one insertion


#: Values whose sums cancel or round: the order of the additions shows.
_CANCELLING = st.one_of(
    st.sampled_from([1e16, -1e16, 1.0, -0.0, 0.0, 0.1, -2.5]),
    # ints past 2**53 in a FLOAT column: exact as ints, rounded once mixed
    st.integers(min_value=2**53, max_value=2**55),
    st.integers(min_value=-(2**55), max_value=-(2**53)),
)


def _bits(pairs):
    return [(position, type(value), repr(value)) for position, value in pairs]


@settings(max_examples=150, deadline=None)
@given(
    cells=st.dictionaries(st.integers(min_value=0, max_value=90), _CANCELLING, max_size=50),
    width=st.sampled_from([1, 2, 16, 64]),
    func=st.sampled_from(["sum", "avg", "count"]),
)
def test_fused_running_sum_is_the_recomputed_window(cells, width, func):
    """The fused loop over the values deque, the generic loop over the
    aggregator's methods, ``sum()`` of each recomputed window and the
    naive evaluator agree bit for bit; the two loops charge alike."""
    items = sorted(cells.items())
    positions = range(0, 100)
    fused_counters, generic_counters = ExecutionCounters(), ExecutionCounters()
    fused = list(make_sliding(func).slide(width, iter(items), positions, fused_counters))
    generic = list(
        SlidingAggregator.slide(
            make_sliding(func), width, iter(items), positions, generic_counters
        )
    )
    recomputed = []
    for position in positions:
        window = [value for at, value in items if position - width < at <= position]
        if window:
            recomputed.append((position, apply_aggregate(func, window)))
    assert _bits(fused) == _bits(generic) == _bits(recomputed)
    assert fused_counters.as_dict() == generic_counters.as_dict()
    assert fused_counters.max_cache_occupancy <= width

    schema = RecordSchema.of(v=AtomType.FLOAT)
    sequence = BaseSequence.from_values(schema, [(p, (v,)) for p, v in items], Span(0, 99))
    query = base(sequence, "s").window(func, "v", width, "w").query()
    window = Span(0, 99)
    naive = [(p, r.values[0]) for p, r in query.run_naive(window).iter_nonnull()]
    row = execute_plan(optimize(query).plan.plan, window, ExecutionCounters(), mode="row")
    cast = int if func == "count" else float
    assert _bits(naive) == _bits((p, cast(v)) for p, v in fused)
    assert _bits((p, r.values[0]) for p, r in row.iter_nonnull()) == _bits(naive)


class TestFactory:
    def test_routing(self):
        assert isinstance(make_sliding("sum"), RunningSumAggregator)
        assert isinstance(make_sliding("avg"), RunningSumAggregator)
        assert isinstance(make_sliding("count"), RunningSumAggregator)
        assert isinstance(make_sliding("min"), MonotonicAggregator)
        assert isinstance(make_sliding("max"), MonotonicAggregator)
