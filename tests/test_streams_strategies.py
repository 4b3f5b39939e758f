"""Direct tests of stream-mode strategies, including the forced-naive
variants the optimizer normally avoids."""

from dataclasses import replace

from bisect import bisect_right

import pytest

from repro.errors import SchemaError
from repro.model import AtomType, BaseSequence, RecordSchema, Span
from repro.algebra import base, col
from repro.execution import (
    CumulativeAggregator,
    ExecutionCounters,
    RunningSumAggregator,
    build_stream,
    execute_plan,
)
from repro.optimizer import optimize
from repro.workloads import bernoulli_sequence

SCHEMA = RecordSchema.of(value=AtomType.FLOAT)


@pytest.fixture
def data():
    return bernoulli_sequence(Span(0, 199), 0.6, seed=33)


class TestForcedNaiveStreams:
    """The 'naive' strategy of each unary stream must match the oracle."""

    def test_window_agg_naive_stream(self, data):
        query = base(data, "s").window("avg", "value", 5).query()
        result = optimize(query)
        planned = result.planned
        plan = planned.stream_plan
        assert plan.kind == "window-agg"
        naive = replace(
            plan, strategy="naive", cache_size=None,
            children=(planned.probe_plan.children[0],),
        )
        output = execute_plan(naive, result.plan.output_span, ExecutionCounters())
        assert output.to_pairs() == query.run_naive(result.plan.output_span).to_pairs()

    def test_value_offset_naive_stream(self, data):
        query = base(data, "s").value_offset(-2).query()
        result = optimize(query)
        planned = result.planned
        plan = planned.stream_plan
        assert plan.kind == "value-offset"
        naive = replace(
            plan, strategy="naive", cache_size=None,
            children=(planned.probe_plan.children[0],),
        )
        output = execute_plan(naive, result.plan.output_span, ExecutionCounters())
        assert output.to_pairs() == query.run_naive(result.plan.output_span).to_pairs()

    def test_cumulative_naive_stream(self, data):
        query = base(data, "s").cumulative("sum", "value").query()
        result = optimize(query)
        planned = result.planned
        plan = planned.stream_plan
        assert plan.kind == "cumulative-agg"
        naive = replace(
            plan, strategy="naive",
            children=(planned.probe_plan.children[0],),
        )
        output = execute_plan(naive, result.plan.output_span, ExecutionCounters())
        assert output.to_pairs() == query.run_naive(result.plan.output_span).to_pairs()

    def test_naive_costs_more_probes(self, data):
        query = base(data, "s").window("sum", "value", 8).query()
        result = optimize(query)
        planned = result.planned
        cached_counters = ExecutionCounters()
        execute_plan(planned.stream_plan, result.plan.output_span, cached_counters)
        naive = replace(
            planned.stream_plan, strategy="naive", cache_size=None,
            children=(planned.probe_plan.children[0],),
        )
        naive_counters = ExecutionCounters()
        execute_plan(naive, result.plan.output_span, naive_counters)
        assert naive_counters.probes_issued > 8 * cached_counters.probes_issued + 100


class TestStreamWindows:
    def test_lockstep_emits_only_in_window(self, data):
        other = bernoulli_sequence(
            Span(0, 199), 0.6, seed=34, schema=RecordSchema.of(w=AtomType.FLOAT)
        )
        query = base(data, "s").compose(base(other, "o")).query()
        plan = optimize(query).plan.plan
        counters = ExecutionCounters()
        narrow = list(build_stream(plan, Span(50, 60), counters))
        assert all(50 <= position <= 60 for position, _ in narrow)
        full = list(build_stream(plan, Span(0, 199), ExecutionCounters()))
        assert narrow == [(p, r) for p, r in full if 50 <= p <= 60]

    def test_chain_shift_window_math(self, data):
        query = base(data, "s").shift(-7).query()  # out(i) = in(i - 7)
        plan = optimize(query).plan.plan
        out = list(build_stream(plan, Span(10, 20), ExecutionCounters()))
        expected = [
            (p + 7, r) for p, r in data.iter_nonnull(Span(3, 13))
        ]
        assert out == expected

    def test_forward_value_offset_lookahead_bounded(self, data):
        query = base(data, "s").value_offset(3).query()
        result = optimize(query)
        plan = result.plan.plan
        counters = ExecutionCounters()
        output = list(build_stream(plan, result.plan.output_span, counters))
        assert counters.max_cache_occupancy <= 3
        oracle = query.run_naive(result.plan.output_span)
        assert output == oracle.to_pairs()

    def test_empty_window(self, data):
        query = base(data, "s").query()
        plan = optimize(query).plan.plan
        assert list(build_stream(plan, Span.EMPTY, ExecutionCounters())) == []

    def test_global_agg_empty_input(self):
        empty = BaseSequence.empty(SCHEMA, span=Span(0, 10))
        query = base(empty, "e").global_agg("max", "value").query()
        output = query.run(span=Span(0, 10))
        assert len(output) == 0


class TestRowHotPaths:
    """What the row executor's per-record loops still check and count."""

    @pytest.fixture
    def ints(self):
        schema = RecordSchema.of(n=AtomType.INT)
        return BaseSequence.from_values(schema, [(p, (p,)) for p in range(40)])

    def test_window_agg_type_checks_each_value(self, ints, monkeypatch):
        plan = optimize(base(ints, "s").window("sum", "n", 3).query()).plan.plan
        assert (plan.kind, plan.strategy) == ("window-agg", "cache-a")
        monkeypatch.setattr(
            RunningSumAggregator, "slide", lambda self, *args: iter([(0, 1.5)])
        )
        with pytest.raises(SchemaError, match="not a valid INT value"):
            execute_plan(plan, mode="row")

    def test_cumulative_type_checks_each_value(self, ints, monkeypatch):
        plan = optimize(base(ints, "s").cumulative("sum", "n").query()).plan.plan
        assert (plan.kind, plan.strategy) == ("cumulative-agg", "running")
        monkeypatch.setattr(CumulativeAggregator, "result", lambda self: "7")
        with pytest.raises(SchemaError, match="not a valid INT value"):
            execute_plan(plan, mode="row")

    def test_lockstep_counters_when_the_predicate_rejects_half(self, data):
        other = bernoulli_sequence(
            Span(0, 179), 0.6, seed=34, schema=RecordSchema.of(w=AtomType.FLOAT)
        )
        query = base(data, "s").compose(base(other, "o"), col("value") > col("w")).query()
        plan = optimize(query).plan.plan
        assert plan.kind == "lockstep"
        assert [child.kind for child in plan.children] == ["scan", "scan"]
        window = Span(20, 160)
        counters = ExecutionCounters()
        output = execute_plan(plan, window, counters, mode="row")

        left = dict(data.iter_nonnull())
        right = dict(other.iter_nonnull())
        paired = [p for p in sorted(left.keys() & right.keys()) if p in window]
        kept = [p for p in paired if left[p].get("value") > right[p].get("w")]
        assert 0.3 < len(kept) / len(paired) < 0.7
        assert [p for p, _record in output.iter_nonnull()] == kept
        assert counters.predicate_evals == len(paired)
        # The merge stops when the shorter input ends: it has read all of
        # that one and, of the other, up to the first position beyond.
        last = max(right)
        streamed = len(right) + bisect_right(sorted(left), last) + 1
        assert counters.operator_records == streamed + len(kept)
