"""End-to-end engine tests: optimized plans equal the naive oracle."""

import pytest

from repro.errors import ExecutionError
from repro.model import AtomType, RecordSchema, Span
from repro.algebra import Seq, base, col
from repro.execution import ExecutionCounters, run_query, run_query_detailed
from repro.workloads import bernoulli_sequence


def assert_agrees(query, span=None, catalog=None, **kwargs):
    expected = query.run_naive(span)
    result = run_query_detailed(query, span=span, catalog=catalog, **kwargs)
    assert expected.to_pairs() == result.output.to_pairs()
    return result


class TestSimpleQueries:
    def test_scan_only(self, small_prices):
        assert_agrees(base(small_prices, "p").query())

    def test_select(self, small_prices):
        assert_agrees(base(small_prices, "p").select(col("close") > 45.0).query())

    def test_project(self, dense_walk):
        assert_agrees(base(dense_walk, "w").project("close", "volume").query())

    def test_shift_both_ways(self, small_prices):
        assert_agrees(base(small_prices, "p").shift(2).query())
        assert_agrees(base(small_prices, "p").shift(-2).query())

    def test_chained_unit_ops(self, dense_walk):
        query = (
            base(dense_walk, "w")
            .select(col("close") > 0.0)
            .project("close")
            .shift(1)
            .select(col("close") > 50.0)
            .query()
        )
        assert_agrees(query)


class TestAggregates:
    @pytest.mark.parametrize("func", ["sum", "avg", "min", "max", "count"])
    def test_window(self, sparse_walk, func):
        assert_agrees(base(sparse_walk, "s").window(func, "close", 7).query())

    @pytest.mark.parametrize("func", ["sum", "avg", "min", "max", "count"])
    def test_cumulative(self, sparse_walk, func):
        assert_agrees(base(sparse_walk, "s").cumulative(func, "close").query())

    @pytest.mark.parametrize("func", ["sum", "avg", "min", "max", "count"])
    def test_global(self, sparse_walk, func):
        assert_agrees(base(sparse_walk, "s").global_agg(func, "close").query())

    def test_window_width_one(self, sparse_walk):
        assert_agrees(base(sparse_walk, "s").window("sum", "close", 1).query())

    def test_window_wider_than_span(self, small_prices):
        assert_agrees(base(small_prices, "p").window("sum", "close", 50).query())

    def test_aggregate_over_select(self, sparse_walk):
        query = (
            base(sparse_walk, "s")
            .select(col("close") > 50.0)
            .window("avg", "close", 5)
            .query()
        )
        assert_agrees(query)

    def test_stacked_aggregates(self, sparse_walk):
        query = (
            base(sparse_walk, "s")
            .window("avg", "close", 5)
            .window("max", "avg_close", 3)
            .query()
        )
        assert_agrees(query)


class TestValueOffsets:
    def test_previous_next(self, sparse_walk):
        assert_agrees(base(sparse_walk, "s").previous().query(), span=Span(0, 220))
        assert_agrees(base(sparse_walk, "s").next().query(), span=Span(-10, 199))

    @pytest.mark.parametrize("offset", [-3, -1, 1, 2])
    def test_reaches(self, sparse_walk, offset):
        assert_agrees(
            base(sparse_walk, "s").value_offset(offset).query(), span=Span(0, 199)
        )

    def test_previous_of_selection(self, sparse_walk):
        query = base(sparse_walk, "s").select(col("close") > 60.0).previous().query()
        assert_agrees(query, span=Span(0, 199))


class TestComposes:
    def test_two_way(self, table1):
        catalog, sequences = table1
        query = (
            base(sequences["ibm"], "ibm")
            .compose(base(sequences["dec"], "dec"), prefixes=("ibm", "dec"))
            .query()
        )
        assert_agrees(query, catalog=catalog)

    def test_with_predicate(self, table1):
        catalog, sequences = table1
        query = (
            base(sequences["ibm"], "ibm")
            .compose(
                base(sequences["hp"], "hp"),
                predicate=col("ibm_close") > col("hp_close"),
                prefixes=("ibm", "hp"),
            )
            .query()
        )
        assert_agrees(query, catalog=catalog)

    def test_three_way_figure3(self, table1):
        catalog, sequences = table1
        ibm_hp = (
            base(sequences["ibm"], "ibm")
            .compose(base(sequences["hp"], "hp"), prefixes=("ibm", "hp"))
            .select(col("ibm_close") > col("hp_close"))
        )
        query = (
            base(sequences["dec"], "dec")
            .compose(ibm_hp, prefixes=("dec", None))
            .query()
        )
        result = assert_agrees(query, catalog=catalog)
        assert result.optimization.plan.output_span == Span(200, 350)

    def test_compose_of_aggregates(self, table1):
        catalog, sequences = table1
        fast = base(sequences["hp"], "hp").window("avg", "close", 5, "fast")
        slow = base(sequences["hp"], "hp").window("avg", "close", 20, "slow")
        query = (
            fast.compose(slow, predicate=col("fast") > col("slow"))
            .project("fast")
            .query()
        )
        assert_agrees(query, catalog=catalog)

    def test_compose_then_aggregate(self, table1):
        catalog, sequences = table1
        query = (
            base(sequences["ibm"], "ibm")
            .compose(base(sequences["hp"], "hp"), prefixes=("ibm", "hp"))
            .select(col("ibm_close") > col("hp_close"))
            .window("count", "ibm_close", 10)
            .query()
        )
        assert_agrees(query, catalog=catalog)


class TestEngineDetails:
    def test_rewrite_toggle_same_answer(self, table1):
        catalog, sequences = table1
        query = (
            base(sequences["ibm"], "ibm")
            .compose(base(sequences["hp"], "hp"), prefixes=("ibm", "hp"))
            .select(col("ibm_close") > 100.0)
            .query()
        )
        with_rw = run_query(query, catalog=catalog, rewrite=True)
        without_rw = run_query(query, catalog=catalog, rewrite=False)
        assert with_rw.to_pairs() == without_rw.to_pairs()

    def test_span_restriction_toggle_same_answer_less_work(self, table1):
        catalog, sequences = table1
        ibm_hp = (
            base(sequences["ibm"], "ibm")
            .compose(base(sequences["hp"], "hp"), prefixes=("ibm", "hp"))
            .select(col("ibm_close") > col("hp_close"))
        )
        query = (
            base(sequences["dec"], "dec")
            .compose(ibm_hp, prefixes=("dec", None))
            .query()
        )
        on = run_query_detailed(query, catalog=catalog, restrict_spans=True)
        off = run_query_detailed(query, catalog=catalog, restrict_spans=False)
        assert on.output.to_pairs() == off.output.to_pairs()
        assert on.counters.operator_records < off.counters.operator_records
        assert on.optimization.plan.estimated_cost < off.optimization.plan.estimated_cost

    def test_counters_populated(self, table1):
        catalog, sequences = table1
        query = base(sequences["ibm"], "ibm").window("sum", "close", 5).query()
        result = run_query_detailed(query, catalog=catalog)
        assert result.counters.records_emitted == len(result.output)
        assert result.counters.scans_opened >= 1

    def test_execute_plan_unbounded_window_clipped_by_plan(self, small_prices):
        from repro.execution import execute_plan
        from repro.optimizer import optimize

        query = base(small_prices, "p").query()
        result = optimize(query)
        # an unbounded request is clipped to the plan's bounded span
        output = execute_plan(result.plan.plan, Span(0, None))
        assert output.span == Span(1, 10)

    def test_execute_plan_truly_unbounded_rejected(self, small_prices):
        from dataclasses import replace

        from repro.execution import execute_plan
        from repro.optimizer import optimize

        query = base(small_prices, "p").query()
        plan = optimize(query).plan.plan
        plan.span = Span(0, None)  # simulate a plan with no bound
        with pytest.raises(ExecutionError, match="unbounded"):
            execute_plan(plan, Span(0, None))

    def test_query_run_convenience(self, small_prices):
        query = base(small_prices, "p").select(col("close") > 45.0).query()
        assert query.run().to_pairs() == query.run_naive().to_pairs()

    def test_empty_result(self, small_prices):
        query = base(small_prices, "p").select(col("close") > 1e9).query()
        output = run_query(query)
        assert len(output) == 0

    def test_empty_intersection_compose(self, price_schema):
        a = bernoulli_sequence(Span(0, 10), 1.0, seed=1)
        b = bernoulli_sequence(Span(100, 110), 1.0, seed=2)
        query = base(a, "a").compose(base(b, "b"), prefixes=("a", "b")).query()
        output = run_query(query, span=Span(0, 110))
        assert len(output) == 0
