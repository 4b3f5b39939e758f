"""Tests for block-wise plan generation and Property 4.1."""

import math

import pytest

from repro.model import AtomType, Span
from repro.algebra import Seq, base, col
from repro.optimizer import optimize
from repro.workloads import bernoulli_sequence


def chain_compose(sequences, prefixes):
    """Left-deep compose of several sequences with prefixes."""
    built = base(sequences[0], prefixes[0])
    for sequence, prefix in zip(sequences[1:], prefixes[1:]):
        left_prefix = prefixes[0] if built.node.is_leaf else None
        built = built.compose(
            base(sequence, prefix), prefixes=(left_prefix, prefix)
        )
    return built.query()


def make_inputs(n, span=Span(0, 199), density=0.8):
    from repro.model import RecordSchema

    sequences = []
    for i in range(n):
        schema = RecordSchema.of(**{f"v{i}": AtomType.FLOAT})
        sequences.append(
            bernoulli_sequence(span, density, seed=i, schema=schema)
        )
    return sequences


class TestProperty41:
    """Property 4.1: time N*2^(N-1) join plans, space C(N, ceil(N/2))."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_plans_considered_exactly(self, n):
        sequences = make_inputs(n)
        query = chain_compose(sequences, [f"s{i}" for i in range(n)])
        result = optimize(query)
        expected = n * 2 ** (n - 1)
        assert result.plan.plans_considered == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_peak_plans_stored(self, n):
        sequences = make_inputs(n)
        query = chain_compose(sequences, [f"s{i}" for i in range(n)])
        result = optimize(query)
        expected = math.comb(n, math.ceil(n / 2))
        assert result.plan.peak_plans_stored == expected

    def test_counters_accumulate_across_blocks(self, dense_walk):
        query = (
            base(dense_walk, "w")
            .window("avg", "close", 5)
            .query()
        )
        result = optimize(query)
        assert result.plan.block_count == 2
        # only the single-input join block below the aggregate
        # enumerates join plans; the unary block itself does not
        assert result.plan.plans_considered == 1


class TestPlanShape:
    def test_output_matches_naive_any_order(self):
        sequences = make_inputs(4)
        query = chain_compose(sequences, [f"s{i}" for i in range(4)])
        expected = query.run_naive()
        got = query.run()
        assert expected.to_pairs() == got.to_pairs()

    def test_final_projection_restores_schema_order(self):
        sequences = make_inputs(3)
        query = chain_compose(sequences, ["a", "b", "c"])
        result = optimize(query)
        assert tuple(result.plan.plan.schema.names) == tuple(query.schema.names)

    def test_explain_mentions_strategies(self, table1):
        catalog, sequences = table1
        query = (
            base(sequences["ibm"], "ibm")
            .compose(base(sequences["hp"], "hp"), prefixes=("ibm", "hp"))
            .query()
        )
        result = optimize(query, catalog=catalog)
        text = result.explain()
        assert "lockstep" in text or "probe" in text
        assert "estimated cost" in text

    def test_span_restriction_reaches_plan(self, table1):
        catalog, sequences = table1
        query = (
            base(sequences["dec"], "dec")
            .compose(base(sequences["ibm"], "ibm"), prefixes=("dec", "ibm"))
            .query()
        )
        result = optimize(query, catalog=catalog)
        assert result.plan.output_span == Span(200, 350)
        for plan in result.plan.plan.walk():
            if plan.kind == "scan":
                assert plan.span == Span(200, 350)


class TestStrategySelection:
    """Physical organizations steer the chosen join strategy."""

    def _stored_pair(self, left_org, right_org, left_density=0.9, right_density=0.9):
        from repro.catalog import Catalog
        from repro.model import RecordSchema
        from repro.storage import StoredSequence

        schema_a = RecordSchema.of(a=AtomType.FLOAT)
        schema_b = RecordSchema.of(b=AtomType.FLOAT)
        a = bernoulli_sequence(Span(0, 999), left_density, seed=1, schema=schema_a)
        b = bernoulli_sequence(Span(0, 999), right_density, seed=2, schema=schema_b)
        stored_a = StoredSequence.from_sequence("a", a, organization=left_org)
        stored_b = StoredSequence.from_sequence("b", b, organization=right_org)
        catalog = Catalog()
        catalog.register("a", stored_a)
        catalog.register("b", stored_b)
        query = base(stored_a, "a").compose(base(stored_b, "b")).query()
        return query, catalog

    def _join_kinds(self, result):
        return {
            plan.kind
            for plan in result.plan.plan.walk()
            if plan.kind in ("lockstep", "stream-probe", "probe-stream", "probe-join")
        }

    def test_clustered_pair_uses_lockstep(self):
        query, catalog = self._stored_pair("clustered", "clustered")
        result = optimize(query, catalog=catalog)
        assert self._join_kinds(result) == {"lockstep"}

    def test_sparse_driver_probes_clustered_inner(self):
        # left is very sparse: streaming it and probing the clustered
        # right beats scanning both.
        query, catalog = self._stored_pair(
            "clustered", "clustered", left_density=0.005
        )
        result = optimize(query, catalog=catalog)
        kinds = self._join_kinds(result)
        assert "stream-probe" in kinds or "probe-stream" in kinds

    def test_results_identical_across_organizations(self):
        outputs = []
        for orgs in (("clustered", "clustered"), ("log", "indexed"), ("indexed", "log")):
            query, catalog = self._stored_pair(*orgs)
            outputs.append(query.run(catalog=catalog).to_pairs())
        assert outputs[0] == outputs[1] == outputs[2]


class TestColumnFreeConjuncts:
    """Step 5 applies a conjunct that names no column exactly once.

    Rewrites and block formation carry such a conjunct into a join
    block's predicates like any other; it must still be placed (on
    input 0), so the engine answers — or raises — as the naive oracle
    does, in both executors.
    """

    @staticmethod
    def _answers(query):
        from repro.errors import ExpressionError
        from repro.execution import run_query

        answers = []
        for run in (
            query.run_naive,
            lambda: run_query(query, mode="row"),
            lambda: run_query(query, mode="batch"),
        ):
            try:
                answers.append(run().to_pairs())
            except ExpressionError:
                answers.append("ExpressionError")
        return answers

    def test_constant_false_select(self, table1):
        from repro.algebra import Query, Select, SequenceLeaf, lit

        _catalog, sequences = table1
        leaf = SequenceLeaf(sequences["ibm"], "ibm")
        query = Query(Select(leaf, lit(2) < lit(1)))
        assert self._answers(query) == [[], [], []]

    def test_constant_false_compose_predicate(self, table1):
        from repro.algebra import Compose, Query, SequenceLeaf, lit

        _catalog, sequences = table1
        left = SequenceLeaf(sequences["ibm"], "ibm")
        right = SequenceLeaf(sequences["hp"], "hp")
        query = Query(Compose(left, right, lit(1).eq(lit(0)), ("a", "b")))
        assert self._answers(query) == [[], [], []]

    @pytest.mark.parametrize(
        "text", ["select(ibm, 1/0 > 1)", "select(ibm, close > 0 and 1/0 > 1)"]
    )
    def test_raising_conjunct_raises(self, table1, text):
        from repro.lang import compile_query

        catalog, _sequences = table1
        query = compile_query(text, catalog)
        assert self._answers(query) == ["ExpressionError"] * 3
