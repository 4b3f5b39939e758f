"""Tests for the language formatter, including round-trip properties."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import QueryError, SemanticError
from repro.algebra import Query, base, col, lit
from repro.lang import compile_query, format_expr, format_query

from tests.test_property_semantics import random_query


class TestFormatExpr:
    def test_literals(self):
        assert format_expr(lit(3)) == "3"
        assert format_expr(lit(2.5)) == "2.5"
        assert format_expr(lit("abc")) == "'abc'"
        assert format_expr(lit(True)) == "true"
        assert format_expr(lit(False)) == "false"

    def test_connectives(self):
        expr = (col("a") > 1) & ~(col("b").eq("x"))
        text = format_expr(expr)
        assert text == "((a > 1) and (not (b == 'x')))"

    def test_arith(self):
        assert format_expr(col("a") + col("b") * 2) == "(a + (b * 2))"


class TestFormatQuery:
    def test_simple(self, small_prices):
        query = base(small_prices, "p").select(col("close") > 45.0).query()
        text, env = format_query(query)
        assert text == "select(p, (close > 45.0))"
        assert env == {"p": small_prices}

    def test_every_operator(self, dense_walk):
        query = (
            base(dense_walk, "w")
            .select(col("close") > 0.0)
            .project("close")
            .shift(-2)
            .window("avg", "close", 4, "ma")
            .query()
        )
        text, env = format_query(query)
        recompiled = compile_query(text, env)
        assert recompiled.run_naive().to_pairs() == query.run_naive().to_pairs()

    def test_compose_with_prefixes_and_predicate(self, table1):
        _catalog, sequences = table1
        query = (
            base(sequences["ibm"], "ibm")
            .compose(
                base(sequences["hp"], "hp"),
                predicate=col("i_close") > col("h_close"),
                prefixes=("i", "h"),
            )
            .query()
        )
        text, env = format_query(query)
        assert "as i" in text and "as h" in text
        recompiled = compile_query(text, env)
        window = query.default_span()
        assert recompiled.run_naive(window).to_pairs() == query.run_naive(window).to_pairs()

    def test_alias_collision_rejected(self, small_prices, dense_walk):
        query = (
            base(small_prices, "x")
            .compose(base(dense_walk, "x"), prefixes=("a", "b"))
            .query()
        )
        with pytest.raises(QueryError, match="alias"):
            format_query(query)

    def test_same_sequence_same_alias_ok(self, dense_walk):
        query = (
            base(dense_walk, "w").window("avg", "close", 5, "fast")
            .compose(base(dense_walk, "w").window("avg", "close", 9, "slow"))
            .query()
        )
        text, env = format_query(query)
        assert list(env) == ["w"]
        recompiled = compile_query(text, env)
        assert recompiled.run_naive().to_pairs() == query.run_naive().to_pairs()

    def test_constant_leaf_rejected(self, small_prices):
        from repro.algebra import constant

        query = (
            base(small_prices, "p").compose(constant("k", 1.0)).query()
        )
        with pytest.raises(QueryError, match="constant"):
            format_query(query)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(query=random_query())
def test_roundtrip_property(query: Query):
    """compile(format(q)) produces the same answers as q.

    Random queries may be degenerate in ways the semantic analyzer
    rightly rejects — a value offset reaching past a one-position
    span, a compose whose input spans never overlap (about one in nine
    generated texts, all SEM011 always-null), a selection with a
    constantly false column-free conjunct (SEM013) — and those must be
    *rejected*, with that code, rather than round-tripped.
    """
    text, env = format_query(query)
    try:
        recompiled = compile_query(text, env)
    except SemanticError as error:
        assert {d.rule for d in error.diagnostics} <= {"SEM011", "SEM013"}, text
        assert all(
            "constantly false" in d.message
            for d in error.diagnostics
            if d.rule == "SEM013"
        ), text
        return
    span = query.default_span()
    assert recompiled.run_naive(span).to_pairs() == query.run_naive(span).to_pairs()
