"""Tests for physical plan structures and EXPLAIN rendering."""

import pytest

from repro.errors import OptimizerError
from repro.model import Span
from repro.algebra import base, col
from repro.optimizer import (
    PROBE,
    STREAM,
    AccessCosts,
    ChainStep,
    PhysicalPlan,
    optimize,
)


class TestChainStep:
    def test_describe_each_kind(self):
        assert "select" in ChainStep("select", predicate=col("a") > 1).describe()
        assert "project[a, b]" == ChainStep("project", names=("a", "b")).describe()
        assert "shift[+3]" == ChainStep("shift", offset=3).describe()
        from repro.model import AtomType, RecordSchema

        schema = RecordSchema.of(x=AtomType.INT)
        assert "rename" in ChainStep("rename", schema=schema).describe()

    def test_unknown_kind_rejected_on_describe(self):
        with pytest.raises(OptimizerError):
            ChainStep("teleport").describe()


class TestPhysicalPlan:
    def make(self, mode=STREAM, **kwargs):
        from repro.model import AtomType, RecordSchema

        defaults = dict(
            kind="scan",
            mode=mode,
            node=None,
            children=(),
            schema=RecordSchema.of(v=AtomType.INT),
            span=Span(0, 9),
            density=1.0,
            costs=AccessCosts(stream_total=5.0, probe_unit=2.0),
        )
        defaults.update(kwargs)
        return PhysicalPlan(**defaults)

    def test_est_cost_by_mode(self):
        assert self.make(STREAM).est_cost == 5.0
        assert self.make(PROBE).est_cost == 2.0

    def test_describe_includes_strategy_and_cache(self):
        plan = self.make(strategy="cache-a", cache_size=6)
        text = plan.describe()
        assert "cache-a" in text and "cache=6" in text and "mode=stream" in text

    def test_pretty_indents_children(self):
        child = self.make()
        parent = self.make(kind="chain", children=(child,))
        lines = parent.pretty().splitlines()
        assert lines[0].startswith("chain")
        assert lines[1].startswith("  scan")

    def test_walk_preorder(self):
        child = self.make()
        parent = self.make(kind="chain", children=(child,))
        assert [p.kind for p in parent.walk()] == ["chain", "scan"]


class TestExplain:
    def test_full_explain_content(self, table1):
        catalog, sequences = table1
        query = (
            base(sequences["ibm"], "ibm")
            .select(col("close") > 100.0)
            .window("avg", "close", 8)
            .query()
        )
        result = optimize(query, catalog=catalog)
        text = result.explain()
        assert "estimated cost" in text
        assert "block(s)" in text
        assert "join plans" in text
        assert "rewrites:" in text
        assert "window-agg" in text
        assert "scan" in text

    def test_explain_lists_fired_rewrites(self, table1):
        catalog, sequences = table1
        query = (
            base(sequences["ibm"], "ibm")
            .compose(base(sequences["hp"], "hp"), prefixes=("i", "h"))
            .select(col("i_close") > 100.0)
            .query()
        )
        result = optimize(query, catalog=catalog)
        assert "push_select_into_compose" in result.explain()

    def test_explain_no_rewrites(self, small_prices):
        query = base(small_prices, "p").query()
        result = optimize(query)
        assert "rewrites: none" in result.explain()

    def test_probe_plans_visible_in_strategy_a(self):
        from repro.catalog import Catalog
        from repro.model import AtomType, RecordSchema
        from repro.storage import StoredSequence
        from repro.workloads import bernoulli_sequence

        a = bernoulli_sequence(
            Span(0, 999), 0.005, seed=1, schema=RecordSchema.of(a=AtomType.FLOAT)
        )
        b = bernoulli_sequence(
            Span(0, 999), 0.9, seed=2, schema=RecordSchema.of(b=AtomType.FLOAT)
        )
        catalog = Catalog()
        catalog.register("a", StoredSequence.from_sequence("a", a))
        catalog.register("b", StoredSequence.from_sequence("b", b))
        query = (
            base(catalog.get("a").sequence, "a")
            .compose(base(catalog.get("b").sequence, "b"))
            .query()
        )
        text = optimize(query, catalog=catalog).explain()
        assert "stream-probe" in text or "probe-stream" in text
        assert "probe-source" in text
