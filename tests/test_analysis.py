"""Tests for the static verifier (repro.analysis).

Two halves:

* a **corrupted-graph corpus** — well-formed queries/plans mutated
  post-construction into states that violate one paper invariant each;
  every core rule must fire on its fixture;
* **clean passes** — every query of the Figure 7 optimizer suite (and
  its chosen plan, rewrite trace and annotations) verifies without
  findings, and the CLI subcommands exit zero on them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.algebra.aggregate import WindowAggregate
from repro.algebra.expressions import Cmp, col, lit
from repro.algebra.graph import Query
from repro.algebra.leaves import SequenceLeaf
from repro.algebra.offsets import ValueOffset
from repro.algebra.project import Project
from repro.algebra.scope import ScopeSpec
from repro.algebra.select import Select
from repro.analysis import (
    Severity,
    verify_optimization,
    verify_plan,
    verify_query,
    verify_rewrites,
)
from repro.analysis.plan_rules import PROBEABLE_KINDS, STREAMABLE_KINDS
from repro.catalog import Catalog
from repro.errors import VerificationError
from repro.execution.context import OPERATORS
from repro.execution.engine import execute_plan
from repro.model import AtomType, BaseSequence, Record, RecordSchema, Span
from repro.optimizer import AccessCosts, optimize
from repro.optimizer.plans import STREAM
from repro.optimizer.rewrite import RewriteStep, RewriteTrace

from tests.tampers import tamper_test

SCHEMA = RecordSchema.of(close=AtomType.FLOAT, volume=AtomType.INT)


def make_sequence(start: int = 0, end: int = 59) -> BaseSequence:
    pairs = [
        (p, Record(SCHEMA, (100.0 + p, 1000 * p))) for p in range(start, end + 1)
    ]
    return BaseSequence(SCHEMA, pairs, span=Span(start, end))


def make_catalog() -> tuple[Catalog, BaseSequence]:
    sequence = make_sequence()
    catalog = Catalog()
    catalog.register("prices", sequence)
    return catalog, sequence


def rule_errors(report, rule: str):
    return [d for d in report.by_rule(rule) if d.severity is Severity.ERROR]


class TestCorruptedGraphs:
    """Each corruption trips exactly the rule that owns the invariant."""

    def test_scope_annotation_disagreement(self):
        _, sequence = make_catalog()
        select = Select(SequenceLeaf(sequence, "prices"), Cmp(">", col("close"), lit(1.0)))
        query = Query(select)
        # Corrupt the declared scope: a selection claiming window scope
        # violates the Prop 2.1 annotation agreement.
        select.scope_on = lambda k: ScopeSpec.window(3)
        report = verify_query(query, with_annotations=False)
        assert not report.ok
        assert rule_errors(report, "scope-closure")

    def test_scope_non_spec_return(self):
        _, sequence = make_catalog()
        select = Select(SequenceLeaf(sequence, "prices"), Cmp(">", col("close"), lit(1.0)))
        query = Query(select)
        select.scope_on = lambda k: "everywhere"
        report = verify_query(query, with_annotations=False)
        assert rule_errors(report, "scope-closure")

    def test_span_widening_annotation(self):
        catalog, sequence = make_catalog()
        query = Query(
            Select(SequenceLeaf(sequence, "prices"), Cmp(">", col("close"), lit(1.0)))
        )
        result = optimize(query, catalog=catalog)
        annotation = result.annotated.of(result.rewritten.root)
        # Widen the restricted span beyond the inferred span: execution
        # would read positions Step 2 never accounted for.
        annotation.restricted_span = annotation.span.widen(50)
        report = verify_query(result.rewritten, result.annotated)
        assert not report.ok
        assert rule_errors(report, "span-containment")

    def test_child_span_does_not_cover_parent_reads(self):
        catalog, sequence = make_catalog()
        query = Query(WindowAggregate(SequenceLeaf(sequence, "prices"), "avg", "close", 5))
        result = optimize(query, catalog=catalog)
        leaf = result.rewritten.leaves()[0]
        annotation = result.annotated.of(leaf)
        # Shrink what the leaf provides below what the aggregate reads.
        annotation.restricted_span = Span(20, 25)
        report = verify_query(result.rewritten, result.annotated)
        assert rule_errors(report, "span-containment")

    def test_projection_drops_live_column(self):
        _, sequence = make_catalog()
        project = Project(SequenceLeaf(sequence, "prices"), ("close", "volume"))
        select = Select(project, Cmp(">", col("volume"), lit(0)))
        query = Query(select)
        # Corrupt the projection to drop the column the selection reads;
        # the cached schemas upstream go stale, exactly the bug class
        # the schema-flow rule recomputes to catch.
        project.names = ("close",)
        project._schema_cache = None
        report = verify_query(query, with_annotations=False)
        assert not report.ok
        findings = rule_errors(report, "schema-flow")
        assert findings
        assert any("volume" in d.message for d in findings)

    def test_rewrite_push_select_through_value_offset(self):
        _, sequence = make_catalog()
        leaf = SequenceLeaf(sequence, "prices")
        predicate = Cmp(">", col("close"), lit(1.0))
        before = Select(ValueOffset(leaf, -1), predicate)
        after = ValueOffset(Select(leaf, predicate), -1)
        trace = RewriteTrace()
        trace.note("push_select_through_project", before, after)
        report = verify_rewrites(trace)
        assert not report.ok
        findings = rule_errors(report, "rewrite-legality")
        assert any("illegal" in d.message for d in findings)

    def test_rewrite_equivalence_violation(self):
        _, sequence = make_catalog()
        leaf = SequenceLeaf(sequence, "prices")
        # A "rewrite" that changes the composed leaf scope (select
        # replaced by a value offset) is not Definition 3.1 equivalent.
        before = Select(leaf, Cmp(">", col("close"), lit(1.0)))
        after = ValueOffset(leaf, -1)
        trace = RewriteTrace()
        trace.note("combine_selects", before, after)
        report = verify_rewrites(trace)
        assert rule_errors(report, "rewrite-legality")

    def test_infinite_scope_stream_plan(self):
        catalog, sequence = make_catalog()
        query = Query(WindowAggregate(SequenceLeaf(sequence, "prices"), "avg", "close", 5))
        result = optimize(query, catalog=catalog)
        plan = result.plan.plan
        # An unbounded stream span breaks Theorem 3.1's finiteness.
        plan.span = Span(0, None)
        report = verify_plan(plan)
        assert not report.ok
        findings = rule_errors(report, "cache-finiteness")
        assert any("unbounded" in d.message for d in findings)

    def test_cache_size_mismatch(self):
        catalog, sequence = make_catalog()
        query = Query(WindowAggregate(SequenceLeaf(sequence, "prices"), "avg", "close", 5))
        result = optimize(query, catalog=catalog)
        windows = [p for p in result.plan.plan.walk() if p.kind == "window-agg"]
        assert windows and windows[0].strategy == "cache-a"
        windows[0].cache_size = 999
        report = verify_plan(result.plan)
        assert rule_errors(report, "cache-finiteness")

    def test_join_strategy_mode_mismatch(self, table1):
        catalog, _sequences = table1
        from benchmarks.bench_fig7_optimizer import query_suite

        query = query_suite(catalog)["golden-cross"]
        result = optimize(query, catalog=catalog)
        joins = [
            p
            for p in result.plan.plan.walk()
            if p.kind in ("lockstep", "stream-probe", "probe-stream")
        ]
        assert joins
        # Flip one input's access mode: the strategy no longer matches.
        joins[0].children[0].mode = (
            "probe" if joins[0].children[0].mode == STREAM else "stream"
        )
        report = verify_plan(result.plan)
        assert rule_errors(report, "cache-finiteness")

    def test_negative_cost(self):
        catalog, sequence = make_catalog()
        query = Query(
            Select(SequenceLeaf(sequence, "prices"), Cmp(">", col("close"), lit(1.0)))
        )
        result = optimize(query, catalog=catalog)
        plan = result.plan.plan
        object.__setattr__(plan.costs, "stream_total", -3.0)
        report = verify_plan(plan)
        assert not report.ok
        assert rule_errors(report, "cost-sanity")

    def test_non_monotone_stream_cost(self):
        catalog, sequence = make_catalog()
        query = Query(WindowAggregate(SequenceLeaf(sequence, "prices"), "avg", "close", 5))
        result = optimize(query, catalog=catalog)
        plan = result.plan.plan
        stream_parents = [
            p
            for p in plan.walk()
            if p.mode == STREAM
            and any(c.mode == STREAM for c in p.children)
            and p.costs.stream_total > 0
        ]
        assert stream_parents
        parent = stream_parents[0]
        parent.costs = AccessCosts(stream_total=0.0, probe_unit=0.0)
        child = next(c for c in parent.children if c.mode == STREAM)
        object.__setattr__(child.costs, "stream_total", 10.0)
        report = verify_plan(plan)
        assert rule_errors(report, "cost-sanity")

    def test_verification_error_carries_report(self):
        catalog, sequence = make_catalog()
        query = Query(
            Select(SequenceLeaf(sequence, "prices"), Cmp(">", col("close"), lit(1.0)))
        )
        result = optimize(query, catalog=catalog)
        result.plan.plan.span = Span(0, None)
        report = verify_plan(result.plan)
        with pytest.raises(VerificationError) as excinfo:
            report.raise_if_errors()
        assert excinfo.value.report is report


class TestPartitionCorruptions:
    """Partition-unsound claims trip the PART* rule that owns them.

    The tamper table (``tests/tampers.py``) puts a contract claim in a
    partition certificate the way a buggy parallel scheduler would, and
    the certificate checker must refuse it.
    """

    def optimized_plan(self, operator):
        catalog, _ = make_catalog()
        return optimize(Query(operator), catalog=catalog).plan

    test_order_sensitive_claimed_pointwise = tamper_test("order-sensitive-claimed-pointwise")
    test_blocking_aggregate_claimed_pointwise = tamper_test("blocking-claimed-pointwise")
    test_malformed_partition_metadata = tamper_test("malformed-contract")

    def test_optimizer_metadata_is_lint_clean(self):
        _, sequence = make_catalog()
        plan = self.optimized_plan(
            WindowAggregate(SequenceLeaf(sequence, "prices"), "avg", "close", 5)
        )
        report = verify_plan(plan)
        assert report.ok, report.render_text()


class TestHooks:
    """REPRO_VERIFY=1 turns verification on inside optimize/execute."""

    def test_execute_refuses_corrupt_plan(self, monkeypatch):
        catalog, sequence = make_catalog()
        query = Query(WindowAggregate(SequenceLeaf(sequence, "prices"), "avg", "close", 5))
        result = optimize(query, catalog=catalog)
        windows = [p for p in result.plan.plan.walk() if p.kind == "window-agg"]
        windows[0].cache_size = 999
        monkeypatch.setenv("REPRO_VERIFY", "1")
        with pytest.raises(VerificationError):
            execute_plan(result.plan.plan, result.plan.output_span)

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        catalog, sequence = make_catalog()
        query = Query(WindowAggregate(SequenceLeaf(sequence, "prices"), "avg", "close", 5))
        result = optimize(query, catalog=catalog)
        windows = [p for p in result.plan.plan.walk() if p.kind == "window-agg"]
        windows[0].cache_size = 999
        # Without the env var the corrupt cache annotation goes
        # unnoticed by execution (the cache size is advisory there).
        output = execute_plan(result.plan.plan, result.plan.output_span)
        assert len(output) > 0

    def test_end_to_end_clean(self, monkeypatch, table1):
        from benchmarks.bench_fig7_optimizer import query_suite

        monkeypatch.setenv("REPRO_VERIFY", "1")
        catalog, _sequences = table1
        for name, query in query_suite(catalog).items():
            output = query.run(catalog=catalog)
            assert output is not None, name


class TestCleanPass:
    """The benchmark workload verifies clean, end to end."""

    def test_fig7_suite_clean(self, table1):
        from benchmarks.bench_fig7_optimizer import query_suite

        catalog, _sequences = table1
        for name, query in query_suite(catalog).items():
            result = optimize(query, catalog=catalog)
            report = verify_optimization(result)
            assert report.ok, f"{name}:\n{report.render_text()}"
            assert set(report.rules_run) == {
                "scope-closure",
                "span-containment",
                "schema-flow",
                "rewrite-legality",
                "cache-finiteness",
                "cost-sanity",
            }

    def test_weather_clean(self, weather):
        catalog, volcanos, quakes = weather
        from repro.algebra import base

        query = (
            base(volcanos, "v")
            .compose(base(quakes, "e").previous(), prefixes=("v", "e"))
            .select(Cmp(">", col("e_strength"), lit(7.0)))
            .project("v_name")
            .query()
        )
        report = verify_optimization(optimize(query, catalog=catalog))
        assert report.ok, report.render_text()

    def test_kind_tables_cover_plan_kinds(self, table1):
        """Every kind the planner emits is stream- or probe-executable."""
        from benchmarks.bench_fig7_optimizer import query_suite

        catalog, _sequences = table1
        seen = set()
        for query in query_suite(catalog).values():
            result = optimize(query, catalog=catalog)
            seen.update(p.kind for p in result.plan.plan.walk())
        assert seen <= (STREAMABLE_KINDS | PROBEABLE_KINDS)

    def test_operator_table_matches_benchmark_metric_names(self):
        """A renamed or added plan kind cannot silently zero a benchmark metric."""
        declared = json.loads(
            (Path(__file__).parents[1] / "BENCHMARK.json").read_text()
        )
        metric_kinds = {
            m["name"][len("execution.op.") : -len(".self_ms")]
            for m in declared["per_layer"]
            if m["name"].startswith("execution.op.") and m["name"].endswith(".self_ms")
        }
        # Plan kinds deleted from the engine whose metric names stay in
        # BENCHMARK.json until the next benchmark change retires them
        # (ROADMAP item 3(a)).
        RETIRED_KINDS = {"materialize"}
        assert RETIRED_KINDS.isdisjoint(OPERATORS)
        assert (
            metric_kinds - RETIRED_KINDS
            == set(OPERATORS)
            == STREAMABLE_KINDS | PROBEABLE_KINDS
        )

    def test_construction_patch_installed(self):
        assert getattr(Query, "_analysis_verified", False)


class TestCliSubcommands:
    """repro lint / repro verify-plan."""

    @pytest.fixture
    def prices_csv(self, tmp_path):
        from repro.io import write_csv

        path = tmp_path / "prices.csv"
        write_csv(make_sequence(), path)
        return path

    def run_cli(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_lint_clean(self, prices_csv):
        code, text = self.run_cli(
            "lint", "--load", f"prices={prices_csv}",
            "window(select(prices, volume > 4000), avg, close, 3)",
        )
        assert code == 0
        assert "all checks passed" in text

    def test_verify_plan_clean_json(self, prices_csv):
        code, text = self.run_cli(
            "verify-plan", "--json", "--load", f"prices={prices_csv}",
            "next(select(prices, close > 100.0))",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["ok"] is True
        assert "cache-finiteness" in payload["rules_run"]
        assert "rewrite-legality" in payload["rules_run"]

    def test_lint_rejects_bad_query_text(self, prices_csv):
        code, text = self.run_cli(
            "lint", "--load", f"prices={prices_csv}", "select(prices, nosuch > 1)"
        )
        assert code == 1
        assert "error" in text
        assert "SEM002" in text
        assert "nosuch" in text

    def test_lint_json_findings_carry_rule_id_and_citation(self, prices_csv):
        """Every finding in --json output names its rule and citation.

        Downstream tooling keys on ``rule_id``; the ``citation`` ties a
        finding back to the paper section whose invariant it enforces.
        The shape is pinned here so the emitter cannot silently drop
        either field.
        """
        code, text = self.run_cli(
            "lint", "--json", "--load", f"prices={prices_csv}",
            "select(prices, nosuch > 1)",
        )
        assert code == 1
        payload = json.loads(text)
        assert payload["ok"] is False
        assert payload["diagnostics"], "expected at least one finding"
        for finding in payload["diagnostics"]:
            assert set(finding) >= {
                "rule", "rule_id", "severity", "path", "message", "citation",
            }
            assert finding["rule_id"] == finding["rule"]
            assert isinstance(finding["citation"], str)

    def test_lint_span_option(self, prices_csv):
        code, text = self.run_cli(
            "lint", "--load", f"prices={prices_csv}", "--span", "10:30",
            "window(prices, avg, close, 6)",
        )
        assert code == 0

    def test_legacy_cli_unaffected(self, prices_csv):
        code, text = self.run_cli(
            "--load", f"prices={prices_csv}", "--limit", "2",
            "select(prices, close > 100.0)",
        )
        assert code == 0
        assert "records over" in text
