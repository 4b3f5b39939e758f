"""Tests for the front-end semantic analyzer (`repro check`).

The rejected-query corpus covers every ERROR-severity SEM* rule with a
minimal query and asserts exact source positions; the warning lints
keep queries compilable but surface on ``Query.warnings``; a hypothesis
property ties the analyzer to the compiler: analyzer-clean queries
compile, run, and agree with the naive evaluator.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import Severity
from repro.errors import ParseError, SemanticError
from repro.lang import SEM_RULES, analyze, compile_query, format_query
from repro.model import Span

from tests.test_property_semantics import random_query


#: (source, rule code, line, column) — one minimal rejected query per
#: ERROR-severity SEM rule.  Positions are 1-based.
REJECTED_CORPUS = [
    ("select(imb, close > 7.0)", "SEM001", 1, 8),
    ("select(ibm, clse > 7.0)", "SEM002", 1, 13),
    ("select(ibm, close + 1)", "SEM003", 1, 13),
    ("select(ibm)", "SEM004", 1, 1),
    ("selekt(ibm, close > 7.0)", "SEM005", 1, 1),
    ("window(ibm, median, close, 3)", "SEM006", 1, 13),
    ("select(ibm, select(ibm, close > 7.0))", "SEM007", 1, 13),
    ("voffset(ibm, -500)", "SEM011", 1, 1),
    ("select(ibm, close > 7.0 and close < 3.0)", "SEM013", 1, 13),
    ("compose(ibm, hp)", "SEM014", 1, 1),
]


class TestRejectedCorpus:
    @pytest.mark.parametrize(
        "source, code, line, column",
        REJECTED_CORPUS,
        ids=[entry[1] for entry in REJECTED_CORPUS],
    )
    def test_analyze_reports_positioned_error(
        self, table1, source, code, line, column
    ):
        catalog, _ = table1
        result = analyze(source, catalog)
        assert not result.ok
        matching = [d for d in result.errors if d.rule == code]
        assert matching, f"no {code} finding in {result.diagnostics}"
        finding = matching[0]
        assert finding.severity is Severity.ERROR
        assert (finding.line, finding.column) == (line, column)
        assert finding.end_column > finding.column
        assert "^" in finding.excerpt

    @pytest.mark.parametrize(
        "source, code, line, column",
        REJECTED_CORPUS,
        ids=[entry[1] for entry in REJECTED_CORPUS],
    )
    def test_compile_rejects_with_semantic_error(
        self, table1, source, code, line, column
    ):
        catalog, _ = table1
        with pytest.raises(SemanticError) as excinfo:
            compile_query(source, catalog)
        error = excinfo.value
        assert isinstance(error, ParseError)  # callers catch both uniformly
        assert any(d.rule == code for d in error.diagnostics)
        assert (error.line, error.column) == (line, column)
        assert code in str(error)

    def test_corpus_covers_ten_distinct_rules(self):
        codes = {entry[1] for entry in REJECTED_CORPUS}
        assert len(codes) >= 10
        assert codes <= set(SEM_RULES)

    def test_all_errors_aggregated(self, table1):
        catalog, _ = table1
        with pytest.raises(SemanticError) as excinfo:
            compile_query("select(ibm, clse > 7.0 or volum > 1)", catalog)
        diagnostics = excinfo.value.diagnostics
        assert len(diagnostics) == 2
        assert all(d.rule == "SEM002" for d in diagnostics)
        assert "clse" in str(excinfo.value) and "volum" in str(excinfo.value)

    def test_multiline_positions(self, table1):
        catalog, _ = table1
        result = analyze("select(\n  ibm, clse > 1.0)", catalog)
        (finding,) = result.errors
        assert finding.rule == "SEM002"
        assert (finding.line, finding.column) == (2, 8)

    def test_did_you_mean(self, table1):
        catalog, _ = table1
        result = analyze("select(imb, close > 7.0)", catalog)
        assert "did you mean 'ibm'" in result.errors[0].message
        result = analyze("select(ibm, clse > 7.0)", catalog)
        assert "did you mean 'close'" in result.errors[0].message
        result = analyze("selekt(ibm, close > 7.0)", catalog)
        assert "did you mean 'select'" in result.errors[0].message


class TestMoreErrors:
    """Error shapes beyond the minimal one-per-rule corpus."""

    def test_ordered_comparison_on_bool(self, table1):
        catalog, _ = table1
        result = analyze("select(ibm, (close > 1.0) > true)", catalog)
        assert any(d.rule == "SEM003" for d in result.errors)

    def test_string_numeric_comparison(self, table1):
        catalog, _ = table1
        result = analyze("select(ibm, close > 'high')", catalog)
        assert any(d.rule == "SEM003" for d in result.errors)

    def test_zero_window_width(self, table1):
        catalog, _ = table1
        result = analyze("window(ibm, avg, close, 0)", catalog)
        assert any(d.rule == "SEM004" for d in result.errors)

    def test_non_integer_width(self, table1):
        catalog, _ = table1
        result = analyze("window(ibm, avg, close, 2.5)", catalog)
        (finding,) = result.errors
        assert finding.rule == "SEM004"
        assert "integer" in finding.message

    def test_voffset_zero(self, table1):
        catalog, _ = table1
        result = analyze("voffset(ibm, 0)", catalog)
        assert any(d.rule == "SEM004" for d in result.errors)

    def test_duplicate_project_columns(self, table1):
        catalog, _ = table1
        result = analyze("project(ibm, close, close)", catalog)
        (finding,) = result.errors
        assert finding.rule == "SEM014"
        assert finding.column == 21  # the second `close`

    def test_compose_disjoint_spans(self, table1):
        catalog, _ = table1
        result = analyze(
            "compose(shift(ibm, 500) as a, shift(ibm, -500) as b)", catalog
        )
        (finding,) = result.errors
        assert finding.rule == "SEM011"
        assert "never overlap" in finding.message

    def test_contradictory_equalities(self, table1):
        catalog, _ = table1
        result = analyze(
            "select(ibm, close == 1.0 and close == 2.0)", catalog
        )
        assert any(d.rule == "SEM013" for d in result.errors)

    def test_constant_false(self, table1):
        catalog, _ = table1
        result = analyze("select(ibm, 1 > 2)", catalog)
        (finding,) = result.errors
        assert finding.rule == "SEM013"
        assert "constantly false" in finding.message

    def test_poison_does_not_cascade(self, table1):
        catalog, _ = table1
        # The unknown sequence poisons the child schema: the analyzer
        # must NOT also report the (unresolvable) column as unknown.
        result = analyze("select(imb, close > 7.0)", catalog)
        assert [d.rule for d in result.errors] == ["SEM001"]


class TestWarnings:
    def test_useless_alias(self, table1):
        catalog, _ = table1
        query = compile_query(
            "select(project(ibm, close) as x, close > 1.0)", catalog
        )
        assert [d.rule for d in query.warnings] == ["SEM008"]

    def test_alias_on_compose_predicate(self, table1):
        catalog, _ = table1
        query = compile_query(
            "compose(ibm as a, hp as b, a_close > b_close as junk)", catalog
        )
        assert [d.rule for d in query.warnings] == ["SEM008"]

    def test_window_wider_than_span(self, table1):
        catalog, _ = table1
        query = compile_query("window(ibm, avg, close, 500)", catalog)
        assert [d.rule for d in query.warnings] == ["SEM010"]

    def test_dead_column(self, table1):
        catalog, _ = table1
        query = compile_query(
            "project(compose(project(ibm, close, volume) as i, hp as h, "
            "i_close > h_close), i_close)",
            catalog,
        )
        (warning,) = query.warnings
        assert warning.rule == "SEM012"
        assert "'volume'" in warning.message

    def test_root_projection_never_dead(self, table1):
        catalog, _ = table1
        query = compile_query("project(ibm, close, volume)", catalog)
        assert query.warnings == []

    def test_constant_true_predicate(self, table1):
        catalog, _ = table1
        query = compile_query("select(ibm, true)", catalog)
        (warning,) = query.warnings
        assert warning.rule == "SEM013"
        assert warning.severity is Severity.WARNING

    def test_warnings_do_not_block_execution(self, table1):
        catalog, _ = table1
        query = compile_query("select(ibm, true)", catalog)
        span = Span(200, 250)
        assert query.run_naive(span).to_pairs() == query.run(
            span=span, catalog=catalog
        ).to_pairs()


class TestAnnotations:
    """Schema/span/scope inference exposed on the analysis result."""

    def test_clean_query_annotations(self, table1):
        catalog, _ = table1
        result = analyze("window(ibm, avg, close, 6, ma)", catalog)
        assert result.ok and result.root is not None
        assert result.schema.names == ("ma",)
        assert result.span is not None and not result.span.is_empty
        assert result.sequential is True

    def test_span_matches_query_inference(self, table1):
        catalog, _ = table1
        source = "select(shift(ibm, -3), close > 100.0)"
        result = analyze(source, catalog)
        query = compile_query(source, catalog)
        assert result.span == query.inferred_span()

    def test_non_sequential_detected(self, table1):
        catalog, _ = table1
        # next() reaches into the future: Theorem 3.1 stream evaluation
        # does not apply.
        result = analyze("next(ibm)", catalog)
        assert result.ok
        assert result.sequential is False

    def test_leaf_scopes_keyed_by_leaf(self, table1):
        catalog, _ = table1
        result = analyze("compose(ibm as a, hp as b)", catalog)
        assert len(result.leaf_scopes) == 2

    def test_analysis_attached_to_query(self, table1):
        catalog, _ = table1
        query = compile_query("select(ibm, close > 100.0)", catalog)
        assert query.analysis is not None
        assert query.analysis.subject == "source"
        assert query.analysis.ok

    def test_dict_environment(self, table1):
        _catalog, sequences = table1
        result = analyze("select(ibm, clse > 7.0)", dict(sequences))
        assert [d.rule for d in result.errors] == ["SEM002"]


class TestRegistry:
    def test_rules_have_distinct_codes_and_names(self):
        names = [rule.name for rule in SEM_RULES.values()]
        assert len(names) == len(set(names))
        assert all(code.startswith("SEM") for code in SEM_RULES)

    def test_at_least_ten_error_rules(self):
        errors = [
            rule
            for rule in SEM_RULES.values()
            if rule.severity is Severity.ERROR
        ]
        assert len(errors) >= 10

    def test_reports_list_all_rules_run(self, table1):
        catalog, _ = table1
        result = analyze("previous(ibm)", catalog)
        assert list(result.report.rules_run) == list(SEM_RULES)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(query=random_query())
def test_analyzer_clean_queries_compile_and_agree(query):
    """Analyzer-clean text compiles, runs, and matches the naive oracle;
    analyzer-rejected text is exactly what compile_query refuses."""
    text, env = format_query(query)
    result = analyze(text, env)
    if result.ok:
        compiled = compile_query(text, env)
        assert compiled.analysis.ok
        span = query.default_span()
        assert (
            compiled.run_naive(span).to_pairs()
            == query.run_naive(span).to_pairs()
        )
    else:
        with pytest.raises(SemanticError):
            compile_query(text, env)
