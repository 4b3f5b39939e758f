"""Tests for the front-end semantic analyzer (`repro check`).

The rejected-query corpus covers every ERROR-severity SEM* rule with a
minimal query and asserts exact source positions; the warning lints
keep queries compilable but surface on ``Query.warnings``; a hypothesis
property ties the analyzer to the compiler: analyzer-clean queries
compile, run, and agree with the naive evaluator; another ties the
analyzer, ``Expr.infer_type`` and the effects analysis to the algebra's
one set of typing rules.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.algebra.expressions import And, Arith, Cmp, Col, Lit, Not, Or
from repro.analysis import Severity
from repro.analysis.effects import EXC_TYPE, analyze_expr
from repro.errors import ExpressionError, ParseError, SemanticError
from repro.lang import SEM_RULES, analyze, compile_query, format_query
from repro.lang.formatter import format_expr
from repro.model import AtomType, BaseSequence, Record, RecordSchema, Span

from tests.test_property_semantics import random_query


#: (source, rule code, line, column, end column) — one minimal rejected
#: query per ERROR-severity SEM rule, then one per type-error shape.
#: Positions are 1-based.
REJECTED_CORPUS = [
    ("select(imb, close > 7.0)", "SEM001", 1, 8, 11),
    ("select(ibm, clse > 7.0)", "SEM002", 1, 13, 17),
    ("select(ibm, close + 1)", "SEM003", 1, 13, 22),
    ("select(ibm)", "SEM004", 1, 1, 7),
    ("selekt(ibm, close > 7.0)", "SEM005", 1, 1, 7),
    ("window(ibm, median, close, 3)", "SEM006", 1, 13, 19),
    ("select(ibm, select(ibm, close > 7.0))", "SEM007", 1, 13, 19),
    ("voffset(ibm, -500)", "SEM011", 1, 1, 8),
    ("select(ibm, close > 7.0 and close < 3.0)", "SEM013", 1, 13, 40),
    ("compose(ibm, hp)", "SEM014", 1, 1, 8),
    # Type errors: each shape at the extent of the offending node.
    ("select(ibm, -true > 1)", "SEM003", 1, 13, 18),
    ("select(ibm, not close)", "SEM003", 1, 13, 22),
    ("select(ibm, close > 1 or 2)", "SEM003", 1, 26, 27),
    ("select(ibm, close and true)", "SEM003", 1, 13, 18),
    ("select(ibm, close + 'a' > 1)", "SEM003", 1, 13, 24),
    ("select(ibm, close < true)", "SEM003", 1, 13, 25),
    ("select(ibm, (1 < 2) < (2 < 3))", "SEM003", 1, 14, 29),
    ("compose(ibm as a, hp as b, a_close + 1)", "SEM003", 1, 28, 39),
    ("compose(ibm as a, hp as a)", "SEM014", 1, 1, 8),
    # A column-free conjunct folds like a column-free predicate.
    ("select(ibm, close > 0 and 1 > 2)", "SEM013", 1, 13, 32),
]


def _corpus_ids(corpus) -> list[str]:
    """The rule code, suffixed ``-2``, ``-3``, ... on repeats."""
    seen: dict[str, int] = {}
    ids = []
    for entry in corpus:
        code = entry[1]
        seen[code] = seen.get(code, 0) + 1
        ids.append(code if seen[code] == 1 else f"{code}-{seen[code]}")
    return ids


class TestRejectedCorpus:
    @pytest.mark.parametrize(
        "source, code, line, column, end_column",
        REJECTED_CORPUS,
        ids=_corpus_ids(REJECTED_CORPUS),
    )
    def test_analyze_reports_positioned_error(
        self, table1, source, code, line, column, end_column
    ):
        catalog, _ = table1
        result = analyze(source, catalog)
        assert not result.ok
        matching = [d for d in result.errors if d.rule == code]
        assert matching, f"no {code} finding in {result.diagnostics}"
        finding = matching[0]
        assert finding.severity is Severity.ERROR
        assert (finding.line, finding.column, finding.end_column) == (
            line, column, end_column
        )
        assert "^" in finding.excerpt

    @pytest.mark.parametrize(
        "source, code, line, column, end_column",
        REJECTED_CORPUS,
        ids=_corpus_ids(REJECTED_CORPUS),
    )
    def test_compile_rejects_with_semantic_error(
        self, table1, source, code, line, column, end_column
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

    def test_unary_minus_names_one_operand(self, table1):
        catalog, _ = table1
        result = analyze("select(ibm, -true > 1)", catalog)
        (finding,) = result.errors
        assert finding.message == "unary '-' needs a numeric operand, got BOOL"

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

    def test_constant_true_conjunct(self, table1):
        catalog, _ = table1
        query = compile_query("select(ibm, close > 0 and 1 < 2)", catalog)
        (warning,) = query.warnings
        assert warning.rule == "SEM013"
        assert "conjunct (1 < 2) is constantly true" in warning.message

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


# -- one rule set: the analyzer, infer_type and effects agree -------------------

_ATOMS = (AtomType.INT, AtomType.FLOAT, AtomType.STR, AtomType.BOOL)
_LITERALS = {
    AtomType.INT: st.integers(0, 3),
    AtomType.FLOAT: st.sampled_from((0.0, 0.5, 2.0)),
    AtomType.STR: st.sampled_from(("a", "b")),
    AtomType.BOOL: st.booleans(),
}


@st.composite
def value_expressions(draw):
    """``(schema, expr, text)``: a random value-expression tree over a
    random INT/FLOAT/STR/BOOL schema, and the same tree as query text.

    The root is a comparison or a connective, so a tree the algebra
    accepts is a predicate; about a third of the trees name no column.
    Unary minus is written ``-x`` and built as the analyzer builds it.
    """
    atoms = draw(st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=4))
    schema = RecordSchema.of(**{f"x{i}": atype for i, atype in enumerate(atoms)})
    columns = draw(st.integers(0, 2)) > 0

    def node(depth: int, boolean: bool):
        if not boolean and (depth <= 0 or draw(st.integers(0, 3)) == 0):
            if columns and draw(st.booleans()):
                name = draw(st.sampled_from(schema.names))
                return Col(name), name
            value = draw(_LITERALS[draw(st.sampled_from(_ATOMS))])
            return Lit(value), format_expr(Lit(value))
        kinds = ("cmp", "and", "or", "not") + (() if boolean else ("arith", "neg"))
        kind = draw(st.sampled_from(kinds))
        if kind in ("not", "neg"):
            operand, text = node(depth - 1, False)
            if kind == "not":
                return Not(operand), f"(not {text})"
            return Arith("-", Lit(0), operand), f"(-{text})"
        (left, ltext), (right, rtext) = node(depth - 1, False), node(depth - 1, False)
        if kind in ("and", "or"):
            return (And if kind == "and" else Or)(left, right), f"({ltext} {kind} {rtext})"
        op = draw(st.sampled_from(("==", "!=", "<", ">=") if kind == "cmp" else "+-*/"))
        return (Cmp if kind == "cmp" else Arith)(op, left, right), f"({ltext} {op} {rtext})"

    expr, text = node(draw(st.integers(1, 3)), True)
    return schema, expr, text


def _rule_rejects(expr, schema):
    """``(static type, whether some Arith/Cmp rule rejected its operand
    types)``.  Connectives are BOOL whatever their operands (``bool()``
    makes them total), and a rejected node has no type."""
    if isinstance(expr, (Col, Lit)):
        return expr.infer_type(schema), False
    if isinstance(expr, Not):
        return AtomType.BOOL, _rule_rejects(expr.operand, schema)[1]
    (ltype, lbad), (rtype, rbad) = (
        _rule_rejects(expr.left, schema),
        _rule_rejects(expr.right, schema),
    )
    if isinstance(expr, (And, Or)):
        return AtomType.BOOL, lbad or rbad
    fallback = AtomType.BOOL if isinstance(expr, Cmp) else None
    if ltype is None or rtype is None:
        return fallback, lbad or rbad
    try:
        return type(expr).result_type(expr.op, ltype, rtype), lbad or rbad
    except ExpressionError:
        return fallback, True


_CLOSE = RecordSchema.of(close=AtomType.FLOAT)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=value_expressions())
@example(case=(_CLOSE, Cmp(">", Arith("-", Lit(0), Lit(True)), Lit(1)), "(-true > 1)"))
@example(case=(_CLOSE, Cmp("<", Col("close"), Lit(True)), "(close < true)"))
@example(
    case=(
        _CLOSE,
        Cmp("<", Cmp("<", Lit(1), Lit(2)), Cmp("<", Lit(2), Lit(3))),
        "((1 < 2) < (2 < 3))",
    )
)
@example(case=(_CLOSE, Cmp(">", Arith("/", Lit(1), Lit(0)), Lit(1)), "((1 / 0) > 1)"))
def test_one_rule_set(case):
    """The analyzer's SEM003, ``Expr.infer_type`` and the effects
    analysis's ``EXC_TYPE`` are one verdict, from the algebra's rules;
    a column-free predicate's SEM013 verdict is ``Expr.eval``'s."""
    schema, expr, text = case
    env = {"s": BaseSequence(schema, [], span=Span(0, 9))}
    result = analyze(f"select(s, {text})", env)
    try:
        expr.infer_type(schema)
    except ExpressionError:
        well_typed = False
    else:
        well_typed = True
    sem003 = any(d.rule == "SEM003" for d in result.errors)
    assert sem003 is not well_typed, (text, result.diagnostics)

    exceptions = analyze_expr(expr, schema).exceptions
    assert (EXC_TYPE in exceptions) is _rule_rejects(expr, schema)[1]

    if well_typed and not expr.columns():
        sem013 = [d for d in result.diagnostics if d.rule == "SEM013"]
        try:
            value = expr.eval(Record(RecordSchema(()), ()))
        except ExpressionError:
            assert sem013 == []
        else:
            (finding,) = sem013
            expected = Severity.WARNING if value else Severity.ERROR
            assert finding.severity is expected
