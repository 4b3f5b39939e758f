"""Tests for the expression effect analysis (repro.analysis.effects).

Five halves:

* **the lattice** — :class:`Interval` and :class:`EffectSpec` behave
  like the Section 3.1 abstract domain: a top element, sound interval
  arithmetic, and serialization round trips;
* **the analyzer** — ``analyze_expr`` classifies every built-in
  expression form, records division-by-zero and type-confusion
  escapes, and lands custom ``Expr`` subclasses on the top element
  (``require_spec`` turns that into a typed refusal);
* **certificates** — prover output survives a JSON round trip, and the
  independent checker accepts honest certificates while rejecting
  every over-claim a hostile producer could attempt (a certificate may
  *understate* capability, never overstate it);
* **the consumers** — dense codegen fires only under a certified
  vectorization-safe spec and agrees bit-for-bit with the guarded loop
  and the row oracle (hypothesis-checked over random trees); the
  partition certifier refuses plans whose expressions the effect
  analysis cannot model; interpreted-eval fallbacks are observable via
  ``exprs_interpreted`` and the ``expr:interpreted`` trace event;
* **the CLI** — ``repro effects-check`` honors the shared 0/1/2 exit
  contract, the ``--json`` payload shape, and ``--cert-out``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (
    And,
    Arith,
    Cmp,
    Not,
    Or,
    col,
    compile_filter,
    compile_rowwise,
    lit,
)
from repro.analysis.effects import (
    EFX_FALLBACK,
    EFX_PURE,
    EFX_RULES,
    EXC_DIV_ZERO,
    EXC_TYPE,
    EXC_UNKNOWN,
    EffectCertificate,
    EffectCounters,
    EffectSpec,
    Interval,
    analyze_effects,
    analyze_expr,
    certify_effects,
    check_effect_certificate,
    interval_arith,
    require_effect_certificate,
    require_spec,
)
from repro.analysis.partition import analyze_partition, certify
from repro.errors import (
    EffectSoundnessError,
    ExpressionError,
    PartitionSoundnessError,
    ReproError,
    UnknownEffectError,
)
from repro.execution import ExecutionCounters, build_prober, execute_plan
from repro.execution.context import ExecContext
from repro.lang import compile_query
from repro.model import NULL, AtomType, Record, RecordSchema
from repro.obs.tracer import Tracer
from repro.optimizer import optimize

from tests.tampers import Opaque, OpaquePredicate, replace_chain_predicate, tamper_test

SCHEMA = RecordSchema.of(close=AtomType.FLOAT, volume=AtomType.INT, sym=AtomType.STR)


def optimized(source: str, catalog):
    return optimize(compile_query(source, catalog), catalog=catalog).plan


# -- the lattice --------------------------------------------------------------


class TestInterval:
    def test_point_and_top(self):
        assert Interval.point(3.0) == Interval(3.0, 3.0)
        assert Interval.top().is_top
        assert not Interval.point(3.0).is_top

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ReproError):
            Interval(2.0, 1.0)

    def test_contains_zero(self):
        assert Interval(-1.0, 1.0).contains_zero()
        assert Interval.top().contains_zero()
        assert not Interval(0.5, 2.0).contains_zero()
        assert Interval(0.0, 0.0).contains_zero()

    def test_covers_is_a_partial_order(self):
        assert Interval.top().covers(Interval(1.0, 2.0))
        assert Interval(0.0, 10.0).covers(Interval(1.0, 2.0))
        assert not Interval(1.0, 2.0).covers(Interval.top())
        assert not Interval(1.0, 2.0).covers(Interval(0.0, 2.0))
        assert Interval(1.0, 2.0).covers(Interval(1.0, 2.0))

    def test_round_trip(self):
        for interval in (Interval.top(), Interval(1.0, 2.0), Interval(None, 5.0)):
            assert Interval.from_dict(interval.to_dict()) == interval

    def test_addition_is_exact_on_bounded_operands(self):
        got = interval_arith("+", Interval(1.0, 2.0), Interval(10.0, 20.0))
        assert got == Interval(11.0, 22.0)

    def test_subtraction_flips_the_right_operand(self):
        got = interval_arith("-", Interval(1.0, 2.0), Interval(10.0, 20.0))
        assert got == Interval(-19.0, -8.0)

    def test_unbounded_operand_absorbs(self):
        got = interval_arith("+", Interval(1.0, None), Interval(10.0, 20.0))
        assert got.low == 11.0 and got.high is None

    def test_multiplication_of_bounded_operands(self):
        got = interval_arith("*", Interval(-2.0, 3.0), Interval(4.0, 5.0))
        assert got.covers(Interval(-10.0, 15.0))

    def test_division_by_zero_straddling_interval_is_top(self):
        got = interval_arith("/", Interval(1.0, 2.0), Interval(-1.0, 1.0))
        assert got.is_top

    @given(
        a=st.floats(-100, 100),
        b=st.floats(-100, 100),
        c=st.floats(-100, 100),
        d=st.floats(-100, 100),
        op=st.sampled_from(["+", "-", "*"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_arith_is_sound(self, a, b, c, d, op):
        """Concrete results always land inside the abstract interval."""
        left = Interval(min(a, b), max(a, b))
        right = Interval(min(c, d), max(c, d))
        abstract = interval_arith(op, left, right)
        for x in (left.low, left.high):
            for y in (right.low, right.high):
                concrete = {"+": x + y, "-": x - y, "*": x * y}[op]
                assert abstract.covers(Interval.point(concrete))


class TestEffectSpec:
    def test_total_iff_no_exceptions(self):
        spec = analyze_expr(col("close") > 1.0, SCHEMA)
        assert spec.total
        divided = analyze_expr(col("close") / col("volume"), SCHEMA)
        assert not divided.total and divided.exceptions == {EXC_DIV_ZERO}

    def test_unknown_is_the_top_element(self):
        top = EffectSpec.unknown()
        assert top.is_unknown and not top.pure and not top.null_strict
        assert EXC_UNKNOWN in top.exceptions
        assert not top.vectorization_safe

    def test_vectorization_safe_needs_all_four_guarantees(self):
        safe = analyze_expr(col("close") > 1.0, SCHEMA)
        assert safe.vectorization_safe
        assert not dataclasses.replace(safe, pure=False).vectorization_safe
        assert not dataclasses.replace(
            safe, deterministic=False
        ).vectorization_safe
        assert not dataclasses.replace(
            safe, exceptions=frozenset((EXC_DIV_ZERO,))
        ).vectorization_safe
        assert not dataclasses.replace(safe, null_strict=False).vectorization_safe

    def test_unknown_tag_rejected(self):
        with pytest.raises(ReproError, match="exception tags"):
            EffectSpec(True, True, frozenset(("segfault",)), True)

    def test_round_trip(self):
        for expr in (col("close") > 1.0, col("close") / col("volume"), lit(3)):
            spec = analyze_expr(expr, SCHEMA)
            assert EffectSpec.from_dict(spec.to_dict()) == spec

    def test_describe_is_readable(self):
        text = analyze_expr(col("close") / col("volume"), SCHEMA).describe()
        assert "pure" in text and "div-by-zero" in text


# -- the analyzer -------------------------------------------------------------


class TestAnalyzeExpr:
    def test_literal_has_point_domain(self):
        spec = analyze_expr(lit(3), SCHEMA)
        assert spec.vectorization_safe
        assert spec.domain == Interval.point(3)

    def test_literal_arithmetic_folds_domains(self):
        spec = analyze_expr(lit(3) + lit(4), SCHEMA)
        assert spec.total
        assert spec.domain == Interval.point(7)

    def test_unknown_column_is_type_confusion(self):
        spec = analyze_expr(col("nope") > 1.0, SCHEMA)
        assert EXC_TYPE in spec.exceptions and not spec.is_unknown

    def test_division_by_column_may_raise(self):
        spec = analyze_expr(col("close") / col("volume"), SCHEMA)
        assert spec.exceptions == {EXC_DIV_ZERO}

    def test_division_by_nonzero_literal_is_total(self):
        spec = analyze_expr(col("close") / lit(4), SCHEMA)
        assert spec.total

    def test_division_by_zero_literal_may_raise(self):
        spec = analyze_expr(col("close") / lit(0), SCHEMA)
        assert EXC_DIV_ZERO in spec.exceptions

    def test_arith_on_strings_is_type_confusion(self):
        spec = analyze_expr(col("sym") + lit(1), SCHEMA)
        assert EXC_TYPE in spec.exceptions

    def test_bool_connectives_are_total(self):
        spec = analyze_expr(
            (col("close") > 1.0) & ~(col("volume") > 5), SCHEMA
        )
        assert spec.vectorization_safe

    def test_connectives_union_operand_exceptions(self):
        spec = analyze_expr(
            (col("close") / col("volume") > 1.0) | (col("sym") > lit(1)), SCHEMA
        )
        assert spec.exceptions == {EXC_DIV_ZERO, EXC_TYPE}

    def test_custom_subclass_is_unknown(self):
        assert analyze_expr(Opaque(), SCHEMA).is_unknown

    def test_unknown_is_contagious(self):
        spec = analyze_expr((col("close") > 1.0) & (Opaque() > lit(1)), SCHEMA)
        assert spec.is_unknown

    def test_require_spec_refuses_unknowns_typed(self):
        with pytest.raises(UnknownEffectError) as excinfo:
            require_spec((col("close") > 1.0) & (Opaque() > lit(1)), SCHEMA)
        assert excinfo.value.expr_type == "Opaque"

    def test_unknown_effect_error_is_a_soundness_error(self):
        assert issubclass(UnknownEffectError, EffectSoundnessError)

    def test_counters_charged(self):
        counters = EffectCounters()
        analyze_expr(col("close") > 1.0, SCHEMA, counters=counters)
        analyze_expr(Opaque(), SCHEMA, counters=counters)
        assert counters.specs_derived == 2
        assert counters.unknown_exprs == 1


# -- certificates -------------------------------------------------------------


class TestCertificates:
    @pytest.fixture(scope="class")
    def divided(self, table1):
        """A plan with one non-total (div-by-zero) predicate site."""
        catalog, _sequences = table1
        return optimized("select(ibm, close / volume > 0.01)", catalog)

    def test_non_total_sites_certify_truthfully(self, divided):
        certificate, report = analyze_effects(divided)
        assert report.ok and certificate is not None
        (site,) = certificate.sites
        assert site.path == "root:chain#step0"
        assert site.spec.exceptions == {EXC_DIV_ZERO}
        assert site not in certificate.vectorization_safe_sites

    def test_json_round_trip(self, divided):
        certificate = certify_effects(divided)
        restored = EffectCertificate.from_json(certificate.to_json())
        assert restored == certificate
        assert not check_effect_certificate(divided, restored).errors

    def test_malformed_json_rejected(self):
        with pytest.raises(ReproError):
            EffectCertificate.from_json(json.dumps([1, 2]))
        with pytest.raises(ReproError):
            EffectCertificate.from_json(json.dumps({"sites": []}))

    def test_fingerprint_binds_plan(self, divided, table1):
        catalog, _sequences = table1
        certificate = certify_effects(divided)
        other = optimized("select(ibm, close > 115.0)", catalog)
        report = check_effect_certificate(other, certificate)
        assert [d.rule for d in report.errors] == [EFX_PURE]
        assert "different plan" in report.errors[0].message

    def test_understating_capability_is_allowed(self, divided):
        """Claiming *more* escaping exceptions than derivable is sound."""
        certificate = certify_effects(divided)
        (site,) = certificate.sites
        weaker = dataclasses.replace(
            site,
            spec=dataclasses.replace(
                site.spec, exceptions=site.spec.exceptions | {EXC_TYPE}
            ),
        )
        hedged = dataclasses.replace(certificate, sites=(weaker,))
        assert check_effect_certificate(divided, hedged).ok

    # Tampered claims are rows of the tamper table (tests/tampers.py).
    test_checker_catches_understated_exceptions = tamper_test("understated-exceptions")
    test_checker_catches_overclaimed_domain = tamper_test("overclaimed-domain")
    test_checker_catches_phantom_site = tamper_test("phantom-site")
    test_checker_catches_missing_site = tamper_test("missing-site")
    test_checker_catches_stale_claim_over_unknown = tamper_test("stale-claim-over-unknown")

    @pytest.mark.parametrize(
        "source",
        ["select(ibm, close > 115.0)", "select(compose(ibm as i, hp as h), i_close > h_close)"],
    )
    def test_batch_operators_never_parse_specs(self, table1, source, monkeypatch):
        catalog, _sequences = table1
        root = optimized(source, catalog).plan

        def parse(data):
            raise AssertionError("an operator open parsed an effect spec")

        monkeypatch.setattr(EffectSpec, "from_dict", staticmethod(parse))
        execute_plan(root, root.span, ExecutionCounters(), mode="batch").to_pairs()

    def test_require_raises_typed_error(self, divided):
        certificate = certify_effects(divided)
        gutted = dataclasses.replace(certificate, sites=())
        with pytest.raises(EffectSoundnessError, match="rejected"):
            require_effect_certificate(divided, gutted)
        assert require_effect_certificate(divided, certificate) is certificate

    def test_custom_expression_refused_typed(self, table1):
        catalog, _sequences = table1
        plan = optimized("select(ibm, close > 115.0)", catalog)
        replace_chain_predicate(plan, OpaquePredicate())
        certificate, report = analyze_effects(plan)
        assert certificate is None
        assert [d.rule for d in report.errors] == [EFX_FALLBACK]
        with pytest.raises(EffectSoundnessError, match="not effect-certifiable"):
            certify_effects(plan)

    def test_counters_charged(self, divided):
        counters = EffectCounters()
        certificate, _report = analyze_effects(divided, counters=counters)
        check_effect_certificate(divided, certificate, counters=counters)
        assert counters.certificates_issued == 1
        assert counters.checks_run == 1
        assert counters.checks_failed == 0
        gutted = dataclasses.replace(certificate, sites=())
        check_effect_certificate(divided, gutted, counters=counters)
        assert counters.checks_failed == 1


# -- dense codegen ------------------------------------------------------------


def batch_of(rows):
    """(columns, valid) for (close, volume, sym) rows; None = masked."""
    valid = [row is not None for row in rows]
    filled = [row if row is not None else (0.0, 0, "") for row in rows]
    columns = [list(cells) for cells in zip(*filled)]
    return columns, valid


class TestDenseCodegen:
    ROWS = [(101.5, 2000, "ibm"), (99.0, 0, "hp"), (120.0, 5, "dec")]

    @pytest.mark.parametrize("mask_all", [True, False])
    def test_filter_agrees_with_guarded_and_oracle(self, mask_all):
        expr = (col("close") > 100.0) & (col("volume") > 10)
        spec = analyze_expr(expr, SCHEMA)
        assert spec.vectorization_safe
        rows = list(self.ROWS) if mask_all else [self.ROWS[0], None, self.ROWS[2]]
        columns, valid = batch_of(rows)
        dense = compile_filter(expr, SCHEMA, spec=spec)
        guarded = compile_filter(expr, SCHEMA)
        oracle = [
            ok and bool(expr.eval(Record(SCHEMA, row)))
            for ok, row in zip(valid, (r or (0.0, 0, "") for r in rows))
        ]
        assert dense(columns, valid) == guarded(columns, valid) == oracle

    def test_unsafe_spec_keeps_the_guarded_loop(self):
        """A non-total spec must not select the dense template: on a
        fully-valid batch the dense loop would be observationally equal,
        so the test drives a division by zero and relies on the guarded
        loop's per-row masking semantics being preserved exactly."""
        expr = col("close") / col("volume") > 1.0
        spec = analyze_expr(expr, SCHEMA)
        assert not spec.vectorization_safe
        compiled = compile_filter(expr, SCHEMA, spec=spec)
        columns, valid = batch_of([(10.0, 0, "x"), (10.0, 2, "y")])
        valid[0] = False
        assert compiled(columns, valid) == [False, True]

    def test_dense_filter_emits_actual_bools(self):
        """The dense comprehension must coerce like the guarded loop's
        ``if`` does, not hand back raw fragment values."""
        expr = col("close") > 100.0
        compiled = compile_filter(expr, SCHEMA, spec=analyze_expr(expr, SCHEMA))
        columns, valid = batch_of(self.ROWS)
        out = compiled(columns, valid)
        assert all(isinstance(flag, bool) for flag in out)


# -- differential: compiled == interpreted ------------------------------------

NUMERIC_SCHEMA = RecordSchema.of(a=AtomType.FLOAT, b=AtomType.INT)


def numeric_exprs(depth=3):
    leaves = st.one_of(
        st.sampled_from([col("a"), col("b")]),
        st.integers(-5, 5).map(lit),
        st.floats(-5, 5, allow_nan=False).map(lambda v: lit(round(v, 3))),
    )

    def extend(children):
        ops = st.sampled_from(["+", "-", "*", "/"])
        return st.builds(Arith, ops, children, children)

    return st.recursive(leaves, extend, max_leaves=2**depth)


def predicate_exprs():
    cmps = st.builds(
        Cmp, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
        numeric_exprs(), numeric_exprs(),
    )

    def extend(children):
        return st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Not, children),
        )

    return st.recursive(cmps, extend, max_leaves=4)


def outcome(fn):
    """The value or the typed-error marker of one evaluation path.

    A NaN value becomes the marker ``"nan"``: it equals no value, itself
    included, yet two paths that both yield it agree (``inf - inf``).
    """
    try:
        value = fn()
    except ExpressionError:
        return ("raises", ExpressionError.__name__)
    return ("ok", "nan" if value != value else value)


class TestDifferential:
    """Compiled evaluation is observationally identical to Expr.eval."""

    @given(expr=numeric_exprs(), a=st.floats(-3, 3), b=st.integers(-3, 3))
    @settings(max_examples=150, deadline=None)
    def test_rowwise_matches_interpreter(self, expr, a, b):
        record = Record(NUMERIC_SCHEMA, (a, b))
        compiled = compile_rowwise(expr, NUMERIC_SCHEMA)
        assert outcome(lambda: compiled((a, b))) == outcome(
            lambda: expr.eval(record)
        )

    @given(expr=predicate_exprs(), a=st.floats(-3, 3), b=st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_filter_matches_interpreter(self, expr, a, b):
        spec = analyze_expr(expr, NUMERIC_SCHEMA)
        compiled = compile_filter(expr, NUMERIC_SCHEMA, spec=spec)
        got = outcome(lambda: compiled([[a], [b]], [True]))
        want = outcome(
            lambda: [bool(expr.eval(Record(NUMERIC_SCHEMA, (a, b))))]
        )
        assert got == want

    def test_division_by_zero_is_the_same_typed_error(self):
        expr = col("a") / col("b")
        compiled = compile_rowwise(expr, NUMERIC_SCHEMA)
        with pytest.raises(ExpressionError, match="division"):
            compiled((1.0, 0))
        with pytest.raises(ExpressionError, match="division"):
            expr.eval(Record(NUMERIC_SCHEMA, (1.0, 0)))

    def test_custom_subclass_falls_back_and_agrees(self):
        expr = Cmp(">", Opaque(), lit(100.0))
        seen = []
        compiled = compile_rowwise(
            expr, SCHEMA, on_fallback=seen.append
        )
        record = Record(SCHEMA, (101.5, 2000, "ibm"))
        assert compiled(record.values) == expr.eval(record)
        assert seen == [expr]


# -- fallback observability ---------------------------------------------------


class TestFallbackObservability:
    def test_observer_counts_and_traces(self):
        counters = ExecutionCounters()
        tracer = Tracer()
        ctx = ExecContext(counters, tracer=tracer)
        with tracer.span("op:select") as span:
            compile_rowwise(OpaquePredicate(), SCHEMA, on_fallback=ctx.interpreted)
        assert counters.exprs_interpreted == 1
        assert [e.name for e in span.events] == ["expr:interpreted"]
        assert "OpaquePredicate" in span.events[0].attrs["expr"]

    def test_observer_without_tracer_still_counts(self):
        counters = ExecutionCounters()
        ExecContext(counters).interpreted(OpaquePredicate())
        assert counters.exprs_interpreted == 1

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_execution_counts_interpreted_predicates(self, table1, mode):
        catalog, _sequences = table1
        plan = optimized("select(ibm, close > 115.0)", catalog)
        replace_chain_predicate(plan, OpaquePredicate())
        counters = ExecutionCounters()
        root = plan.plan
        execute_plan(root, root.span, counters, mode=mode).to_pairs()
        assert counters.exprs_interpreted >= 1

    @pytest.mark.parametrize(
        "source", ["select(ibm, close > 115.0)", "select(compose(ibm as i, hp as h), i_close > h_close)"]
    )
    def test_probers_count_interpreted_predicates(self, table1, source):
        """The chain and join probers compile their predicates the way the
        streams do, so a predicate that cannot be lowered is counted there too."""
        catalog, _sequences = table1
        probe = optimize(compile_query(source, catalog), catalog=catalog).planned.probe_plan
        for node in probe.walk():
            if node.predicate is not None:
                node.predicate = OpaquePredicate()
            node.steps = tuple(
                dataclasses.replace(step, predicate=OpaquePredicate()) if step.predicate else step
                for step in node.steps
            )
        counters = ExecutionCounters()
        prober = build_prober(probe, counters)
        assert counters.exprs_interpreted == 1
        probed = [prober.get(p) for p in probe.span.positions()]
        assert any(record is not NULL for record in probed)
        assert counters.predicate_evals > 0

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_builtin_predicates_never_fall_back(self, table1, mode):
        catalog, _sequences = table1
        plan = optimized("select(ibm, close > 115.0)", catalog)
        counters = ExecutionCounters()
        root = plan.plan
        execute_plan(root, root.span, counters, mode=mode).to_pairs()
        assert counters.exprs_interpreted == 0


# -- the partition cross-check ------------------------------------------------


class TestPartitionCrossCheck:
    def test_custom_expression_blocks_partitioning(self, table1):
        catalog, _sequences = table1
        plan = optimized("select(ibm, close > 115.0)", catalog)
        replace_chain_predicate(plan, OpaquePredicate())
        certificate, report = analyze_partition(plan, 2)
        assert certificate is None
        assert any(
            "effect language" in d.message for d in report.errors
        ), [d.render() for d in report.errors]
        with pytest.raises(PartitionSoundnessError):
            certify(plan, 2)

    def test_modeled_expressions_still_partition(self, table1):
        catalog, _sequences = table1
        plan = optimized("select(ibm, close / volume > 0.01)", catalog)
        certificate, report = analyze_partition(plan, 2)
        assert certificate is not None, [d.render() for d in report.errors]


# -- the CLI ------------------------------------------------------------------


class TestEffectsCheckCli:
    @pytest.fixture
    def prices_csv(self, tmp_path, dense_walk):
        from repro.io import write_csv

        path = tmp_path / "prices.csv"
        write_csv(dense_walk, path)
        return path

    def run(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_certifies_clean_query(self, prices_csv):
        code, text = self.run(
            "effects-check", "--load", f"p={prices_csv}",
            "select(p, close > 100.0)",
        )
        assert code == 0
        assert "certified 1 expression site(s); 1 vectorization-safe" in text
        assert "effects.certificates_issued" in text

    def test_json_payload_shape(self, prices_csv):
        code, text = self.run(
            "effects-check", "--json", "--load", f"p={prices_csv}",
            "select(p, close / volume > 0.01)",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["ok"] is True
        assert set(EFX_RULES) <= set(payload["rules_run"])
        (site,) = payload["certificate"]["sites"]
        assert site["spec"]["exceptions"] == ["div-by-zero"]

    def test_cert_out_round_trips(self, prices_csv, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, _text = self.run(
            "effects-check", "--cert-out", str(cert_path),
            "--load", f"p={prices_csv}", "select(p, close > 100.0)",
        )
        assert code == 0
        restored = EffectCertificate.from_json(cert_path.read_text())
        assert len(restored.sites) == 1

    def test_semantic_error_exits_one(self, prices_csv):
        code, text = self.run(
            "effects-check", "--load", f"p={prices_csv}",
            "select(p, nope > 1.0)",
        )
        assert code == 1

    def test_usage_error_exits_two(self, prices_csv):
        code, text = self.run(
            "effects-check", "--load", f"p={prices_csv}",
            "--span", "backwards", "select(p, close > 100.0)",
        )
        assert code == 2
        assert "error:" in text
