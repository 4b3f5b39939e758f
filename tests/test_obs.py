"""Observability tests: tracer, metrics registry, exporters, analyze.

The contract under test (DESIGN §10):

* spans nest correctly and record deterministic timings under an
  injected clock;
* a disabled (or absent) tracer changes *nothing* — traced and
  untraced runs produce byte-identical answers in both modes;
* every operator of an analyzed plan reports actuals, and every
  estimate/actual error factor is finite;
* fault injections and buffer-pool retries surface as span events;
* both export formats round-trip through their pinned schemas.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import pytest

from repro.errors import ExecutionError, ReproError, TraceFormatError
from repro.algebra import base, col, lit
from repro.catalog import Catalog
from repro.execution import (
    ExecutionCounters,
    execute_plan,
    run_query,
    run_query_detailed,
)
from repro.execution.context import ExecContext
from repro.model import Span
from repro.obs import (
    CATEGORY_ENGINE,
    CATEGORY_OPERATOR,
    CATEGORY_OPTIMIZER,
    HistogramSet,
    Tracer,
    active,
    counters_delta,
    counters_restore,
    counters_snapshot,
    maybe_span,
    metrics,
    operator_reports,
    parse_jsonl,
    render_analyze,
    to_chrome,
    to_jsonl,
    trace_summary,
    validate_chrome_trace,
    validate_jsonl_record,
    write_trace,
)
from repro.optimizer import optimize
from repro.optimizer.plans import PROBE
from repro.storage import FaultPlan, RetryPolicy, StoredSequence
from repro.workloads import StockSpec, generate_stock

SPAN = Span(0, 299)


class FakeClock:
    """A deterministic seconds source advanced by hand."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self):
        return self.seconds

    def advance(self, seconds):
        self.seconds += seconds


def make_query(positions=300, density=0.9, seed=5):
    stock = generate_stock(
        StockSpec("s", Span(0, positions - 1), density, seed=seed)
    )
    return (
        base(stock, "s")
        .select(col("volume") > lit(2000))
        .window("avg", "close", 8, "ma8")
        .query()
    )


def make_stored_query(fault_plan=None, retry_policy=None):
    source = generate_stock(StockSpec("stock", SPAN, 1.0, seed=5))
    stored = StoredSequence.from_sequence(
        "stock",
        source,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        page_capacity=16,
        buffer_pages=8,
    )
    catalog = Catalog()
    catalog.register("stock", stored)
    query = base(stored, "stock").select(col("close") > 50.0).query()
    return query, catalog, stored


# -- tracer ------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_with_deterministic_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", "test") as outer:
            clock.advance(0.001)
            with tracer.span("inner", "test") as inner:
                clock.advance(0.002)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration_us == pytest.approx(2000.0)
        assert outer.duration_us == pytest.approx(3000.0)
        assert outer.busy_us == pytest.approx(3000.0)  # inclusive of children

    def test_begin_parents_to_explicit_span(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.begin("root")
        child = tracer.begin("child", parent=root)
        assert child.parent_id == root.span_id

    def test_events_carry_attrs_and_order(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.begin("op")
        tracer.event(span, "retry", attempts=2)
        clock.advance(0.001)
        tracer.event(span, "fault:transient", page_id=4)
        assert [e.name for e in span.events] == ["retry", "fault:transient"]
        assert span.events[0].attrs == {"attempts": 2}
        assert span.events[1].ts_us > span.events[0].ts_us

    def test_finalize_closes_open_spans_and_runs_finalizers(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.begin("probe")
        ran = []
        tracer.add_finalizer(lambda: ran.append(True))
        tracer.finalize()
        assert ran == [True]
        assert span.end_us is not None
        tracer.finalize()  # idempotent: finalizers ran once
        assert ran == [True]

    def test_finalize_since_spares_what_came_before(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.begin("outer")
        ran = []
        tracer.add_finalizer(lambda: ran.append("outer"))
        since = len(tracer.spans)
        inner = tracer.begin("inner")
        tracer.add_finalizer(lambda: ran.append("inner"))
        tracer.finalize(since=since)
        assert ran == ["inner"]
        assert inner.end_us is not None and outer.end_us is None
        tracer.finalize()
        assert ran == ["inner", "outer"]
        assert outer.end_us is not None

    def test_active_gate(self):
        assert not active(None)
        assert not active(Tracer(enabled=False))
        assert active(Tracer())

    def test_maybe_span_noop_when_disabled(self):
        with maybe_span(None, "x") as span:
            assert span is None
        tracer = Tracer(clock=FakeClock())
        with maybe_span(tracer, "x", "cat", k=1) as span:
            assert span is not None and span.attrs == {"k": 1}

    def test_row_stride_validated(self):
        with pytest.raises(ReproError):
            Tracer(row_stride=0)

    def test_summary_digest(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("op", CATEGORY_OPERATOR, rows_emitted=5):
            clock.advance(0.004)
        digest = trace_summary(tracer)
        assert digest["spans"] == 1
        assert digest["top_operators"][0]["name"] == "op"
        assert digest["busy_us_by_category"][CATEGORY_OPERATOR] > 0


# -- metrics -----------------------------------------------------------------


class TestCounterHelpers:
    def test_snapshot_restore_round_trip(self):
        counters = ExecutionCounters()
        counters.records_emitted = 12
        counters.batches_built = 3
        before = counters_snapshot(counters)
        counters.records_emitted = 99
        counters.batches_built = 7
        counters_restore(counters, before)
        assert counters.records_emitted == 12
        assert counters.batches_built == 3

    def test_restore_rejects_unknown_field(self):
        with pytest.raises(ReproError):
            counters_restore(ExecutionCounters(), {"no_such_field": 1})

    def test_snapshot_rejects_plain_objects(self):
        with pytest.raises(ReproError):
            counters_snapshot(object())

    def test_delta(self):
        delta = counters_delta({"a": 5, "b": 2}, {"a": 3})
        assert delta == {"a": 2, "b": 2}

    def test_dataclass_snapshot_method_uses_helper(self):
        counters = ExecutionCounters()
        counters.predicate_evals = 4
        copy = counters.snapshot()
        assert copy.predicate_evals == 4
        copy.predicate_evals = 9
        assert counters.predicate_evals == 4  # independent copy


class TestMetricsReadOut:
    def test_collect_is_stable_sorted(self):
        counters = ExecutionCounters()
        counters.records_emitted = 7
        hists = HistogramSet()
        hists.observe("lat", 4.0)
        collected = metrics.collect(
            guard={"elapsed_seconds": 0.5}, flight=hists, execution=counters
        )
        names = list(collected)
        assert names == sorted(names)
        assert collected["execution.records_emitted"] == 7
        assert collected["guard.elapsed_seconds"] == 0.5
        assert collected["flight.lat.count"] == 1
        # The read-out copies: the dataclass stays the source of truth.
        counters.records_emitted += 1
        assert collected["execution.records_emitted"] == 7
        assert metrics.collect(execution=counters)["execution.records_emitted"] == 8

    def test_collect_rejects_unsupported_sources(self):
        with pytest.raises(ReproError):
            metrics.collect(x=object())

    def test_render_lines(self):
        collected = metrics.collect(a={"n": 2}, b={"ratio": 0.25})
        assert metrics.render(collected, indent="  ") == "  a.n = 2\n  b.ratio = 0.25"


# -- schema + exporters ------------------------------------------------------


def forced_plans():
    """Plans the optimizer rarely picks, built by hand, keyed by shape.

    Join-Strategy-A in both directions over a chain-over-scan driver,
    the forced-naive strategy of every non-unit-scope operator, and a
    streamed materialize — each as ``(plan, window)``.
    """
    stock = generate_stock(StockSpec("s", SPAN, 0.9, seed=5))
    other = generate_stock(StockSpec("o", SPAN, 0.5, seed=6))
    selected = base(stock, "s").select(col("volume") > lit(2000)).project("close")
    joined = optimize(
        selected.compose(base(other, "o").project("volume")).query()
    )
    join = joined.plan.plan
    while join.kind not in ("lockstep", "stream-probe", "probe-stream"):
        join = join.children[0]
    left, right = join.children

    def probed(plan):
        if plan.kind == "scan":
            return replace(plan, kind="probe-source", mode=PROBE)
        return replace(
            plan, mode=PROBE, children=tuple(probed(c) for c in plan.children)
        )

    window = joined.plan.output_span
    plans = {
        "stream-probe": (
            replace(join, kind="stream-probe", children=(left, probed(right))),
            window,
        ),
        "probe-stream": (
            replace(join, kind="probe-stream", children=(probed(left), right)),
            window,
        ),
    }
    for shape, query in (
        ("window-agg", selected.window("avg", "close", 5).query()),
        ("value-offset", selected.value_offset(-2).query()),
        ("cumulative-agg", selected.cumulative("sum", "close").query()),
    ):
        result = optimize(query)
        plan = result.plan.plan
        assert plan.kind == shape
        plans[f"{shape}(naive)"] = (
            replace(
                plan,
                strategy="naive",
                cache_size=None,
                children=(probed(plan.children[0]),),
            ),
            result.plan.output_span,
        )
    result = optimize(selected.query())
    plan = result.plan.plan
    plans["materialize"] = (
        replace(plan, kind="materialize", node=None, steps=(), children=(plan,)),
        result.plan.output_span,
    )
    return plans


def traced_run(mode="row", **tracer_kwargs):
    tracer = Tracer(**tracer_kwargs)
    result = run_query_detailed(make_query(), mode=mode, tracer=tracer)
    return tracer, result


class TestExporters:
    def test_jsonl_round_trip(self):
        tracer, _ = traced_run()
        records = parse_jsonl(to_jsonl(tracer))
        assert records[0]["type"] == "trace"
        spans = [r for r in records if r["type"] == "span"]
        assert len(spans) == len(tracer.spans)

    def test_jsonl_requires_header_first(self):
        tracer, _ = traced_run()
        lines = to_jsonl(tracer).splitlines()
        with pytest.raises(TraceFormatError):
            parse_jsonl("\n".join(lines[1:]))

    def test_jsonl_rejects_unknown_version(self):
        tracer, _ = traced_run()
        lines = to_jsonl(tracer).splitlines()
        header = json.loads(lines[0])
        header["version"] = 999
        lines[0] = json.dumps(header)
        with pytest.raises(TraceFormatError, match="version"):
            parse_jsonl("\n".join(lines))

    def test_jsonl_schema_rejects_bad_records(self):
        validate_jsonl_record(
            {"type": "event", "span_id": 1, "name": "x", "ts_us": 0.0, "attrs": {}}
        )
        with pytest.raises(TraceFormatError):
            validate_jsonl_record({"type": "span"})  # missing fields
        with pytest.raises(TraceFormatError):
            validate_jsonl_record({"type": "nonsense"})
        with pytest.raises(TraceFormatError):
            validate_jsonl_record([])  # not even an object

    def test_chrome_document_validates_and_nests(self):
        tracer, _ = traced_run()
        document = json.loads(json.dumps(to_chrome(tracer)))
        validate_chrome_trace(document)
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(tracer.spans)
        names = {e["name"] for e in slices}
        assert "execute" in names and "optimize" in names

    def test_chrome_schema_rejects_missing_fields(self):
        with pytest.raises(TraceFormatError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})

    def test_write_trace_paths_and_fileobjs(self, tmp_path):
        tracer, _ = traced_run()
        path = tmp_path / "t.json"
        write_trace(tracer, str(path), fmt="chrome")
        validate_chrome_trace(json.loads(path.read_text()))
        buffer = io.StringIO()
        write_trace(tracer, buffer, fmt="jsonl")
        assert parse_jsonl(buffer.getvalue())[0]["type"] == "trace"

    def test_write_trace_unknown_format(self):
        with pytest.raises(TraceFormatError, match="unknown trace format"):
            write_trace(Tracer(), io.StringIO(), fmt="xml")


# -- traced execution --------------------------------------------------------


class TestTracedExecution:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_traced_run_is_identical_to_untraced(self, mode):
        query = make_query()
        bare = run_query(query, mode=mode).to_pairs()
        disabled = run_query(
            query, mode=mode, tracer=Tracer(enabled=False)
        ).to_pairs()
        traced = run_query(query, mode=mode, tracer=Tracer()).to_pairs()
        assert disabled == bare
        assert traced == bare

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_every_operator_gets_a_span(self, mode):
        tracer, result = traced_run(mode=mode)
        traced = [("optimized", result.optimization.plan.plan, tracer)]
        for shape, (plan, window) in forced_plans().items():
            tracer = Tracer()
            execute_plan(plan, window, mode=mode, tracer=tracer)
            traced.append((shape, plan, tracer))
        for shape, plan, tracer in traced:
            spanned = {s.attrs.get("plan_id") for s in tracer.operator_spans()}
            missing = [n.kind for n in plan.walk() if id(n) not in spanned]
            assert not missing, f"{shape}: no span for {missing}"

    def test_operator_spans_nest_under_execute_root(self):
        tracer, _ = traced_run(mode="row")
        roots = tracer.find("execute")
        assert len(roots) == 1
        by_id = {s.span_id: s for s in tracer.spans}
        for span in tracer.operator_spans():
            # Walk up: every operator span reaches the execute root.
            node = span
            while node.parent_id is not None:
                node = by_id[node.parent_id]
            assert node is roots[0]

    def test_optimizer_steps_traced(self):
        tracer, _ = traced_run()
        steps = [
            s.name for s in tracer.spans if s.category == CATEGORY_OPTIMIZER
        ]
        assert steps[0] == "optimize"
        assert ["rewrite", "annotate", "blocks", "plan-gen", "selection"] == steps[1:]

    def test_row_counts_exact_despite_sampling(self):
        tracer, result = traced_run(mode="row", row_stride=8)
        root_span = tracer.find("execute")[0]
        assert root_span.attrs["records_emitted"] == len(result.output)
        for span in tracer.operator_spans():
            assert span.attrs["rows_emitted"] >= 0
            assert span.end_us is not None

    def test_stride_one_measures_every_pull(self):
        tracer, _ = traced_run(mode="row", row_stride=1)
        for span in tracer.operator_spans():
            if "pulls" in span.attrs:
                assert span.attrs["sampled_pulls"] == span.attrs["pulls"]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        run_query(make_query(), mode="row", tracer=tracer)
        assert tracer.spans == []

    def test_execute_plan_accepts_tracer(self):
        result = optimize(make_query())
        plan, window = result.plan.plan, result.plan.output_span
        tracer = Tracer()
        output = execute_plan(
            plan, window, ExecutionCounters(), mode="row", tracer=tracer
        )
        untraced = execute_plan(plan, window, ExecutionCounters(), mode="row")
        assert output.to_pairs() == untraced.to_pairs()
        assert tracer.operator_spans()

    def test_leaf_spans_attribute_storage_pages(self):
        query, catalog, stored = make_stored_query()
        stored.flush_buffer()
        tracer = Tracer()
        run_query_detailed(query, catalog=catalog, mode="row", tracer=tracer)
        leaf_spans = [
            s for s in tracer.operator_spans() if "pages_read" in s.attrs
        ]
        assert leaf_spans
        touched = sum(
            s.attrs["pages_read"] + s.attrs["buffer_hits"] for s in leaf_spans
        )
        assert touched > 0

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_fault_run_emits_retry_and_fault_events(self, mode):
        fault_plan = FaultPlan(seed=9, transient_rate=0.2)
        query, catalog, _ = make_stored_query(
            fault_plan=fault_plan, retry_policy=RetryPolicy(max_attempts=6)
        )
        tracer = Tracer()
        result = run_query_detailed(
            query, catalog=catalog, mode=mode, tracer=tracer
        )
        assert len(result.output) > 0
        events = [
            event
            for span in tracer.operator_spans()
            for event in span.events
        ]
        names = {event.name for event in events}
        assert "retry" in names
        assert any(name.startswith("fault:") for name in names)

    def test_fallback_emits_event_and_keeps_answer(self, monkeypatch):
        def broken(ctx, plan, window):
            ctx.counters.batches_built += 2
            raise ExecutionError("synthetic batch bug")
            yield  # pragma: no cover

        monkeypatch.setattr(ExecContext, "batches", broken)
        query, catalog, _ = make_stored_query()
        tracer = Tracer()
        result = run_query_detailed(
            query,
            catalog=catalog,
            mode="batch",
            fallback=True,
            tracer=tracer,
        )
        assert result.counters.fallbacks_taken == 1
        assert result.counters.batches_built == 0  # restored via the registry
        root_span = tracer.find("execute")[0]
        fallback_events = [e for e in root_span.events if e.name == "fallback"]
        assert len(fallback_events) == 1
        assert fallback_events[0].attrs["error"] == "ExecutionError"
        assert fallback_events[0].attrs["rung"] == "row-oracle"


# -- EXPLAIN ANALYZE ---------------------------------------------------------


class TestAnalyze:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_every_operator_reports_finite_actuals(self, mode):
        result = run_query_detailed(make_query(), mode=mode, analyze=True)
        assert result.tracer is not None
        reports = operator_reports(result.optimization.plan.plan, result.tracer)
        assert reports
        for report in reports:
            assert report.executed, report.plan.kind
            assert report.factor > 0
            assert report.factor == report.factor  # not NaN
            assert report.factor != float("inf")
            assert report.busy_us >= 0

    def test_render_contains_estimates_and_actuals(self):
        result = run_query_detailed(make_query(), mode="row", analyze=True)
        text = result.render_analyze()
        assert "-- estimated cost" in text
        assert "actual" in text and "ms wall" in text
        assert "-- optimizer: rewrite=" in text
        assert "factor=" in text
        assert "hits=" in text
        # One actual line per plan node.
        nodes = list(result.optimization.plan.plan.walk())
        assert text.count("actual:") == len(nodes)

    def test_analyze_result_returns_runresult_with_output(self):
        result = run_query(make_query(), mode="row", analyze=True)
        assert hasattr(result, "output") and hasattr(result, "render_analyze")
        plain = run_query(make_query(), mode="row")
        assert result.output.to_pairs() == plain.to_pairs()

    def test_render_analyze_without_trace_raises(self):
        result = run_query_detailed(make_query(), mode="row")
        with pytest.raises(ExecutionError, match="no trace"):
            result.render_analyze()

    def test_unexecuted_nodes_are_reported_as_such(self):
        result = run_query_detailed(make_query(), mode="row", analyze=True)
        tracer = Tracer()  # empty: nothing executed against it
        reports = operator_reports(result.optimization.plan.plan, tracer)
        assert all(not report.executed for report in reports)
        text = render_analyze(result.optimization.plan, tracer)
        assert "(never executed)" in text

    def test_engine_category_constant(self):
        result = run_query_detailed(make_query(), mode="row", analyze=True)
        root = result.tracer.find("execute")[0]
        assert root.category == CATEGORY_ENGINE
        assert root.attrs["mode"] == "row"


# -- CLI ---------------------------------------------------------------------


def run_cli(*argv):
    from repro.cli import main

    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def prices_csv(tmp_path):
    from repro.io import write_csv

    sequence = generate_stock(StockSpec("p", Span(0, 99), 0.9, seed=81))
    path = tmp_path / "prices.csv"
    write_csv(sequence, path)
    return str(path)


class TestCliObservability:
    def test_analyze_flag(self, prices_csv):
        code, text = run_cli(
            "--load", f"prices={prices_csv}", "--analyze", "--limit", "2",
            "window(prices, avg, close, 6)",
        )
        assert code == 0
        assert "-- estimated cost" in text and "ms wall" in text
        assert "factor=" in text
        assert "window-agg" in text

    def test_run_alias(self, prices_csv):
        code, text = run_cli(
            "run", "--load", f"prices={prices_csv}", "--limit", "1", "prices"
        )
        assert code == 0

    def test_explain_metrics_block_is_stable(self, prices_csv):
        argv = (
            "--load", f"prices={prices_csv}", "--explain", "--limit", "1",
            "--timeout", "60", "window(prices, avg, close, 6)",
        )
        code_a, text_a = run_cli(*argv)
        code_b, text_b = run_cli(*argv)
        assert code_a == code_b == 0
        assert "metrics:" in text_a

        def metric_lines(text):
            lines = []
            collecting = False
            for line in text.splitlines():
                if line == "metrics:":
                    collecting = True
                    continue
                if collecting:
                    if not line.startswith("  "):
                        break
                    # Guard wall-clock gauges vary run to run; every
                    # counting metric must not.
                    if not line.startswith("  guard.elapsed"):
                        lines.append(line)
            return lines

        lines = metric_lines(text_a)
        assert lines == metric_lines(text_b)
        names = [line.split(" = ")[0] for line in lines]
        assert names == sorted(names)
        assert any(name == "  execution.records_emitted" for name in names)
        assert any(name == "  guard.records_emitted" for name in names)

    def test_trace_subcommand_chrome(self, prices_csv, tmp_path):
        out_path = tmp_path / "trace.json"
        code, text = run_cli(
            "trace", "--load", f"prices={prices_csv}", "--out", str(out_path),
            "window(prices, avg, close, 6)",
        )
        assert code == 0
        assert "Perfetto" in text or "perfetto" in text
        document = json.loads(out_path.read_text())
        validate_chrome_trace(document)
        assert any(e["name"] == "execute" for e in document["traceEvents"])

    def test_trace_subcommand_jsonl(self, prices_csv, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code, _ = run_cli(
            "trace", "--load", f"prices={prices_csv}", "--format", "jsonl",
            "--out", str(out_path), "prices",
        )
        assert code == 0
        records = parse_jsonl(out_path.read_text())
        assert records[0]["type"] == "trace"

    def test_trace_requires_out(self, prices_csv):
        with pytest.raises(SystemExit) as err:
            run_cli("trace", "--load", f"prices={prices_csv}", "prices")
        assert err.value.code == 2

    def test_trace_rejects_bad_query(self, prices_csv, tmp_path):
        code, text = run_cli(
            "trace", "--load", f"prices={prices_csv}",
            "--out", str(tmp_path / "t.json"), "nonsense(((",
        )
        assert code == 1
        assert "error" in text.lower()
