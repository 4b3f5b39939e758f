"""Tests for the continuous-profiling layer (DESIGN §15).

Five halves:

* **histograms** — the fixed log-scale buckets give deterministic,
  bounded-error quantiles; merge is exactly "one histogram saw both
  streams"; the JSON encoding round-trips;
* **the flight recorder** — FIFO ring eviction, slow-query promotion
  (one-shot, re-armed by a still-slow traced run), operator sampling
  cadence, and the JSON Lines artifact against its pinned schema;
* **engine integration** — ``run_query_detailed(recorder=...)``
  profiles successes and typed failures alike, stamps guard verdicts,
  and attaches top operator self-times on traced runs;
* **parallel determinism** — counter and histogram merges produce an
  identical metrics collection across worker counts {2, 4} for a fixed
  partition certificate (the satellite contract);
* **the CLI** — ``repro profile`` / ``repro stats`` /
  ``repro trace --with-metrics`` surface all of the above.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.algebra import base
from repro.analysis.partition import certify
from repro.catalog import Catalog
from repro.errors import (
    ReproError,
    ResourceBudgetExceededError,
    TraceFormatError,
)
from repro.execution import (
    ExecutionCounters,
    QueryGuard,
    execute_parallel,
    run_query_detailed,
)
from repro.model import Span
from repro.obs import (
    BUCKET_BOUNDS,
    FlightRecorder,
    HistogramSet,
    LogHistogram,
    metrics,
    QueryProfile,
    Tracer,
    bucket_index,
    fingerprint_query,
    parse_profiles,
    profiles_to_jsonl,
    validate_profile_record,
)
from repro.obs.hist import NUM_BUCKETS
from repro.optimizer import optimize
from repro.lang import compile_query
from repro.workloads import StockSpec, generate_stock


def make_profile(**overrides) -> QueryProfile:
    """A small, valid profile with overridable fields."""
    fields = dict(
        fingerprint="abcdef123456",
        query="Query(window(s, avg, close, 6))",
        mode="batch",
        parallel="off",
        workers=None,
        batch_size=1024,
        duration_us=1500.0,
    )
    fields.update(overrides)
    return QueryProfile(**fields)


class TestLogHistogram:
    def test_bucket_layout(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(1.0) == 0
        assert bucket_index(-5.0) == 0
        assert bucket_index(BUCKET_BOUNDS[-1]) == NUM_BUCKETS - 2
        assert bucket_index(BUCKET_BOUNDS[-1] * 2) == NUM_BUCKETS - 1
        # Boundaries land in the bucket they close (half-open below).
        for i in (1, 8, 40):
            assert bucket_index(BUCKET_BOUNDS[i]) == i

    def test_exact_aggregates(self):
        histogram = LogHistogram("t")
        for value in (3.0, 30.0, 300.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(333.0)
        assert histogram.mean == pytest.approx(111.0)
        assert histogram.minimum == 3.0
        assert histogram.maximum == 300.0

    def test_quantile_bounded_error(self):
        histogram = LogHistogram("t")
        values = [float(v) for v in range(1, 10_001)]
        for value in values:
            histogram.observe(value)
        # One-bucket resolution: within ~15% of the exact quantile.
        for q in (0.5, 0.9, 0.99):
            exact = values[int(q * len(values)) - 1]
            assert histogram.quantile(q) == pytest.approx(exact, rel=0.15)
        # Clamped to the observed range at the extremes.
        assert histogram.quantile(0.0) >= histogram.minimum
        assert histogram.quantile(1.0) == histogram.maximum

    def test_quantile_validation_and_empty(self):
        histogram = LogHistogram("t")
        assert histogram.quantile(0.5) == 0.0
        histogram.observe(10.0)
        for bad in (-0.1, 1.1):
            with pytest.raises(ReproError):
                histogram.quantile(bad)

    def test_merge_equals_single_stream(self):
        left, right, both = (LogHistogram("t") for _ in range(3))
        for i, value in enumerate(float(3 ** k % 997 + 1) for k in range(200)):
            (left if i % 2 else right).observe(value)
            both.observe(value)
        left.merge_from(right)
        assert left.summary() == both.summary()
        assert left.buckets == both.buckets

    def test_dict_round_trip(self):
        histogram = LogHistogram("t")
        for value in (0.5, 7.0, 7e8, 5e9):
            histogram.observe(value)
        clone = LogHistogram.from_dict(
            json.loads(json.dumps(histogram.to_dict()))
        )
        assert clone.summary() == histogram.summary()
        assert clone.buckets == histogram.buckets

    def test_from_dict_rejects_foreign_bucket(self):
        with pytest.raises(ReproError):
            LogHistogram.from_dict(
                {"name": "t", "count": 1, "buckets": {str(NUM_BUCKETS): 1}}
            )


class TestHistogramSet:
    def test_observe_get_iterate(self):
        hists = HistogramSet()
        assert not hists
        hists.observe("b", 2.0)
        hists.observe("a", 1.0)
        hists.observe("a", 3.0)
        assert len(hists) == 2
        assert hists.get("a").count == 2
        assert hists.get("missing") is None
        assert [h.name for h in hists] == ["a", "b"]
        assert set(hists.as_dict()) == {"a", "b"}

    def test_merge_from(self):
        ours, theirs = HistogramSet(), HistogramSet()
        ours.observe("shared", 1.0)
        theirs.observe("shared", 100.0)
        theirs.observe("theirs-only", 5.0)
        ours.merge_from(theirs)
        assert ours.get("shared").count == 2
        assert ours.get("shared").maximum == 100.0
        assert ours.get("theirs-only").count == 1


class TestFlightRecorder:
    def test_knob_validation(self):
        for capacity in (0, -1, True, 1.5):
            with pytest.raises(ReproError):
                FlightRecorder(capacity)
        with pytest.raises(ReproError):
            FlightRecorder(slow_threshold_us=0)
        for op_sample in (-1, True, 0.5):
            with pytest.raises(ReproError):
                FlightRecorder(op_sample=op_sample)

    def test_fifo_eviction(self):
        recorder = FlightRecorder(3)
        for i in range(5):
            recorder.record(make_profile(duration_us=float(i + 1)))
        assert recorder.recorded == 5
        assert recorder.evicted == 2
        assert len(recorder) == 3
        # Oldest-first retention: runs 3, 4, 5 survive.
        assert [p.duration_us for p in recorder.profiles()] == [3.0, 4.0, 5.0]
        assert [p.duration_us for p in recorder.slowest(2)] == [5.0, 4.0]

    def test_slow_promotion_is_one_shot(self):
        recorder = FlightRecorder(8, slow_threshold_us=1000.0)
        fast = recorder.record(make_profile(duration_us=10.0))
        assert not fast.slow
        assert not recorder.wants_trace(fast.fingerprint)
        slow = recorder.record(make_profile(duration_us=5000.0))
        assert slow.slow
        assert recorder.wants_trace(slow.fingerprint)
        # Consumed: the promoted run clears the debt.
        assert not recorder.wants_trace(slow.fingerprint)
        # A still-slow *traced* run does not re-promote (evidence taken).
        recorder.record(make_profile(duration_us=5000.0, traced=True))
        assert not recorder.wants_trace(slow.fingerprint)

    def test_operator_sampling_cadence(self):
        recorder = FlightRecorder(8, op_sample=3)
        picks = [recorder.sample_operators() for _ in range(9)]
        assert picks == [False, False, True] * 3
        assert not any(
            FlightRecorder(8).sample_operators() for _ in range(10)
        )

    def test_record_feeds_histograms(self):
        recorder = FlightRecorder(8)
        recorder.record(
            make_profile(
                duration_us=2000.0,
                records_emitted=50,
                pages_read=7,
                top_operators=[{"name": "scan", "busy_us": 900.0}],
            )
        )
        recorder.record(make_profile(duration_us=10.0, error="QueryTimeoutError"))
        assert recorder.hists.get("query.duration_us").count == 2
        assert recorder.hists.get("query.records").maximum == 50
        assert recorder.hists.get("query.pages").maximum == 7
        assert recorder.hists.get("query.errors").count == 1
        assert recorder.hists.get("operator.scan.busy_us").count == 1
        per_query = HistogramSet()
        per_query.observe("partition.duration_us", 123.0)
        recorder.record(make_profile(), hists=per_query)
        assert recorder.hists.get("partition.duration_us").count == 1

    def test_summary_and_errors(self):
        recorder = FlightRecorder(4, slow_threshold_us=100.0)
        recorder.record(make_profile(duration_us=5.0))
        recorder.record(make_profile(duration_us=500.0))
        recorder.record(make_profile(error="CorruptPageError"))
        assert [p.error for p in recorder.errors()] == ["CorruptPageError"]
        summary = recorder.summary()
        assert summary["recorded"] == 3
        assert summary["retained"] == 3
        assert summary["slow"] == 2  # 500us wall and the errored 1500us run
        assert summary["errors"] == 1
        assert summary["duration_us"]["count"] == 3

    def test_jsonl_round_trip(self):
        profiles = [
            make_profile(duration_us=42.5),
            make_profile(
                error="QueryTimeoutError",
                guard_verdict="QueryTimeoutError",
                traced=True,
                top_operators=[{"name": "scan", "busy_us": 1.0}],
            ),
        ]
        parsed = parse_profiles(profiles_to_jsonl(profiles))
        assert [p.to_dict() for p in parsed] == [p.to_dict() for p in profiles]

    def test_parse_rejects_bad_artifacts(self):
        with pytest.raises(TraceFormatError):
            parse_profiles("not json\n")
        with pytest.raises(TraceFormatError):
            parse_profiles('{"type": "profile"}\n')  # schema violation
        with pytest.raises(TraceFormatError):
            parse_profiles(
                json.dumps(make_profile().to_dict()) + "\n"
            )  # no header
        with pytest.raises(TraceFormatError):
            parse_profiles('{"type": "profiles", "version": 99, "count": 0}\n')

    def test_validate_profile_record(self):
        record = make_profile().to_dict()
        validate_profile_record(record)
        del record["duration_us"]
        with pytest.raises(TraceFormatError):
            validate_profile_record(record)


@pytest.fixture(scope="module")
def stock_catalog():
    stock = generate_stock(StockSpec("s", Span(0, 399), 0.9, seed=13))
    catalog = Catalog()
    catalog.register("s", stock)
    return catalog


class TestEngineIntegration:
    QUERY = "window(select(s, volume > 2000), avg, close, 6)"

    def run(self, catalog, recorder, **kwargs):
        query = compile_query(self.QUERY, catalog)
        return run_query_detailed(
            query, catalog=catalog, recorder=recorder, **kwargs
        )

    def test_success_profiled(self, stock_catalog):
        recorder = FlightRecorder(8)
        result = self.run(stock_catalog, recorder)
        (profile,) = recorder.profiles()
        assert profile.ok
        assert not profile.traced
        assert profile.mode == "batch"
        assert profile.records_emitted == len(result.output)
        assert profile.duration_us > 0
        assert profile.fingerprint == fingerprint_query(
            compile_query(self.QUERY, stock_catalog)
        )
        assert recorder.hists.get("query.duration_us").count == 1

    def test_slow_run_promotes_next_to_tracing(self, stock_catalog):
        recorder = FlightRecorder(8, slow_threshold_us=0.001)
        self.run(stock_catalog, recorder)
        self.run(stock_catalog, recorder)
        first, second = recorder.profiles()
        assert first.slow and not first.traced
        assert second.traced
        assert second.top_operators
        assert {"name", "busy_us", "rows", "spans"} <= set(
            second.top_operators[0]
        )
        assert any(
            h.name.startswith("operator.") for h in recorder.hists
        )

    def test_op_sample_traces_nth_run(self, stock_catalog):
        recorder = FlightRecorder(8, op_sample=2)
        for _ in range(4):
            self.run(stock_catalog, recorder)
        assert [p.traced for p in recorder.profiles()] == [
            False, True, False, True,
        ]

    def test_explicit_tracer_wins_over_sampling(self, stock_catalog):
        recorder = FlightRecorder(8, op_sample=1)
        tracer = Tracer()
        self.run(stock_catalog, recorder, tracer=tracer)
        (profile,) = recorder.profiles()
        assert profile.traced
        assert tracer.spans  # the caller's tracer was used, not a private one

    def test_guard_failure_profiled_with_verdict(self, stock_catalog):
        recorder = FlightRecorder(8)
        with pytest.raises(ResourceBudgetExceededError):
            self.run(
                stock_catalog, recorder, guard=QueryGuard(max_records=5)
            )
        (profile,) = recorder.profiles()
        assert profile.error == "ResourceBudgetExceededError"
        assert profile.guard_verdict == "ResourceBudgetExceededError"
        assert not profile.ok
        assert recorder.hists.get("query.errors").count == 1

    def test_parallel_run_profiles_partitions(self, stock_catalog):
        recorder = FlightRecorder(8)
        result = self.run(
            stock_catalog, recorder, parallel="force", workers=2
        )
        (profile,) = recorder.profiles()
        assert profile.parallel == "force"
        assert profile.workers == 2
        assert profile.records_emitted == len(result.output)
        partitions = recorder.hists.get("partition.records")
        assert partitions is not None
        assert partitions.count == result.counters.partitions_executed
        assert recorder.hists.get("partition.duration_us").count == partitions.count


class TestParallelDeterminism:
    """Counter + histogram merges are worker-count invariant (satellite)."""

    #: Histograms whose values are wall-clock durations: compared by
    #: observation count only — the values legitimately vary run to run.
    DURATION_PREFIXES = ("flight.partition.duration_us", "flight.operator.")

    def collect(self, plan, certificate, workers):
        counters = ExecutionCounters()
        hists = HistogramSet()
        answer = execute_parallel(
            plan, certificate, workers=workers, counters=counters, hists=hists
        )
        return list(answer.iter_nonnull()), metrics.collect(
            execution=counters, flight=hists
        )

    @pytest.mark.parametrize(
        "source",
        (
            "window(ibm, avg, close, 6, ma6)",
            "select(ibm, close > 115.0)",
        ),
    )
    def test_identical_collect_across_worker_counts(self, table1, source):
        catalog, _sequences = table1
        plan = optimize(
            compile_query(source, catalog), catalog=catalog
        ).plan
        certificate = certify(plan, 4)
        answer2, collected2 = self.collect(plan, certificate, workers=2)
        answer4, collected4 = self.collect(plan, certificate, workers=4)
        assert answer2 == answer4
        assert set(collected2) == set(collected4)

        def is_duration(name: str) -> bool:
            return any(name.startswith(p) for p in self.DURATION_PREFIXES)

        stable2 = {k: v for k, v in collected2.items() if not is_duration(k)}
        stable4 = {k: v for k, v in collected4.items() if not is_duration(k)}
        assert stable2 == stable4
        counts2 = {
            k: v
            for k, v in collected2.items()
            if is_duration(k) and k.endswith(".count")
        }
        counts4 = {
            k: v
            for k, v in collected4.items()
            if is_duration(k) and k.endswith(".count")
        }
        assert counts2 == counts4
        # The invariant is non-vacuous: partition histograms were kept.
        assert collected2["flight.partition.records.count"] == 4


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


class TestCliProfile:
    QUERY = "window(select(prices, volume > 2000), avg, close, 4)"

    def test_profile_text(self, prices_csv):
        code, text = run_cli(
            "profile", "--load", f"prices={prices_csv}",
            "--repeat", "4", "--slow", "2", self.QUERY,
        )
        assert code == 0
        assert "profiled 4 run(s)" in text
        assert "duration: p50" in text
        assert "slowest 2:" in text

    def test_profile_json_validates(self, prices_csv):
        code, text = run_cli(
            "profile", "--load", f"prices={prices_csv}",
            "--repeat", "3", "--op-sample", "2", "--json", self.QUERY,
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["version"] == 1
        assert payload["summary"]["recorded"] == 3
        assert len(payload["profiles"]) == 3
        for record in payload["profiles"]:
            validate_profile_record(record)
        assert [p["traced"] for p in payload["profiles"]] == [
            False, True, False,
        ]
        assert "query.duration_us" in payload["histograms"]

    def test_profile_out_artifact(self, prices_csv, tmp_path):
        artifact = tmp_path / "profiles.jsonl"
        code, text = run_cli(
            "profile", "--load", f"prices={prices_csv}",
            "--repeat", "2", "--out", str(artifact), self.QUERY,
        )
        assert code == 0
        assert f"wrote 2 profile(s) -> {artifact}" in text
        parsed = parse_profiles(artifact.read_text())
        assert len(parsed) == 2
        assert all(p.ok for p in parsed)

    def test_profile_usage_errors(self, prices_csv):
        assert run_cli(
            "profile", "--load", f"prices={prices_csv}",
            "--repeat", "0", self.QUERY,
        )[0] == 2
        assert run_cli(
            "profile", "--load", f"prices={prices_csv}",
            "--capacity", "0", self.QUERY,
        )[0] == 2
        assert run_cli(
            "profile", "--load", "bad-spec", self.QUERY,
        )[0] == 2

    def test_profile_bad_query(self, prices_csv):
        code, text = run_cli(
            "profile", "--load", f"prices={prices_csv}", "nosuch(prices)",
        )
        assert code == 1
        assert "error:" in text

    def test_stats_renders_percentiles(self, prices_csv):
        code, text = run_cli(
            "stats", "--load", f"prices={prices_csv}",
            "--repeat", "3", self.QUERY,
        )
        assert code == 0
        assert "stats over 3 run(s)" in text
        assert "execution.records_emitted" in text
        assert "flight.query.duration_us.p50" in text
        assert "flight.query.duration_us.p99" in text

    def test_trace_with_metrics(self, prices_csv, tmp_path):
        destination = tmp_path / "trace.jsonl"
        code, text = run_cli(
            "trace", "--load", f"prices={prices_csv}",
            "--out", str(destination), "--format", "jsonl",
            "--with-metrics", self.QUERY,
        )
        assert code == 0
        assert "+metrics" in text
        records = [
            json.loads(line)
            for line in destination.read_text().splitlines()
        ]
        metric_records = [r for r in records if r["type"] == "metrics"]
        assert len(metric_records) == 1
        assert "execution.records_emitted" in metric_records[0]["values"]
