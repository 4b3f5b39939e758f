"""Observability: tracing, metrics, profiles, EXPLAIN ANALYZE, exporters.

The subsystem has six layers, each usable on its own:

* :mod:`repro.obs.tracer` — the span tracer the optimizer and both
  executors thread through themselves;
* :mod:`repro.obs.metrics` — the read-out over the counter
  dataclasses, gauges and histogram sets (``metrics.collect`` +
  ``metrics.render``; use it as a module), and the generic counter
  snapshot/restore/delta helpers;
* :mod:`repro.obs.hist` — fixed-bucket log-scale histograms with
  p50/p90/p99 estimation, mergeable by bucket-wise addition;
* :mod:`repro.obs.profile` — the flight recorder: a bounded ring of
  per-query profiles with slow-query promotion to full tracing;
* :mod:`repro.obs.analyze` — EXPLAIN ANALYZE: the plan tree joined
  with per-operator actuals and estimate/actual error factors;
* :mod:`repro.obs.export` / :mod:`repro.obs.schema` — JSON Lines and
  Chrome ``trace_event`` serializations with a pinned, validated
  schema (traces and profile artifacts alike).
"""

from repro.obs.analyze import (
    FACTOR_EPSILON,
    OperatorReport,
    actual_cost_units,
    operator_reports,
    render_analyze,
)
from repro.obs.export import (
    TRACE_FORMATS,
    parse_jsonl,
    to_chrome,
    to_jsonl,
    write_trace,
)
from repro.obs.hist import (
    BUCKET_BOUNDS,
    BUCKETS_PER_DECADE,
    HistogramSet,
    LogHistogram,
    bucket_index,
)
from repro.obs.metrics import counters_delta, counters_restore, counters_snapshot
from repro.obs.profile import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    QueryProfile,
    fingerprint_query,
    parse_profiles,
    profiles_to_jsonl,
)
from repro.obs.schema import (
    CHROME_SCHEMA,
    JSONL_SCHEMA,
    PROFILE_FORMAT_VERSION,
    PROFILE_SCHEMA,
    TRACE_FORMAT_VERSION,
    validate_chrome_trace,
    validate_jsonl_record,
    validate_profile_record,
)
from repro.obs.tracer import (
    CATEGORY_ENGINE,
    CATEGORY_OPERATOR,
    CATEGORY_OPTIMIZER,
    DEFAULT_ROW_STRIDE,
    TraceEvent,
    TraceSpan,
    Tracer,
    active,
    maybe_span,
    trace_summary,
)

__all__ = [
    "BUCKETS_PER_DECADE",
    "BUCKET_BOUNDS",
    "CATEGORY_ENGINE",
    "CATEGORY_OPERATOR",
    "CATEGORY_OPTIMIZER",
    "CHROME_SCHEMA",
    "DEFAULT_CAPACITY",
    "DEFAULT_ROW_STRIDE",
    "FACTOR_EPSILON",
    "FlightRecorder",
    "HistogramSet",
    "JSONL_SCHEMA",
    "LogHistogram",
    "OperatorReport",
    "PROFILE_FORMAT_VERSION",
    "PROFILE_SCHEMA",
    "QueryProfile",
    "TRACE_FORMATS",
    "TRACE_FORMAT_VERSION",
    "TraceEvent",
    "TraceSpan",
    "Tracer",
    "active",
    "actual_cost_units",
    "bucket_index",
    "counters_delta",
    "counters_restore",
    "counters_snapshot",
    "fingerprint_query",
    "maybe_span",
    "operator_reports",
    "parse_jsonl",
    "parse_profiles",
    "profiles_to_jsonl",
    "render_analyze",
    "to_chrome",
    "to_jsonl",
    "trace_summary",
    "validate_chrome_trace",
    "validate_jsonl_record",
    "validate_profile_record",
    "write_trace",
]
