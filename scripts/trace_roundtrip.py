"""CI smoke: the trace exporters round-trip against their pinned schemas.

Runs a small traced query in both execution modes, then for each mode:

* renders the JSON Lines export, parses it back with the validating
  parser, and cross-checks the span count against the live tracer;
* renders the Chrome ``trace_event`` export, re-parses it from its
  serialized JSON text (what Perfetto would actually load), and
  validates it against the pinned schema;
* asserts every operator in the chosen plan shows up as an operator
  span in both exports;
* repeats both exports with an attached metrics block (the run's
  execution counters) and checks the block survives the round trip:
  one ``metrics`` record in jsonl, ``otherData.metrics`` in chrome.

Exit code 0 on success, 1 with a diagnostic on the first failure.

Usage::

    PYTHONPATH=src python scripts/trace_roundtrip.py
"""

from __future__ import annotations

import json
import sys

from repro.algebra import base, col, lit
from repro.model import Span
from repro.obs import (
    CATEGORY_OPERATOR,
    Tracer,
    parse_jsonl,
    to_chrome,
    to_jsonl,
    validate_chrome_trace,
)
from repro.execution import run_query_detailed
from repro.obs.metrics import collect
from repro.workloads import StockSpec, generate_stock


def _traced_run(mode: str) -> tuple[Tracer, dict]:
    """Run a two-operator query traced; return the tracer and metrics."""
    stock = generate_stock(StockSpec("s", Span(0, 499), 0.9, seed=11))
    query = (
        base(stock, "s")
        .select(col("volume") > lit(2000))
        .window("avg", "close", 8, "ma8")
        .query()
    )
    tracer = Tracer()
    result = run_query_detailed(query, mode=mode, tracer=tracer)
    return tracer, collect(execution=result.counters)


def check_mode(mode: str) -> None:
    """Round-trip both export formats for one execution mode."""
    tracer, metrics = _traced_run(mode)
    spans = len(tracer.spans)
    operators = [s for s in tracer.spans if s.category == CATEGORY_OPERATOR]
    if not operators:
        raise AssertionError(f"{mode}: no operator spans recorded")

    # JSONL: emit -> parse (validates every record) -> compare counts.
    records = parse_jsonl(to_jsonl(tracer))
    header, body = records[0], records[1:]
    if header["type"] != "trace":
        raise AssertionError(f"{mode}: jsonl header missing, got {header}")
    parsed_spans = [r for r in body if r["type"] == "span"]
    if len(parsed_spans) != spans:
        raise AssertionError(
            f"{mode}: jsonl round-trip lost spans "
            f"({len(parsed_spans)} != {spans})"
        )
    parsed_ops = [
        r for r in parsed_spans if r["category"] == CATEGORY_OPERATOR
    ]
    if len(parsed_ops) != len(operators):
        raise AssertionError(f"{mode}: jsonl lost operator spans")

    # Chrome: emit -> serialize -> re-parse -> validate pinned schema.
    document = json.loads(json.dumps(to_chrome(tracer)))
    validate_chrome_trace(document)
    slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
    if len(slices) != spans:
        raise AssertionError(
            f"{mode}: chrome trace has {len(slices)} slices for {spans} spans"
        )
    op_names = {s.name for s in operators}
    chrome_names = {e["name"] for e in slices}
    missing = op_names - chrome_names
    if missing:
        raise AssertionError(f"{mode}: operators missing from chrome: {missing}")

    # Metrics block: emit with counters attached -> parse -> compare.
    with_metrics = parse_jsonl(to_jsonl(tracer, metrics=metrics))
    metric_records = [r for r in with_metrics if r["type"] == "metrics"]
    if len(metric_records) != 1:
        raise AssertionError(
            f"{mode}: expected one jsonl metrics record, "
            f"got {len(metric_records)}"
        )
    if metric_records[0]["values"] != dict(metrics):
        raise AssertionError(f"{mode}: jsonl metrics block changed in transit")
    chrome_doc = json.loads(json.dumps(to_chrome(tracer, metrics=metrics)))
    validate_chrome_trace(chrome_doc)
    embedded = chrome_doc.get("otherData", {}).get("metrics")
    if embedded != dict(metrics):
        raise AssertionError(f"{mode}: chrome metrics block changed in transit")
    print(
        f"  {mode}: {spans} spans ({len(operators)} operators) "
        f"round-tripped through jsonl and chrome "
        f"(+{len(metrics)} metrics)"
    )


def main() -> int:
    """Script entry point."""
    print("trace round-trip:")
    try:
        for mode in ("row", "batch"):
            check_mode(mode)
    except AssertionError as error:
        print(f"FAIL: {error}")
        return 1
    print("trace round-trip: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
