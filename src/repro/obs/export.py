"""Trace exporters: JSON Lines and Chrome ``trace_event``.

Two serializations of the same span tree:

* **JSON Lines** (:func:`to_jsonl`) — one self-describing JSON object
  per line (a ``trace`` header, then ``span`` and ``event`` records),
  the format scripts and diff tools consume;
* **Chrome trace_event** (:func:`to_chrome`) — the ``traceEvents``
  document ``about://tracing`` and `Perfetto <https://ui.perfetto.dev>`_
  load directly, with spans as complete (``"X"``) slices and span
  events as instant (``"i"``) markers.

Both outputs conform to the pinned schemas in :mod:`repro.obs.schema`;
the CI round-trip gate (``scripts/trace_roundtrip.py``) re-parses and
re-validates them on every check run.
"""

from __future__ import annotations

import json
from typing import IO, Mapping, Optional, Union

from repro.errors import TraceFormatError
from repro.obs.schema import (
    TRACE_FORMAT_VERSION,
    validate_chrome_trace,
    validate_jsonl_record,
)
from repro.obs.tracer import Tracer

#: Export formats understood by :func:`write_trace` and the CLI.
TRACE_FORMATS = ("chrome", "jsonl")


def _jsonable(value: object) -> object:
    """Coerce an attribute value to something JSON-serializable."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _span_records(tracer: Tracer) -> list[dict]:
    records: list[dict] = []
    for span in tracer.spans:
        records.append(
            {
                "type": "span",
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "category": span.category,
                "start_us": round(span.start_us, 3),
                "end_us": round(
                    span.end_us if span.end_us is not None else span.start_us, 3
                ),
                "busy_us": round(span.busy_us, 3),
                "attrs": _jsonable(span.attrs),
            }
        )
        for event in span.events:
            records.append(
                {
                    "type": "event",
                    "span_id": span.span_id,
                    "name": event.name,
                    "ts_us": round(event.ts_us, 3),
                    "attrs": _jsonable(event.attrs),
                }
            )
    return records


def to_jsonl(tracer: Tracer, metrics: Optional[Mapping] = None) -> str:
    """Serialize a trace as JSON Lines (header + spans + events).

    ``metrics`` (e.g. a :func:`repro.obs.metrics.collect` mapping) is
    appended as one trailing ``metrics`` record, so a single artifact
    carries the span tree *and* the run's counter block.
    """
    header = {
        "type": "trace",
        "version": TRACE_FORMAT_VERSION,
        "clock": "relative-us",
    }
    lines = [json.dumps(header, sort_keys=True)]
    for record in _span_records(tracer):
        lines.append(json.dumps(record, sort_keys=True))
    if metrics is not None:
        record = {"type": "metrics", "values": _jsonable(dict(metrics))}
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_jsonl(text: str) -> list[dict]:
    """Parse and validate a JSON Lines trace.

    Returns the records (header first).

    Raises:
        TraceFormatError: for unparseable lines, a missing/invalid
            header, or any record violating the pinned schema.
    """
    records: list[dict] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceFormatError(f"line {number}: not JSON: {error}") from None
        validate_jsonl_record(record, line=number)
        records.append(record)
    if not records or records[0].get("type") != "trace":
        raise TraceFormatError("trace must start with a 'trace' header record")
    if records[0].get("version") != TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {records[0].get('version')!r}; "
            f"this build reads version {TRACE_FORMAT_VERSION}"
        )
    return records


def to_chrome(tracer: Tracer, metrics: Optional[Mapping] = None) -> dict:
    """Serialize a trace as a Chrome ``trace_event`` document.

    ``metrics`` lands under ``otherData.metrics``, where Perfetto's
    metadata view surfaces it.
    """
    events: list[dict] = []
    for span in tracer.spans:
        end_us = span.end_us if span.end_us is not None else span.start_us
        events.append(
            {
                "name": span.name,
                "cat": span.category or "trace",
                "ph": "X",
                "ts": round(span.start_us, 3),
                "dur": round(max(end_us - span.start_us, 0.0), 3),
                "pid": 1,
                "tid": 1,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "busy_us": round(span.busy_us, 3),
                    **_jsonable(span.attrs),  # type: ignore[dict-item]
                },
            }
        )
        for event in span.events:
            events.append(
                {
                    "name": event.name,
                    "cat": span.category or "trace",
                    "ph": "i",
                    "ts": round(event.ts_us, 3),
                    "pid": 1,
                    "tid": 1,
                    "s": "t",
                    "args": {"span_id": span.span_id, **_jsonable(event.attrs)},  # type: ignore[dict-item]
                }
            )
    other_data: dict = {
        "format": "repro-trace",
        "version": TRACE_FORMAT_VERSION,
    }
    if metrics is not None:
        other_data["metrics"] = _jsonable(dict(metrics))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other_data,
    }


def write_trace(
    tracer: Tracer,
    destination: Union[str, IO[str]],
    fmt: str = "chrome",
    metrics: Optional[Mapping] = None,
) -> None:
    """Write a trace to a path or file object in the given format.

    Both outputs are validated against the pinned schema before any
    byte is written, so a malformed export fails loudly instead of
    producing a file Perfetto rejects.  ``metrics`` rides along as the
    formats' metrics block (see :func:`to_jsonl` / :func:`to_chrome`).

    Raises:
        TraceFormatError: for an unknown format or an export that does
            not validate.
    """
    if fmt == "chrome":
        document = to_chrome(tracer, metrics=metrics)
        validate_chrome_trace(document)
        payload = json.dumps(document, indent=1, sort_keys=True) + "\n"
    elif fmt == "jsonl":
        payload = to_jsonl(tracer, metrics=metrics)
        parse_jsonl(payload)
    else:
        raise TraceFormatError(
            f"unknown trace format {fmt!r}; expected one of {TRACE_FORMATS}"
        )
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            handle.write(payload)
    else:
        destination.write(payload)
