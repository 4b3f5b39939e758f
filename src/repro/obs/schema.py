"""The pinned JSON schema of the trace and profile formats.

Downstream tools (dashboards, diffing scripts, the CI round-trip gate)
need a format contract, not "whatever the exporter happened to write".
This module pins that contract as data — JSON-Schema-shaped documents
for the JSON Lines span format (:data:`JSONL_SCHEMA`), the Chrome
``trace_event`` export (:data:`CHROME_SCHEMA`), and the flight
recorder's query-profile artifact (:data:`PROFILE_SCHEMA`) — and
implements the small validator subset the schemas use, so validation
needs no third-party dependency.

Version history of the formats lives in :data:`TRACE_FORMAT_VERSION`
and :data:`PROFILE_FORMAT_VERSION`; any backwards-incompatible change
to the exporters must bump the matching constant.  (Adding the
*optional* ``metrics`` record/field to the trace formats was a
backwards-compatible extension: every version-1 artifact written
before it still validates.)
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import TraceFormatError

#: Version stamped into every exported trace; bump on breaking change.
TRACE_FORMAT_VERSION = 1

#: Schema of one JSON Lines record (a header, a span, or an event).
JSONL_SCHEMA: dict = {
    "$id": "repro:trace-jsonl:v1",
    "oneOf": [
        {
            "type": "object",
            "required": ["type", "version", "clock"],
            "properties": {
                "type": {"enum": ["trace"]},
                "version": {"type": "integer", "minimum": 1},
                "clock": {"type": "string"},
            },
        },
        {
            "type": "object",
            "required": [
                "type",
                "span_id",
                "name",
                "category",
                "start_us",
                "end_us",
                "busy_us",
                "attrs",
            ],
            "properties": {
                "type": {"enum": ["span"]},
                "span_id": {"type": "integer", "minimum": 1},
                "parent_id": {"type": ["integer", "null"], "minimum": 1},
                "name": {"type": "string"},
                "category": {"type": "string"},
                "start_us": {"type": "number", "minimum": 0},
                "end_us": {"type": "number", "minimum": 0},
                "busy_us": {"type": "number", "minimum": 0},
                "attrs": {"type": "object"},
            },
        },
        {
            "type": "object",
            "required": ["type", "span_id", "name", "ts_us"],
            "properties": {
                "type": {"enum": ["event"]},
                "span_id": {"type": "integer", "minimum": 1},
                "name": {"type": "string"},
                "ts_us": {"type": "number", "minimum": 0},
                "attrs": {"type": "object"},
            },
        },
        {
            "type": "object",
            "required": ["type", "values"],
            "properties": {
                "type": {"enum": ["metrics"]},
                "values": {"type": "object"},
            },
        },
    ],
}

#: Version stamped into every profiles artifact; bump on breaking change.
PROFILE_FORMAT_VERSION = 1

#: Schema of one profiles-JSONL record (the header or a query profile).
PROFILE_SCHEMA: dict = {
    "$id": "repro:profile-jsonl:v1",
    "oneOf": [
        {
            "type": "object",
            "required": ["type", "version", "count"],
            "properties": {
                "type": {"enum": ["profiles"]},
                "version": {"type": "integer", "minimum": 1},
                "count": {"type": "integer", "minimum": 0},
            },
        },
        {
            "type": "object",
            "required": [
                "type",
                "fingerprint",
                "query",
                "mode",
                "parallel",
                "batch_size",
                "duration_us",
                "records_emitted",
                "pages_read",
                "traced",
                "slow",
            ],
            "properties": {
                "type": {"enum": ["profile"]},
                "fingerprint": {"type": "string"},
                "query": {"type": "string"},
                "mode": {"enum": ["batch", "row"]},
                "parallel": {"enum": ["off", "auto", "force"]},
                "workers": {"type": ["integer", "null"], "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 1},
                "duration_us": {"type": "number", "minimum": 0},
                "records_emitted": {"type": "integer", "minimum": 0},
                "pages_read": {"type": "integer", "minimum": 0},
                "cache_ops": {"type": "integer", "minimum": 0},
                "partition_retries": {"type": "integer", "minimum": 0},
                "fallbacks_taken": {"type": "integer", "minimum": 0},
                "parallel_fallbacks": {"type": "integer", "minimum": 0},
                "kernels_fallback": {"type": "integer", "minimum": 0},
                "guard_verdict": {"type": ["string", "null"]},
                "error": {"type": ["string", "null"]},
                "top_operators": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["name", "busy_us"],
                        "properties": {
                            "name": {"type": "string"},
                            "busy_us": {"type": "number", "minimum": 0},
                            "rows": {"type": "integer", "minimum": 0},
                            "spans": {"type": "integer", "minimum": 1},
                        },
                    },
                },
                "traced": {"type": "boolean"},
                "slow": {"type": "boolean"},
            },
        },
    ],
}

#: Schema of the Chrome trace_event export (the about://tracing format).
CHROME_SCHEMA: dict = {
    "$id": "repro:trace-chrome:v1",
    "type": "object",
    "required": ["traceEvents", "displayTimeUnit", "otherData"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "cat", "ph", "ts", "pid", "tid"],
                "properties": {
                    "name": {"type": "string"},
                    "cat": {"type": "string"},
                    "ph": {"enum": ["X", "i"]},
                    "ts": {"type": "number", "minimum": 0},
                    "dur": {"type": "number", "minimum": 0},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "args": {"type": "object"},
                    "s": {"enum": ["t"]},
                },
            },
        },
        "displayTimeUnit": {"enum": ["ms", "ns"]},
        "otherData": {
            "type": "object",
            "required": ["format", "version"],
            "properties": {
                "format": {"enum": ["repro-trace"]},
                "version": {"type": "integer", "minimum": 1},
                "metrics": {"type": "object"},
            },
        },
    },
}


def _type_name(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    if isinstance(value, Mapping):
        return "object"
    return type(value).__name__


def _type_matches(value: object, expected: str) -> bool:
    actual = _type_name(value)
    if expected == "number":
        return actual in ("number", "integer")
    return actual == expected


def check(value: object, schema: Mapping, path: str = "$") -> None:
    """Validate ``value`` against a schema fragment.

    Supports the subset the pinned schemas use: ``type`` (string or
    list), ``enum``, ``required``, ``properties``, ``items``,
    ``minimum``, and ``oneOf``.

    Raises:
        TraceFormatError: naming the first offending JSON path.
    """
    alternatives = schema.get("oneOf")
    if alternatives is not None:
        errors = []
        for i, alternative in enumerate(alternatives):
            try:
                check(value, alternative, path)
                return
            except TraceFormatError as error:
                errors.append(f"[{i}] {error}")
        raise TraceFormatError(
            f"{path}: matched none of {len(alternatives)} alternatives: "
            + "; ".join(errors)
        )
    expected_type = schema.get("type")
    if expected_type is not None:
        expected_types = (
            expected_type if isinstance(expected_type, list) else [expected_type]
        )
        if not any(_type_matches(value, t) for t in expected_types):
            raise TraceFormatError(
                f"{path}: expected {' or '.join(expected_types)}, "
                f"got {_type_name(value)}"
            )
    enum = schema.get("enum")
    if enum is not None and value not in enum:
        raise TraceFormatError(f"{path}: {value!r} not in {enum}")
    minimum = schema.get("minimum")
    if (
        minimum is not None
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value < minimum
    ):
        raise TraceFormatError(f"{path}: {value} below minimum {minimum}")
    if isinstance(value, Mapping):
        for name in schema.get("required", ()):
            if name not in value:
                raise TraceFormatError(f"{path}: missing required key {name!r}")
        properties = schema.get("properties", {})
        for name, subschema in properties.items():
            if name in value and value[name] is not None:
                check(value[name], subschema, f"{path}.{name}")
            elif name in value and "null" in _as_list(subschema.get("type")):
                continue
            elif name in value:
                check(value[name], subschema, f"{path}.{name}")
    if isinstance(value, list):
        items = schema.get("items")
        if items is not None:
            for i, item in enumerate(value):
                check(item, items, f"{path}[{i}]")


def _as_list(value: object) -> list:
    if value is None:
        return []
    return value if isinstance(value, list) else [value]


def validate_jsonl_record(record: object, line: Optional[int] = None) -> None:
    """Validate one parsed JSON Lines record.

    Raises:
        TraceFormatError: if the record violates :data:`JSONL_SCHEMA`.
    """
    where = "$" if line is None else f"line {line}"
    check(record, JSONL_SCHEMA, where)


def validate_chrome_trace(document: object) -> None:
    """Validate a parsed Chrome trace_event document.

    Raises:
        TraceFormatError: if it violates :data:`CHROME_SCHEMA`.
    """
    check(document, CHROME_SCHEMA)


def validate_profile_record(record: object, line: Optional[int] = None) -> None:
    """Validate one parsed profiles-JSONL record.

    Raises:
        TraceFormatError: if the record violates :data:`PROFILE_SCHEMA`.
    """
    where = "$" if line is None else f"line {line}"
    check(record, PROFILE_SCHEMA, where)
