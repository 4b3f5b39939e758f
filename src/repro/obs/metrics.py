"""The metrics read-out.

The counter dataclasses (:class:`~repro.counters.CounterSet` subclasses)
are the source of truth for every count the engine keeps; hot paths and
the benchmark read their fields directly.  This module only *reads them
out*: :func:`collect` flattens named sources into one stable-ordered
``name -> number`` mapping and :func:`render` prints it as the
``name = value`` block of ``--explain``, ``repro stats`` and the
``*-check`` subcommands.  It also hosts the one implementation of
"copy / roll back / difference all fields of a counter object"
(:func:`counters_snapshot` / :func:`counters_restore` /
:func:`counters_delta`) that the engine's degradation ladder uses.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from repro.errors import ReproError
from repro.obs.hist import HistogramSet

Number = float  # metrics are ints or floats; ints pass through unchanged


def counters_snapshot(source: object) -> dict[str, Number]:
    """All numeric fields of a counter object, as a plain dict.

    Works on anything exposing ``as_dict()`` (the counter dataclasses)
    or on a bare dataclass instance.
    """
    as_dict = getattr(source, "as_dict", None)
    if as_dict is not None:
        return dict(as_dict())
    if dataclasses.is_dataclass(source) and not isinstance(source, type):
        return {
            f.name: getattr(source, f.name)
            for f in dataclasses.fields(source)
        }
    raise ReproError(
        f"cannot snapshot counters of {type(source).__name__}: "
        "expected an as_dict() method or a dataclass"
    )


def counters_restore(source: object, snapshot: Mapping[str, Number]) -> None:
    """Set every field named in ``snapshot`` back onto ``source``.

    This is how a counter object is rolled back to a snapshot (e.g. the
    engine's batch→row fallback forgetting the failed attempt's
    accounting).
    """
    for name, value in snapshot.items():
        if not hasattr(source, name):
            raise ReproError(
                f"cannot restore unknown counter field {name!r} onto "
                f"{type(source).__name__}"
            )
        setattr(source, name, value)


def counters_delta(
    now: Mapping[str, Number], before: Mapping[str, Number]
) -> dict[str, Number]:
    """Per-field ``now - before`` (fields missing from ``before`` count from 0)."""
    return {name: value - before.get(name, 0) for name, value in now.items()}


def collect(**sources: object) -> dict[str, Number]:
    """Every metric of the named sources, as a name-sorted flat mapping.

    Each keyword is a dot-separated prefix (pass ``**{"storage.ibm": c}``
    for a dotted one) and its value one of: a counter object (anything
    :func:`counters_snapshot` accepts) → ``prefix.<field>``; a mapping
    of gauges (e.g. ``guard.metrics()``) → ``prefix.<key>``; a
    :class:`~repro.obs.hist.HistogramSet` → ``prefix.<name>.<stat>``
    for each histogram's count/sum/mean/min/max/p50/p90/p99.
    """
    values: dict[str, Number] = {}
    for prefix, source in sources.items():
        if isinstance(source, HistogramSet):
            for histogram in source:
                for key, value in histogram.summary().items():
                    values[f"{prefix}.{histogram.name}.{key}"] = value
            continue
        flat = source if isinstance(source, Mapping) else counters_snapshot(source)
        for name, value in flat.items():
            values[f"{prefix}.{name}"] = value
    return dict(sorted(values.items()))


def render(metrics: Mapping[str, Number], indent: str = "") -> str:
    """``name = value`` lines in the mapping's order (floats as ``%.6g``)."""
    return "\n".join(
        f"{indent}{name} = {value:.6g}"
        if isinstance(value, float)
        else f"{indent}{name} = {value}"
        for name, value in metrics.items()
    )
