"""The span tracer — the query lifecycle's timeline.

A :class:`Tracer` records *spans*: named, nestable intervals with
attributes and point-in-time events.  The optimizer wraps each of its
six steps (paper Section 4) in a span; the executors wrap every
physical operator in one, attributing the work counters (rows, pages,
predicate evaluations, cache operations) to the operator that caused
them; fault injections, retries, and guard verdicts become span
events.  The result is a single tree per query that EXPLAIN ANALYZE
(:mod:`repro.obs.analyze`) and the exporters (:mod:`repro.obs.export`)
both read.

Cost discipline:

* **disabled is free** — every instrumentation site checks
  ``tracer is not None and tracer.enabled`` (see :func:`active`)
  before doing anything, so an absent or disabled tracer costs one
  boolean test per *operator*, not per record;
* **row mode samples** — per-record timing would dominate the
  record-at-a-time executor, so row wrappers time every
  ``row_stride``-th pull and scale up at span close (rows stay exact;
  time and attributed counters are stride-sampled estimates);
* **the clock is injectable** — tests pass a fake clock and get
  deterministic timings.

Timestamps are microseconds relative to the tracer's epoch (its
construction time), matching the Chrome ``trace_event`` convention.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.errors import ReproError

#: Span categories used by the built-in instrumentation.
CATEGORY_OPTIMIZER = "optimizer"
CATEGORY_ENGINE = "engine"
CATEGORY_OPERATOR = "operator"
CATEGORY_ANALYSIS = "analysis"

#: Default row-mode sampling stride (see the module docstring).
DEFAULT_ROW_STRIDE = 8


@dataclass
class TraceEvent:
    """A point-in-time annotation attached to a span.

    Attributes:
        name: event name (e.g. ``fault:transient``, ``retry``,
            ``guard:QueryTimeoutError``, ``fallback``).
        ts_us: microseconds since the tracer's epoch.
        attrs: free-form JSON-serializable details.
    """

    name: str
    ts_us: float
    attrs: dict = field(default_factory=dict)


@dataclass
class TraceSpan:
    """One recorded interval of the query lifecycle.

    Attributes:
        span_id: unique (per tracer) positive integer.
        parent_id: the enclosing span's id, or None for a root.
        name: span name (operator kind, optimizer step, ...).
        category: one of the ``CATEGORY_*`` constants (or custom).
        start_us: first activity, microseconds since the epoch.
        end_us: close time; None while the span is still open.
        busy_us: accumulated *active* time.  For context-manager spans
            this equals the wall interval; for operator spans it is
            the (sampled) time spent inside the operator's pulls,
            which excludes time the operator spent idle between pulls.
        attrs: attributes (operator kind, estimates, attributed
            counters, ...).
        events: point events, in occurrence order.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_us: float
    end_us: Optional[float] = None
    busy_us: float = 0.0
    attrs: dict = field(default_factory=dict)
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def duration_us(self) -> float:
        """Wall-clock extent (0.0 while still open)."""
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us


def active(tracer: Optional["Tracer"]) -> bool:
    """Whether instrumentation should run at all (the one-check gate)."""
    return tracer is not None and tracer.enabled


class Tracer:
    """Collects the span tree of one (or more) query lifecycles.

    Args:
        enabled: a disabled tracer is a no-op — :func:`active` gates
            every instrumentation site, so executors threaded with a
            disabled tracer do no per-record work.
        clock: monotonic seconds source; injectable for tests.
        row_stride: sample every Nth pull in row-mode operator
            wrappers (1 = measure every record).
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        row_stride: int = DEFAULT_ROW_STRIDE,
    ):
        if row_stride < 1:
            raise ReproError(f"row_stride must be >= 1, got {row_stride}")
        self.enabled = enabled
        self.clock = clock
        self.row_stride = row_stride
        self.spans: list[TraceSpan] = []
        self._epoch = clock() if enabled else 0.0
        self._next_id = 1
        self._stack: list[TraceSpan] = []
        self._finalizers: list[tuple[int, Callable[[], None]]] = []

    # -- time ----------------------------------------------------------------

    def now_us(self) -> float:
        """Microseconds since the tracer's epoch."""
        return (self.clock() - self._epoch) * 1e6

    # -- span lifecycle ------------------------------------------------------

    def begin(
        self,
        name: str,
        category: str = "",
        attrs: Optional[dict] = None,
        parent: Optional[TraceSpan] = None,
    ) -> TraceSpan:
        """Open a span (parented to the current span unless given)."""
        if parent is None:
            parent = self._stack[-1] if self._stack else None
        span = TraceSpan(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category,
            start_us=self.now_us(),
            attrs=dict(attrs) if attrs else {},
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: TraceSpan, busy_us: Optional[float] = None) -> None:
        """Close a span; ``busy_us`` defaults to the wall interval."""
        if span.end_us is not None:
            return
        span.end_us = self.now_us()
        span.busy_us = (
            busy_us if busy_us is not None else span.end_us - span.start_us
        )

    @contextmanager
    def span(
        self, name: str, category: str = "", **attrs: object
    ) -> Iterator[TraceSpan]:
        """Context manager: a span covering the ``with`` body."""
        span = self.begin(name, category, attrs=attrs or None)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self.end(span)

    def push(self, span: TraceSpan) -> None:
        """Make ``span`` the current parent (operator wrappers)."""
        self._stack.append(span)

    def pop(self) -> None:
        """Undo the matching :meth:`push`."""
        self._stack.pop()

    @property
    def current(self) -> Optional[TraceSpan]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # -- events --------------------------------------------------------------

    def event(self, span: TraceSpan, name: str, **attrs: object) -> TraceEvent:
        """Attach a point-in-time event to ``span``."""
        event = TraceEvent(name=name, ts_us=self.now_us(), attrs=attrs)
        span.events.append(event)
        return event

    # -- finalization --------------------------------------------------------

    def add_finalizer(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` at :meth:`finalize` (probe-side spans close here).

        ``fn`` belongs to the newest span, so a :meth:`finalize` scoped
        past that span leaves it for the enclosing one.
        """
        self._finalizers.append((max(len(self.spans) - 1, 0), fn))

    def finalize(self, since: int = 0) -> None:
        """Flush finalizers and close spans still open, from ``spans[since]`` on.

        The engine calls this when an ``execute`` span closes, so
        probe-side operators — which have no natural stream end — still
        get end timestamps and attributed counters.  ``since`` scopes it
        to the spans (and the finalizers registered) after that index:
        a partition's ``execute`` frame finalizes its own operators
        without closing the enclosing ``execute`` and ``parallel`` spans.
        """
        due = [fn for at, fn in self._finalizers if at >= since]
        self._finalizers = [(at, fn) for at, fn in self._finalizers if at < since]
        for fn in due:
            fn()
        for span in self.spans[since:]:
            if span.end_us is None:
                self.end(span, busy_us=span.busy_us)

    # -- views ---------------------------------------------------------------

    def operator_spans(self) -> list[TraceSpan]:
        """The physical-operator spans, in first-activity order."""
        return [s for s in self.spans if s.category == CATEGORY_OPERATOR]

    def find(self, name: str) -> list[TraceSpan]:
        """All spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self.spans)} spans)"


@contextmanager
def maybe_span(
    tracer: Optional[Tracer], name: str, category: str = "", **attrs: object
) -> Iterator[Optional[TraceSpan]]:
    """A span when tracing is active, a no-op context otherwise."""
    if not active(tracer):
        yield None
        return
    assert tracer is not None
    with tracer.span(name, category, **attrs) as span:
        yield span


def trace_summary(tracer: Tracer) -> dict:
    """A compact, JSON-friendly digest of a trace.

    Used by the benchmark harness and the flight recorder to attach
    tracing context to measurements without dragging the whole span
    tree along.

    ``top_operators`` aggregates spans *by operator name* before
    ranking.  That matters for partitioned runs: every partition opens
    its own span per operator, so ranking individual spans would
    fragment an operator's time across its partitions and under-report
    it — a scan split over 8 partitions must compete for the top-5 with
    its *summed* time, not an eighth of it.
    """
    busy_by_category: dict[str, float] = {}
    for span in tracer.spans:
        busy_by_category[span.category] = (
            busy_by_category.get(span.category, 0.0) + span.busy_us
        )
    rollup: dict[str, dict] = {}
    for span in tracer.operator_spans():
        entry = rollup.get(span.name)
        if entry is None:
            entry = rollup[span.name] = {
                "name": span.name,
                "busy_us": 0.0,
                "rows": 0,
                "spans": 0,
            }
        entry["busy_us"] += span.busy_us
        entry["rows"] += span.attrs.get("rows_emitted", 0)
        entry["spans"] += 1
    operators = sorted(
        rollup.values(), key=lambda e: e["busy_us"], reverse=True
    )
    return {
        "spans": len(tracer.spans),
        "events": sum(len(s.events) for s in tracer.spans),
        "busy_us_by_category": {
            k: round(v, 3) for k, v in sorted(busy_by_category.items())
        },
        "top_operators": [
            {**entry, "busy_us": round(entry["busy_us"], 3)}
            for entry in operators[:5]
        ],
    }
