"""Operator-level instrumentation for the executors.

The execution context (:class:`repro.execution.context.ExecContext`)
wraps every physical plan node it opens with one of the adapters here
when a tracer is active.  Each adapter owns exactly one
:class:`OperatorSpan` and attributes to it:

* ``rows_emitted`` / ``batches_emitted`` — exact output counts;
* ``busy_us`` — time spent inside the operator's pulls, *inclusive*
  of its children (the convention EXPLAIN ANALYZE trees use);
* ``predicate_evals`` / ``cache_ops`` — deltas of the shared
  execution counters measured around each pull, i.e. work that
  happened while this operator (and its subtree) was producing;
* ``pages_read`` / ``buffer_hits`` — for leaf nodes over stored
  sequences, the storage counter delta between span open and close;
* fault injections, buffer-pool retries, and guard verdicts as span
  events.

Row mode pulls once per record, so its adapters sample: every
``tracer.row_stride``-th pull is measured and the totals are scaled at
span close (row counts stay exact; see DESIGN §10 for the accuracy
contract).  Batch mode measures every pull — a pull is a whole batch,
so full measurement is already cheap.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator, Optional

from repro.errors import QueryGuardError
from repro.obs.tracer import CATEGORY_OPERATOR, Tracer, TraceSpan
from repro.optimizer.plans import PhysicalPlan
from repro.storage.counters import StorageCounters

_SENTINEL = object()


def operator_name(plan: PhysicalPlan) -> str:
    """The span name of a plan node (kind plus strategy refinement)."""
    if plan.strategy:
        return f"{plan.kind}({plan.strategy})"
    return plan.kind


def operator_attrs(plan: PhysicalPlan) -> dict:
    """The static (pre-execution) attributes of an operator span."""
    length = plan.span.length()
    est_rows = plan.density * length if length is not None else None
    return {
        "plan_id": id(plan),
        "kind": plan.kind,
        "strategy": plan.strategy,
        "mode": plan.mode,
        "span": str(plan.span),
        "est_cost": round(plan.est_cost, 6),
        "est_rows": round(est_rows, 3) if est_rows is not None else None,
    }


def stored_leaf_counters(plan: PhysicalPlan) -> Iterator[StorageCounters]:
    """The distinct disk counters behind ``plan``'s stored leaves, in plan order.

    The one walk every consumer shares: the guard's ``max_pages``
    registration, the flight recorder's pages-read delta, and — on a
    single leaf node — the operator span's storage watch.
    """
    seen: list[StorageCounters] = []

    def walk(node: PhysicalPlan) -> Iterator[StorageCounters]:
        counters = getattr(getattr(node.node, "sequence", None), "counters", None)
        if isinstance(counters, StorageCounters) and all(
            counters is not known for known in seen
        ):
            seen.append(counters)
            yield counters
        for child in node.children:
            yield from walk(child)

    return walk(plan)


def _fault_trace(plan: PhysicalPlan):
    """The leaf's fault-injection trace list, if it sits on a FaultyDisk."""
    node = plan.node
    sequence = getattr(node, "sequence", None)
    fault_plan = getattr(sequence, "fault_plan", None)
    return getattr(fault_plan, "trace", None)


class _StorageWatch:
    """Tracks a leaf's storage counters and emits retry/fault events."""

    __slots__ = ("counters", "fault_trace", "_pages", "_hits", "_retries", "_faults")

    def __init__(self, plan: PhysicalPlan):
        # Only a leaf has disk counters of its own; an inner operator's
        # I/O is its leaves', attributed once, on their spans.
        self.counters = (
            None if plan.children else next(stored_leaf_counters(plan), None)
        )
        self.fault_trace = _fault_trace(plan)
        self._pages = self._hits = self._retries = 0
        self._faults = 0

    @property
    def present(self) -> bool:
        return self.counters is not None

    def open(self) -> None:
        counters = self.counters
        if counters is None:
            return
        self._pages = counters.page_reads
        self._hits = counters.buffer_hits
        self._retries = counters.retries_attempted
        self._faults = 0 if self.fault_trace is None else len(self.fault_trace)

    def pulse(self, tracer: Tracer, span: TraceSpan) -> None:
        """Turn new retries or fault injections into span events.

        Called on sampled pulls and once at span close; the deltas are
        cumulative, so sampling coarsens event timestamps without ever
        dropping an event.
        """
        counters = self.counters
        if counters is None:
            return
        retries = counters.retries_attempted
        if retries > self._retries:
            tracer.event(span, "retry", attempts=retries - self._retries)
            self._retries = retries
        trace = self.fault_trace
        if trace is not None and len(trace) > self._faults:
            for fault in trace[self._faults:]:
                tracer.event(
                    span,
                    f"fault:{fault.kind}",
                    page_id=fault.page_id,
                    read_index=fault.read_index,
                    label=fault.label,
                )
            self._faults = len(trace)

    def close(self, span: TraceSpan) -> None:
        counters = self.counters
        if counters is None:
            return
        span.attrs["pages_read"] = counters.page_reads - self._pages
        span.attrs["buffer_hits"] = counters.buffer_hits - self._hits


class OperatorSpan:
    """One operator's span and the one routine that measures a pull.

    The row, batch and prober adapters below each own one of these:
    they decide *which* pulls to measure (row and prober sample every
    ``stride``-th, batch measures all) and what they count (rows,
    batches, probes); the push/snapshot/clock/pull/accumulate/pop/pulse
    block itself exists once, in :meth:`measured`.
    """

    __slots__ = (
        "tracer",
        "span",
        "stride",
        "sampled",
        "_counters",
        "_watch",
        "_busy",
        "_d_pred",
        "_d_cache",
    )

    def __init__(self, tracer: Tracer, plan: PhysicalPlan, counters):
        self.tracer = tracer
        self.span = tracer.begin(
            operator_name(plan), CATEGORY_OPERATOR, attrs=operator_attrs(plan)
        )
        self.stride = tracer.row_stride
        self.sampled = 0
        self._counters = counters
        self._watch = _StorageWatch(plan)
        self._watch.open()
        self._busy = 0.0
        self._d_pred = self._d_cache = 0

    def measured(self, pull: Callable, *args):
        """Run ``pull(*args)`` attributed to this span.

        The pull runs with the span on the tracer stack, so spans begun
        downstream (children begin lazily on *their* first pull, which
        happens inside our first pull — always measured) parent
        correctly; its wall time and the ``predicate_evals`` /
        ``cache_ops`` deltas accumulate here, and new storage retries or
        fault injections become span events.
        """
        tracer = self.tracer
        counters = self._counters
        self.sampled += 1
        tracer.push(self.span)
        pred0 = counters.predicate_evals
        cache0 = counters.cache_ops
        started = tracer.clock()
        try:
            result = pull(*args)
        finally:
            self._busy += tracer.clock() - started
            self._d_pred += counters.predicate_evals - pred0
            self._d_cache += counters.cache_ops - cache0
            tracer.pop()
        if self._watch.present:
            self._watch.pulse(tracer, self.span)
        return result

    def failed(self, error: Exception) -> None:
        """Record the error that ended the operator as a span event."""
        prefix = "guard" if isinstance(error, QueryGuardError) else "error"
        self.tracer.event(
            self.span, f"{prefix}:{type(error).__name__}", message=str(error)[:200]
        )

    def close(self, pulls: int, /, **counts: int) -> None:
        """End the span: exact ``counts``, measured totals scaled to ``pulls``."""
        span = self.span
        if self._watch.present:
            # Catch retries/faults from unmeasured tail pulls.
            self._watch.pulse(self.tracer, span)
        scale = pulls / self.sampled if self.sampled else 1.0
        span.attrs.update(counts)
        span.attrs["predicate_evals"] = int(round(self._d_pred * scale))
        span.attrs["cache_ops"] = int(round(self._d_cache * scale))
        self._watch.close(span)
        self.tracer.end(span, busy_us=self._busy * 1e6 * scale)


def traced_stream(
    tracer: Tracer,
    plan: PhysicalPlan,
    counters,
    inner: Iterator,
) -> Iterator:
    """Wrap a row-mode operator stream in its span (sampled timing).

    The pulls go in runs of ``stride``: the first of each run is
    measured and the rest pass through ``islice``, numbered by
    ``enumerate``, so an unmeasured pull costs the loop step and the
    ``yield`` alone.  The measured pulls are the 1st, the
    ``stride + 1``-th and so on, and a run cut short ended the input,
    so ``pulls``, ``rows_emitted`` and ``sampled_pulls`` are exact,
    however the stream ends.
    """
    op: Optional[OperatorSpan] = None
    rows = taken = 0  # rows before the current run; its unmeasured rows
    ended = False
    try:
        op = OperatorSpan(tracer, plan, counters)
        tail = op.stride - 1
        while True:
            item = op.measured(next, inner, _SENTINEL)
            if item is _SENTINEL:
                ended = True
                break
            rows += 1 + taken
            taken = 0
            yield item
            for taken, item in enumerate(islice(inner, tail), 1):
                yield item
            if taken < tail:
                ended = True
                break
    except Exception as error:
        ended = True
        if op is not None:
            op.failed(error)
        raise
    finally:
        if op is not None:
            rows += taken
            pulls = rows + int(ended)
            op.close(pulls, rows_emitted=rows, pulls=pulls, sampled_pulls=op.sampled)


def traced_batches(
    tracer: Tracer,
    plan: PhysicalPlan,
    counters,
    inner: Iterator,
) -> Iterator:
    """Wrap a batch-mode operator stream in its span (full timing)."""
    op: Optional[OperatorSpan] = None
    pulls = batches = rows = 0
    try:
        op = OperatorSpan(tracer, plan, counters)
        while True:
            pulls += 1
            batch = op.measured(next, inner, _SENTINEL)
            if batch is _SENTINEL:
                break
            batches += 1
            rows += batch.count_valid()
            yield batch
    except Exception as error:
        if op is not None:
            op.failed(error)
        raise
    finally:
        if op is not None:
            op.close(pulls, rows_emitted=rows, batches_emitted=batches)


class TracedProber:
    """Wrap a prober in its operator span.

    Probers have no natural stream end, so the span stays open until
    the tracer's :meth:`~repro.obs.tracer.Tracer.finalize` (called by
    the engine when the execution root span closes).  Timing is
    stride-sampled like the row wrapper; probe counts stay exact.
    """

    __slots__ = ("schema", "span", "_inner", "_op", "_calls")

    def __init__(self, tracer: Tracer, plan: PhysicalPlan, counters, inner):
        self.schema = inner.schema
        self.span = inner.span
        self._inner = inner
        self._op = OperatorSpan(tracer, plan, counters)
        self._calls = 0
        tracer.add_finalizer(self._finalize)

    def get(self, position: int):
        """Probe the wrapped prober, attributing the work to its span."""
        op = self._op
        self._calls += 1
        if op.stride == 1 or self._calls % op.stride == 1:
            try:
                return op.measured(self._inner.get, position)
            except Exception as error:
                op.failed(error)
                raise
        return self._inner.get(position)

    def _finalize(self) -> None:
        if self._op.span.end_us is not None:
            return
        calls = self._calls
        self._op.close(
            calls, probes=calls, rows_emitted=calls, sampled_pulls=self._op.sampled
        )
