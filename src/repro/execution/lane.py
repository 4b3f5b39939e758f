"""One lane of execution: the inner half of the Start operator.

The Start operator (Figure 6) induces a stream access on the plan root
and materializes the answer.  :func:`started` is its frame — window,
self-check hook, guard arming, the lane's
:class:`~repro.execution.context.ExecContext`, the ``execute`` span —
and :func:`materialize` is the one-mode drain inside that frame.  The
engine's degradation ladder runs its rungs in one such frame; a
partitioned run opens one more per partition, nested inside it.
Keeping both below :mod:`repro.execution.engine` and
:mod:`repro.execution.partition` is what lets the engine call the
partitioned run and the partitioned run execute subplans without an
import cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import islice
from operator import itemgetter
from typing import Iterator, Optional

from repro.analysis import hooks
from repro.errors import ExecutionError
from repro.execution.context import ExecContext
from repro.execution.counters import ExecutionCounters
from repro.execution.guard import QueryGuard
from repro.execution.options import ExecOptions
from repro.model.base import BaseSequence
from repro.model.batch import concat_columns, vector_backend
from repro.model.span import Span
from repro.obs.instrument import stored_leaf_counters
from repro.obs.tracer import CATEGORY_ENGINE, Tracer, TraceSpan
from repro.optimizer.plans import PhysicalPlan


@contextmanager
def started(
    plan: PhysicalPlan,
    span: Optional[Span],
    counters: ExecutionCounters,
    options: ExecOptions,
    guard: Optional[QueryGuard],
    tracer: Optional[Tracer],
) -> Iterator[tuple[Span, ExecContext, Optional[TraceSpan]]]:
    """Frame one execution of ``plan``; yields ``(window, ctx, root_span)``.

    The window is ``span`` clipped to the plan's own span.  The guard's
    clock is started (idempotently — reruns and partitions share it)
    and every stored leaf's disk counters are registered with it.
    ``ctx`` is the frame's execution context over ``counters``, the
    guard, the tracer (``ctx.tracer`` is None when it is inactive) and
    the validated batch size.  When the tracer is active the run is
    wrapped in an ``execute`` span carrying the records this frame
    emitted; the span is closed, and the spans opened inside it are
    finalized so probe-side spans close, however the body ends.

    Raises:
        ExecutionError: when the window is unbounded.
        VerificationError: under ``REPRO_VERIFY=1``, for a plan that
            violates the cache-finiteness or cost-sanity invariants.
    """
    window = plan.span if span is None else span.intersect(plan.span)
    if not window.is_bounded:
        raise ExecutionError(f"cannot execute over unbounded span {window}")
    hooks.verify_plan_hook(plan)
    if guard is not None:
        guard.start()
        guard.watch_execution(counters)
        for disk in stored_leaf_counters(plan):
            guard.watch_storage(disk)
    ctx = ExecContext(counters, guard, tracer, options.batch_size)
    tracer = ctx.tracer
    if tracer is None:
        yield window, ctx, None
        return
    opened, records = len(tracer.spans), counters.records_emitted
    root_span = tracer.begin(
        "execute",
        CATEGORY_ENGINE,
        attrs={
            "mode": options.mode,
            "batch_size": options.batch_size if options.mode == "batch" else None,
            "window": str(window),
            "fallback_enabled": options.fallback,
            "parallel": options.parallel,
        },
    )
    tracer.push(root_span)
    try:
        yield window, ctx, root_span
    finally:
        root_span.attrs["records_emitted"] = counters.records_emitted - records
        tracer.pop()
        tracer.end(root_span)
        tracer.finalize(since=opened)


def materialize(
    ctx: ExecContext, plan: PhysicalPlan, window: Span, mode: str
) -> BaseSequence:
    """Drain ``plan`` over ``window`` in one execution mode."""
    if mode == "batch":
        return _run_batch(ctx, plan, window)
    return _run_row(ctx, plan, window)


def _run_batch(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> BaseSequence:
    """Materialize the batch-mode answer, keeping it columnar.

    Each batch's columns are compacted to the valid positions (a fancy
    index on vector buffers, ``compress`` on lists) and concatenated;
    the answer never transposes to per-record objects here — it holds
    its columns view, and boxes its records view only if and when a
    consumer asks for records.
    """
    counters = ctx.counters
    guard = ctx.guard
    schema = plan.schema
    np = vector_backend()
    positions: list[int] = []
    parts: list[list] = []
    for batch in ctx.batches(plan, window):
        emitted = batch.count_valid()
        counters.records_emitted += emitted
        if guard is not None:
            guard.note_records(emitted)
        if not emitted:
            continue
        valid = batch.valid
        if valid.all():
            positions.extend(range(batch.start, batch.start + len(valid)))
            parts.append(list(batch.columns))
            continue
        selected = valid.indices()
        index_array = None
        compacted: list = []
        for column in batch.columns:
            if np is not None and isinstance(column, np.ndarray):
                if index_array is None:
                    index_array = np.asarray(selected, dtype="int64")
                compacted.append(column[index_array])
            else:
                compacted.append([column[i] for i in selected])
        start = batch.start
        positions.extend(start + i for i in selected)
        parts.append(compacted)
    columns = [concat_columns(pieces) for pieces in zip(*parts)] if parts else [
        [] for _ in schema.attributes
    ]
    return BaseSequence.unchecked(schema, window, positions, columns=columns)


def _run_row(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> BaseSequence:
    """Materialize the row-mode answer.

    Stream evaluations emit unique ascending positions with records of
    the plan's schema, so the output skips per-item revalidation and
    holds its records view only: no position→record mapping, no column
    is built unless a consumer asks.  The guard is charged once per
    ``check_stride`` records, and exactly for what a failing stream
    emitted.
    """
    guard = ctx.guard
    stream = ctx.stream(plan, window)
    pairs: list = []
    charged = 0
    try:
        if guard is None:
            pairs.extend(stream)
        else:
            stride = emitted = guard.check_stride
            while emitted == stride:
                pairs.extend(islice(stream, stride))
                emitted, charged = len(pairs) - charged, len(pairs)
                guard.note_records(emitted)
    finally:
        ctx.counters.records_emitted += len(pairs)
        if guard is not None and len(pairs) > charged:
            guard.note_records(len(pairs) - charged, check=False)
    positions = list(map(itemgetter(0), pairs))
    records = list(map(itemgetter(1), pairs))
    return BaseSequence.unchecked(plan.schema, window, positions, records=records)
