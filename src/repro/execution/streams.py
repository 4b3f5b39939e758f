"""Stream-mode plan execution.

Each operator here is ``op(ctx, plan, window)`` and returns a generator
of ``(position, record)`` pairs in increasing position order — the
paper's stream access.  The join strategies of Section 3.3 and the
caching strategies of Section 3.5 live here: lock-step merging
(Join-Strategy-B), stream×probe joins (Join-Strategy-A), scope-sized
window caches (Cache-Strategy-A) and incremental value-offset caches
(Cache-Strategy-B).

Operators never name each other: children are opened through the
execution context (``ctx.stream`` / ``ctx.prober``), which owns the
operator table and the tracing adapter
(:mod:`repro.execution.context`).  Child streams are opened over the
*children's plan spans* — the optimizer's top-down span restriction
(Step 2.b) is what narrows what lower operators read, exactly as in
the paper's architecture — and the window bounds emission at each
node, so executing a plan over a narrower window than it was optimized
for stays correct (the extra records are dropped here).  The window
aggregate alone narrows its child itself, to the Prop. 2.1 scope of
its window: its cache must never see a record older than the first
position's window, whatever span the plan was made for.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import TYPE_CHECKING, Iterator

from repro.errors import ExecutionError
from repro.model.record import NULL, Record
from repro.model.span import Span
from repro.model.types import AtomType, check_value
from repro.algebra.aggregate import CumulativeAggregate, WindowAggregate
from repro.algebra.leaves import ConstantLeaf, SequenceLeaf
from repro.algebra.offsets import ValueOffset
from repro.execution.counters import ExecutionCounters
from repro.execution.guard import checkpointed
from repro.execution.probers import ProberSequence, chain_steps, global_record, row_predicate
from repro.execution.sliding import CumulativeAggregator, make_sliding
from repro.optimizer.plans import PhysicalPlan

if TYPE_CHECKING:
    from repro.execution.context import ExecContext

StreamItem = tuple[int, Record]


def scan(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> Iterator[StreamItem]:
    """Stream a base or constant sequence's non-Null records in ``window``."""
    leaf = plan.node
    if isinstance(leaf, SequenceLeaf):
        source = leaf.sequence
    elif isinstance(leaf, ConstantLeaf):
        source = leaf.constant
    else:
        raise ExecutionError(f"scan plan without a leaf node: {plan.kind}")
    counters = ctx.counters
    counters.scans_opened += 1
    for item in checkpointed(source.iter_nonnull(window), ctx.guard):
        counters.operator_records += 1
        yield item


def chain(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> Iterator[StreamItem]:
    """Apply a run of unit-scope steps (select/project/rename/shift) per record.

    The steps compile once (:func:`~repro.execution.probers.chain_steps`):
    a record costs a window test, the compiled steps on its values and,
    if emitted, one trusted record — none when the chain only selects.
    """
    counters = ctx.counters
    shift, reshaped, ops = chain_steps(ctx, plan)
    child_plan = plan.children[0]
    child_window = window.shift(shift).intersect(child_plan.span)
    schema = plan.schema
    lo = -inf if window.start is None else window.start
    hi = inf if window.end is None else window.end
    for position, record in ctx.stream(child_plan, child_window):
        position -= shift
        if not lo <= position <= hi:
            continue
        values = record.values
        for predicate, gather in ops:
            if gather is None:
                counters.predicate_evals += 1
                if not predicate(values):
                    break
            else:
                values = gather(values)
        else:
            counters.operator_records += 1
            yield position, Record.unchecked(schema, values) if reshaped else record


def _combine(
    plan: PhysicalPlan,
    position: int,
    left: Record,
    right: Record,
    predicate,
    counters: ExecutionCounters,
) -> Iterator[StreamItem]:
    # The concatenated values come from two already-validated records,
    # so the composed record skips per-value revalidation.
    values = left.values + right.values
    if predicate is not None:
        counters.predicate_evals += 1
        if not predicate(values):
            return
    counters.operator_records += 1
    yield position, Record.unchecked(plan.schema, values)


def lockstep(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> Iterator[StreamItem]:
    """Join-Strategy-B: merge both input streams in lock step.

    A matched pair is combined in place — one values concatenation, the
    predicate, one trusted record — as :func:`probed_join` does through
    ``_combine``, with no generator per pair.
    """
    counters = ctx.counters
    schema = plan.schema
    predicate = row_predicate(ctx, plan.predicate, schema)
    lo = -inf if window.start is None else window.start
    hi = inf if window.end is None else window.end
    left_iter = ctx.stream(plan.children[0], plan.children[0].span)
    right_iter = ctx.stream(plan.children[1], plan.children[1].span)
    left = next(left_iter, None)
    right = next(right_iter, None)
    while left is not None and right is not None:
        position = left[0]
        if position < right[0]:
            left = next(left_iter, None)
        elif right[0] < position:
            right = next(right_iter, None)
        else:
            if lo <= position <= hi:
                values = left[1].values + right[1].values
                if predicate is not None:
                    counters.predicate_evals += 1
                    matched = predicate(values)
                else:
                    matched = True
                if matched:
                    counters.operator_records += 1
                    yield position, Record.unchecked(schema, values)
            left = next(left_iter, None)
            right = next(right_iter, None)


def probed_join(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> Iterator[StreamItem]:
    """Join-Strategy-A: stream one input, probe the other.

    ``stream-probe`` drives from the left child and probes the right;
    ``probe-stream`` is the converse.  Composed records are left.right
    regardless of which side drove.
    """
    driver_index = 0 if plan.kind == "stream-probe" else 1
    counters = ctx.counters
    predicate = row_predicate(ctx, plan.predicate, plan.schema)
    prober = ctx.prober(plan.children[1 - driver_index])
    driver = plan.children[driver_index]
    for position, streamed in ctx.stream(driver, driver.span):
        if position not in window:
            continue
        probed = prober.get(position)
        if probed is NULL:
            continue
        left, right = (streamed, probed) if driver_index == 0 else (probed, streamed)
        yield from _combine(plan, position, left, right, predicate, counters)


def _aggregate_record(plan: PhysicalPlan):
    """The output record of an aggregate value, its check resolved once per operator.

    The value is cast to float for a FLOAT output and type-checked as
    :class:`~repro.model.record.Record` would — a wrong value raises
    ``SchemaError`` through the same
    :func:`~repro.model.types.check_value` — and the one-value record
    is then built trusted.
    """
    schema = plan.schema
    (attribute,) = schema.attributes
    atype = attribute.atype
    accepts = atype.accepts
    as_float = atype is AtomType.FLOAT
    context = f"attribute {attribute.name!r}"
    unchecked = Record.unchecked

    def record(value: object) -> Record:
        if as_float:
            value = float(value)  # type: ignore[arg-type]
        if not accepts(value):
            check_value(atype, value, context=context)
        return unchecked(schema, (value,))

    return record


def _naive_unary(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> Iterator[StreamItem]:
    """Forced-naive strategy: probe the child per output position (no cache)."""
    op = plan.node
    source = ProberSequence(ctx.prober(plan.children[0]))
    counters = ctx.counters
    for position in checkpointed(window.positions(), ctx.guard):
        record = op.value_at([source], position)
        if record is not NULL:
            counters.operator_records += 1
            yield position, record


def window_agg(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> Iterator[StreamItem]:
    """Sliding-window aggregate: Cache-Strategy-A, or naive when forced."""
    op = plan.node
    if not isinstance(op, WindowAggregate):
        raise ExecutionError("window-agg plan without a WindowAggregate node")
    if plan.strategy == "naive":
        yield from _naive_unary(ctx, plan, window)
        return

    # Cache-Strategy-A over the Prop. 2.1 scope of the window: nothing
    # older than the first position's window ever arrives.
    counters = ctx.counters
    child_plan = plan.children[0]
    (scope,) = op.required_input_spans(window, [child_plan.span])
    index = child_plan.schema.index_of(op.attr)
    values = (
        (position, record.values[index])
        for position, record in ctx.stream(child_plan, scope)
    )
    output = _aggregate_record(plan)
    for position, value in make_sliding(op.func).slide(
        op.width, values, window.positions(), counters, ctx.guard
    ):
        counters.operator_records += 1
        yield position, output(value)


def value_offset(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> Iterator[StreamItem]:
    """Previous/Next/±k value offset: Cache-Strategy-B, or naive when forced."""
    op = plan.node
    if not isinstance(op, ValueOffset):
        raise ExecutionError("value-offset plan without a ValueOffset node")
    if plan.strategy == "naive":
        yield from _naive_unary(ctx, plan, window)
        return

    # Cache-Strategy-B: incremental caches of reach-many records.
    counters = ctx.counters
    child_plan = plan.children[0]
    reach = op.reach
    if op.looks_back:
        child_iter = ctx.stream(child_plan, child_plan.span)
        pending = next(child_iter, None)
        buffer: deque[StreamItem] = deque()
        for position in checkpointed(window.positions(), ctx.guard):
            while pending is not None and pending[0] < position:
                buffer.append(pending)
                if len(buffer) > reach:
                    buffer.popleft()
                counters.cache_ops += 1
                counters.note_occupancy(len(buffer))
                pending = next(child_iter, None)
            if len(buffer) == reach:
                counters.operator_records += 1
                yield position, buffer[0][1]
        return

    # Looking forward (Next and +k offsets): a reach-sized lookahead.
    child_iter = ctx.stream(child_plan, child_plan.span)
    buffer = deque()
    exhausted = False
    for position in checkpointed(window.positions(), ctx.guard):
        while buffer and buffer[0][0] <= position:
            buffer.popleft()
            counters.cache_ops += 1
        while not exhausted and len(buffer) < reach:
            item = next(child_iter, None)
            if item is None:
                exhausted = True
                break
            if item[0] > position:
                buffer.append(item)
                counters.cache_ops += 1
                counters.note_occupancy(len(buffer))
        if len(buffer) >= reach:
            counters.operator_records += 1
            yield position, buffer[reach - 1][1]


def cumulative(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> Iterator[StreamItem]:
    """Running aggregate over everything up to each position."""
    op = plan.node
    if not isinstance(op, CumulativeAggregate):
        raise ExecutionError("cumulative-agg plan without a CumulativeAggregate node")
    if plan.strategy == "naive":
        yield from _naive_unary(ctx, plan, window)
        return
    counters = ctx.counters
    child_plan = plan.children[0]
    child_iter = ctx.stream(child_plan, child_plan.span)
    pending = next(child_iter, None)
    running = CumulativeAggregator(op.func)
    index = child_plan.schema.index_of(op.attr)
    output = _aggregate_record(plan)
    for position in checkpointed(window.positions(), ctx.guard):
        while pending is not None and pending[0] <= position:
            running.add(pending[1].values[index])
            counters.cache_ops += 1
            pending = next(child_iter, None)
        if running.count > 0:
            counters.operator_records += 1
            yield position, output(running.result())


def global_agg(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> Iterator[StreamItem]:
    """Whole-sequence aggregate, emitted at every position of ``window``."""
    answer = global_record(ctx, plan)
    if answer is NULL:
        return
    counters = ctx.counters
    for position in checkpointed(window.positions(), ctx.guard):
        counters.operator_records += 1
        yield position, answer
