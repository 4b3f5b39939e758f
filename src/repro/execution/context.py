"""The per-lane execution context and the operator table.

The paper's execution model is small: two access modes (stream,
probed) over one plan tree, run under one Start operator.
:data:`OPERATORS` is the whole of that model as data — one entry per
plan kind naming its stream, batch and prober implementation (see
:mod:`repro.execution.streams`, :mod:`repro.execution.batch_streams`,
:mod:`repro.execution.probers`) — and :class:`ExecContext` is what one
lane of execution shares: the counters it charges, the guard it
observes, the tracer it records into, the batch size.

Operators are ``op(ctx, plan, window)`` (probers ``Prober(ctx, plan)``)
and open their children only through the context —
:meth:`ExecContext.stream`, :meth:`ExecContext.batches`,
:meth:`ExecContext.prober` — which is therefore the one place a window
is clipped to the plan's span, a kind is looked up, and an operator is
wrapped in its tracing adapter (:mod:`repro.obs.instrument`).  That
happens once per operator open, never per record or per batch.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, NamedTuple, Optional, cast

from repro.errors import ExecutionError
from repro.execution import batch_streams, probers, streams
from repro.execution.batch_streams import DEFAULT_BATCH_SIZE, BatchStream
from repro.execution.counters import ExecutionCounters
from repro.execution.guard import QueryGuard
from repro.execution.probers import Prober
from repro.execution.streams import StreamItem
from repro.model.span import Span
from repro.obs.instrument import TracedProber, traced_batches, traced_stream
from repro.obs.tracer import Tracer, active
from repro.optimizer.plans import PhysicalPlan


class Operator(NamedTuple):
    """One plan kind's implementation per access path (None: not executable so)."""

    stream: Optional[
        Callable[[ExecContext, PhysicalPlan, Span], Iterator[StreamItem]]
    ] = None
    batch: Optional[Callable[[ExecContext, PhysicalPlan, Span], BatchStream]] = None
    probe: Optional[Callable[[ExecContext, PhysicalPlan], Prober]] = None


#: The one kind → implementation table.  ``stream-probe`` and
#: ``probe-stream`` are the two directions of Join-Strategy-A; the
#: non-unit-scope operators are probed by the naive algorithms of
#: Section 4.1.2.
OPERATORS: dict[str, Operator] = {
    "scan": Operator(streams.scan, batch_streams.scan),
    "probe-source": Operator(probe=probers.SourceProber),
    "chain": Operator(streams.chain, batch_streams.chain, probers.ChainProber),
    "lockstep": Operator(streams.lockstep, batch_streams.lockstep),
    "stream-probe": Operator(streams.probed_join, batch_streams.probed_join),
    "probe-stream": Operator(streams.probed_join, batch_streams.probed_join),
    "probe-join": Operator(probe=probers.JoinProber),
    "window-agg": Operator(
        streams.window_agg, batch_streams.window_agg, probers.NaiveUnaryProber
    ),
    "value-offset": Operator(
        streams.value_offset, batch_streams.value_offset, probers.NaiveUnaryProber
    ),
    "cumulative-agg": Operator(
        streams.cumulative, batch_streams.cumulative, probers.NaiveUnaryProber
    ),
    "global-agg": Operator(
        streams.global_agg, batch_streams.global_agg, probers.GlobalAggProber
    ),
}


def _implementation(plan: PhysicalPlan, access: str) -> Any:
    """The table's ``access`` implementation of ``plan``'s kind."""
    op = getattr(OPERATORS.get(plan.kind), access, None)
    if op is None:
        raise ExecutionError(f"plan kind {plan.kind!r} cannot run in {access} mode")
    return op


class ExecContext:
    """What one lane of execution shares across its operator tree.

    Args:
        counters: execution counters charged as work happens.
        guard: optional per-query resource governor; operators check
            it every ``check_stride`` loop iterations and at batch
            boundaries, so a guarded query observes its deadline,
            cancellation, and budgets mid-stream.
        tracer: optional span tracer, normalized here to
            active-or-``None``; when active every operator the context
            opens is wrapped in an operator span that attributes rows,
            time, and counter deltas to it.
        batch_size: maximum positions covered per emitted batch.

    Raises:
        ExecutionError: for a ``batch_size`` below 1.
    """

    __slots__ = ("counters", "guard", "tracer", "batch_size")

    def __init__(
        self,
        counters: ExecutionCounters,
        guard: Optional[QueryGuard] = None,
        tracer: Optional[Tracer] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        if batch_size < 1:
            raise ExecutionError(f"batch size must be >= 1, got {batch_size}")
        self.counters = counters
        self.guard = guard
        self.tracer = tracer if active(tracer) else None
        self.batch_size = batch_size

    # -- opening operators ---------------------------------------------------

    def stream(self, plan: PhysicalPlan, window: Span) -> Iterator[StreamItem]:
        """Open ``plan`` as a row stream emitting within ``window``."""
        op = _implementation(plan, "stream")
        stream: Iterator[StreamItem] = op(self, plan, window.intersect(plan.span))
        if self.tracer is None:
            return stream
        return traced_stream(self.tracer, plan, self.counters, stream)

    def batches(self, plan: PhysicalPlan, window: Span) -> BatchStream:
        """Open ``plan`` as a batch stream emitting within ``window``."""
        op = _implementation(plan, "batch")
        stream: BatchStream = op(self, plan, window.intersect(plan.span))
        if self.tracer is None:
            return stream
        return traced_batches(self.tracer, plan, self.counters, stream)

    def prober(self, plan: PhysicalPlan) -> Prober:
        """Open ``plan`` for probed access.

        A traced prober's span is closed by the tracer's finalizers
        when execution ends.
        """
        prober: Prober = _implementation(plan, "probe")(self, plan)
        if self.tracer is None:
            return prober
        # The adapter is a prober structurally (schema, span, get).
        return cast(Prober, TracedProber(self.tracer, plan, self.counters, prober))

    # -- degraded-codegen observability --------------------------------------

    def interpreted(self, expr: object) -> None:
        """Note an expression that fell back to interpreted evaluation.

        Passed as ``on_fallback`` to the expression compilers by both
        executors: each expression that cannot be lowered to a fused
        closure bumps ``exprs_interpreted`` (surfaced in ``--explain``
        metrics) and, when tracing, attaches an ``expr:interpreted``
        event to the innermost open span — degraded codegen can't hide.
        """
        self.counters.exprs_interpreted += 1
        self._event("expr:interpreted", expr=repr(expr))

    def kernel_fallback(self, subject: object) -> None:
        """Note a whole-column kernel that degraded to the scalar path.

        Passed as ``on_kernel_fallback`` to the expression compilers —
        and called directly by batch operators with kernel shapes of
        their own (window aggregate) — whenever vector execution
        degrades to the fused-closure/aggregator path: the effect spec
        withheld vectorization safety, numpy is absent, a dtype is
        non-numeric, an exactness guard refused the lowering, or a
        built kernel declined a batch (its first, per filter).  Bumps
        ``kernels_fallback`` and, when tracing, attaches a
        ``kernel:fallback`` event to the innermost open span.
        """
        self.counters.kernels_fallback += 1
        self._event("kernel:fallback", subject=repr(subject))

    def _event(self, name: str, **attrs: object) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.current is not None:
            tracer.event(tracer.current, name, **attrs)


# -- public entry points -----------------------------------------------------


def build_stream(
    plan: PhysicalPlan,
    window: Span,
    counters: ExecutionCounters,
    guard: Optional[QueryGuard] = None,
    tracer: Optional[Tracer] = None,
) -> Iterator[StreamItem]:
    """The row stream of a stream-mode plan node, outside a lane."""
    return ExecContext(counters, guard, tracer).stream(plan, window)


def build_batch_stream(
    plan: PhysicalPlan,
    window: Span,
    counters: ExecutionCounters,
    batch_size: int = DEFAULT_BATCH_SIZE,
    guard: Optional[QueryGuard] = None,
    tracer: Optional[Tracer] = None,
) -> BatchStream:
    """The batch stream of a stream-mode plan node, outside a lane.

    Raises:
        ExecutionError: for a ``batch_size`` below 1.
    """
    return ExecContext(counters, guard, tracer, batch_size).batches(plan, window)


def build_prober(
    plan: PhysicalPlan,
    counters: ExecutionCounters,
    guard: Optional[QueryGuard] = None,
    tracer: Optional[Tracer] = None,
) -> Prober:
    """The prober of a probe-mode plan node, outside a lane."""
    return ExecContext(counters, guard, tracer).prober(plan)
