"""Probed-mode plan execution.

A *prober* answers "the record at position p" for a plan output — the
paper's probed access mode.  Probers for non-unit-scope operators
implement the naive algorithms of Section 4.1.2 by reusing the logical
operators' denotational ``value_at`` over a prober-backed sequence
view, so probed semantics are identical to the reference semantics by
construction.

Every prober is constructed as ``Prober(ctx, plan)`` and opens its
children through the execution context (``ctx.prober`` for probed
inputs, ``ctx.stream`` for the input a global aggregate consumes
whole) — see :mod:`repro.execution.context`.  The guard (when the
context has one) is observed at the probe sites: a source prober
checkpoints it every ``check_stride`` probes.
"""

from __future__ import annotations

import abc
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.errors import ExecutionError
from repro.model.record import NULL, Record, RecordOrNull
from repro.model.schema import RecordSchema
from repro.model.sequence import Sequence
from repro.model.span import Span
from repro.model.types import AtomType
from repro.algebra.aggregate import GlobalAggregate
from repro.algebra.expressions import Expr, compile_rowwise
from repro.algebra.leaves import ConstantLeaf, SequenceLeaf
from repro.execution.sliding import CumulativeAggregator
from repro.optimizer.plans import PhysicalPlan

if TYPE_CHECKING:
    from repro.execution.context import ExecContext


class Prober(abc.ABC):
    """Point access to a plan's output."""

    def __init__(self, schema: RecordSchema, span: Span):
        self.schema = schema
        self.span = span

    @abc.abstractmethod
    def get(self, position: int) -> RecordOrNull:
        """The output record at ``position``."""


class ProberSequence(Sequence):
    """A :class:`~repro.model.sequence.Sequence` view over a prober.

    Lets logical operators' ``value_at`` run against physical probers —
    the executor's implementation of the naive algorithms.
    """

    def __init__(self, prober: Prober):
        self._prober = prober

    @property
    def schema(self) -> RecordSchema:
        return self._prober.schema

    @property
    def span(self) -> Span:
        return self._prober.span

    def at(self, position: int) -> RecordOrNull:
        return self._prober.get(position)

    def iter_nonnull(self, within: Optional[Span] = None) -> Iterator[tuple[int, Record]]:
        window = self.effective_window(within)
        for position in window.positions():
            record = self._prober.get(position)
            if record is not NULL:
                yield position, record


class SourceProber(Prober):
    """Probe a base or constant sequence directly."""

    def __init__(self, ctx: ExecContext, plan: PhysicalPlan):
        super().__init__(plan.schema, plan.span)
        leaf = plan.node
        if isinstance(leaf, SequenceLeaf):
            self._sequence = leaf.sequence
        elif isinstance(leaf, ConstantLeaf):
            self._sequence = leaf.constant
        else:
            raise ExecutionError(f"probe-source plan without a leaf node: {plan.kind}")
        self._counters = ctx.counters
        self._guard = ctx.guard
        self._unchecked = 0  # probes since the last guard checkpoint

    def get(self, position: int) -> RecordOrNull:
        if self._guard is not None:
            self._unchecked = (self._unchecked + 1) % self._guard.check_stride
            if not self._unchecked:
                self._guard.checkpoint()
        self._counters.probes_issued += 1
        return self._sequence.get(position)


def row_predicate(
    ctx: ExecContext, predicate: Optional[Expr], schema: RecordSchema
) -> Optional[Callable[[tuple], object]]:
    """``predicate`` as one fused closure over a values tuple (None stays None)."""
    if predicate is None:
        return None
    return compile_rowwise(predicate, schema, on_fallback=ctx.interpreted)


def _gather(pick: tuple[int, ...]) -> Callable[[Any], tuple]:
    """``values -> tuple(values[i] for i in pick)`` for a non-empty ``pick``."""
    if len(pick) > 1:
        return itemgetter(*pick)
    (index,) = pick
    return lambda values: (values[index],)


def chain_steps(
    ctx: ExecContext, plan: PhysicalPlan, select: Optional[Callable[..., Any]] = None
) -> tuple[int, bool, list]:
    """Compile a chain's steps once: ``(shift, reshaped, ops)``.

    The schema flows through ``plan.steps`` once.  A select becomes
    ``(select(predicate, schema), None)`` against the schema at
    its step (a :func:`row_predicate` by default), a project ``(None,
    gather)`` over a values tuple or a column list; a rename only swaps
    the schema and the shifts sum to ``shift``.  ``reshaped``: a project
    or rename ran, so the chain's rows need ``plan.schema``.
    """
    shift, reshaped, ops = 0, False, []
    schema = plan.children[0].schema
    for step in plan.steps:
        if step.kind == "select" and select is not None:
            ops.append((select(step.predicate, schema), None))
        elif step.kind == "select":
            ops.append((row_predicate(ctx, step.predicate, schema), None))
        elif step.kind == "project":
            ops.append((None, _gather(tuple(schema.index_of(n) for n in step.names))))
            schema = schema.project(step.names)
        elif step.kind == "rename":
            schema = step.schema
        else:
            shift += step.offset
        reshaped = reshaped or step.kind in ("project", "rename")
    return shift, reshaped, ops


class ChainProber(Prober):
    """Apply unit-scope steps on top of a child prober."""

    def __init__(self, ctx: ExecContext, plan: PhysicalPlan):
        super().__init__(plan.schema, plan.span)
        self._child = ctx.prober(plan.children[0])
        self._shift, self._reshaped, self._ops = chain_steps(ctx, plan)
        self._counters = ctx.counters

    def get(self, position: int) -> RecordOrNull:
        record = self._child.get(position + self._shift)
        if record is NULL:
            return NULL
        values = record.values
        for predicate, gather in self._ops:
            if gather is None:
                self._counters.predicate_evals += 1
                if not predicate(values):
                    return NULL
            else:
                values = gather(values)
        return Record.unchecked(self.schema, values) if self._reshaped else record


class JoinProber(Prober):
    """Probed-mode positional join (Section 4.1.3's probed formula)."""

    def __init__(self, ctx: ExecContext, plan: PhysicalPlan):
        super().__init__(plan.schema, plan.span)
        left, right = ctx.prober(plan.children[0]), ctx.prober(plan.children[1])
        self._right_first = plan.strategy == "probe-right-first"
        self._order = (right, left) if self._right_first else (left, right)
        self._predicate = row_predicate(ctx, plan.predicate, plan.schema)
        self._counters = ctx.counters

    def get(self, position: int) -> RecordOrNull:
        first, second = self._order
        one = first.get(position)
        if one is NULL:
            return NULL
        other = second.get(position)
        if other is NULL:
            return NULL
        left, right = (other, one) if self._right_first else (one, other)
        # Both halves come from validated records: no re-validation.
        values = left.values + right.values
        if self._predicate is not None:
            self._counters.predicate_evals += 1
            if not self._predicate(values):
                return NULL
        return Record.unchecked(self.schema, values)


class NaiveUnaryProber(Prober):
    """Naive probed evaluation of a non-unit-scope operator.

    Delegates to the logical operator's ``value_at`` over the child
    prober — exactly the "repeated retrievals" algorithm the caching
    strategies improve on.
    """

    def __init__(self, ctx: ExecContext, plan: PhysicalPlan):
        super().__init__(plan.schema, plan.span)
        if plan.node is None:
            raise ExecutionError(f"{plan.kind} plan missing its logical node")
        self._node = plan.node
        self._source = ProberSequence(ctx.prober(plan.children[0]))

    def get(self, position: int) -> RecordOrNull:
        return self._node.value_at([self._source], position)


def global_record(ctx: ExecContext, plan: PhysicalPlan) -> RecordOrNull:
    """A global-agg plan's one answer record, folded over its whole input."""
    node = plan.node
    if not isinstance(node, GlobalAggregate):
        raise ExecutionError("global-agg plan without a GlobalAggregate node")
    child_plan = plan.children[0]
    value = CumulativeAggregator.fold(
        node.func,
        ((record.get(node.attr),) for _pos, record in ctx.stream(child_plan, child_plan.span)),
        plan.schema.attributes[0].atype is AtomType.FLOAT,
    )
    return NULL if value is None else Record(plan.schema, (value,))


class GlobalAggProber(Prober):
    """Whole-sequence aggregate: computed once on first probe."""

    def __init__(self, ctx: ExecContext, plan: PhysicalPlan):
        super().__init__(plan.schema, plan.span)
        self._ctx = ctx
        self._plan = plan
        self._value: Optional[RecordOrNull] = None

    def get(self, position: int) -> RecordOrNull:
        if self._value is None:
            self._value = global_record(self._ctx, self._plan)
        return self._value if position in self.span else NULL
