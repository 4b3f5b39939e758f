"""Probed-mode plan execution.

A *prober* answers "the record at position p" for a plan output — the
paper's probed access mode.  Probers for non-unit-scope operators
implement the naive algorithms of Section 4.1.2 by reusing the logical
operators' denotational ``value_at`` over a prober-backed sequence
view, so probed semantics are identical to the reference semantics by
construction.

Every prober is constructed as ``Prober(ctx, plan)`` and opens its
children through the execution context (``ctx.prober`` for probed
inputs, ``ctx.stream`` for the inputs global-agg and materialize
consume whole) — see :mod:`repro.execution.context`.  The guard (when
the context has one) is observed at the probe sites: source probes
tick it, and the materialize prober charges its table against the
cache-entries budget.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import ExecutionError
from repro.model.record import NULL, Record, RecordOrNull
from repro.model.schema import RecordSchema
from repro.model.sequence import Sequence
from repro.model.span import Span
from repro.model.types import AtomType
from repro.algebra.aggregate import GlobalAggregate
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

    def get(self, position: int) -> RecordOrNull:
        if self._guard is not None:
            self._guard.tick()
        self._counters.probes_issued += 1
        return self._sequence.get(position)


class ChainProber(Prober):
    """Apply unit-scope steps on top of a child prober."""

    def __init__(self, ctx: ExecContext, plan: PhysicalPlan):
        super().__init__(plan.schema, plan.span)
        self._child = ctx.prober(plan.children[0])
        self._steps = plan.steps
        self._shift = sum(step.offset for step in plan.steps if step.kind == "shift")
        self._counters = ctx.counters

    def get(self, position: int) -> RecordOrNull:
        record = self._child.get(position + self._shift)
        if record is NULL:
            return NULL
        for step in self._steps:
            if step.kind == "select":
                self._counters.predicate_evals += 1
                if not step.predicate.eval(record):
                    return NULL
            elif step.kind == "project":
                record = record.project(step.names)
            elif step.kind == "rename":
                record = Record(step.schema, record.values)
            # shifts were folded into the probe position
        return record


class JoinProber(Prober):
    """Probed-mode positional join (Section 4.1.3's probed formula)."""

    def __init__(self, ctx: ExecContext, plan: PhysicalPlan):
        super().__init__(plan.schema, plan.span)
        self._left = ctx.prober(plan.children[0])
        self._right = ctx.prober(plan.children[1])
        self._predicate = plan.predicate
        self._right_first = plan.strategy == "probe-right-first"
        self._counters = ctx.counters

    def get(self, position: int) -> RecordOrNull:
        if self._right_first:
            right = self._right.get(position)
            if right is NULL:
                return NULL
            left = self._left.get(position)
            if left is NULL:
                return NULL
        else:
            left = self._left.get(position)
            if left is NULL:
                return NULL
            right = self._right.get(position)
            if right is NULL:
                return NULL
        combined = Record(self.schema, left.values + right.values)
        if self._predicate is not None:
            self._counters.predicate_evals += 1
            if not self._predicate.eval(combined):
                return NULL
        return combined


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


class GlobalAggProber(Prober):
    """Whole-sequence aggregate: computed once on first probe."""

    def __init__(self, ctx: ExecContext, plan: PhysicalPlan):
        super().__init__(plan.schema, plan.span)
        self._ctx = ctx
        self._plan = plan
        self._computed = False
        self._value: RecordOrNull = NULL

    def _compute(self) -> None:
        node = self._plan.node
        if not isinstance(node, GlobalAggregate):
            raise ExecutionError("global-agg plan without a GlobalAggregate node")
        child_plan = self._plan.children[0]
        value = CumulativeAggregator.fold(
            node.func,
            (
                (record.get(node.attr),)
                for _pos, record in self._ctx.stream(child_plan, child_plan.span)
            ),
            self.schema.attributes[0].atype is AtomType.FLOAT,
        )
        if value is not None:
            self._value = Record(self.schema, (value,))
        self._computed = True

    def get(self, position: int) -> RecordOrNull:
        if not self._computed:
            self._compute()
        if position not in self.span:
            return NULL
        return self._value


class MaterializeProber(Prober):
    """Materialize a stream on first probe, then answer from memory.

    The Section 5.3 extension: pays one child stream, then each probe
    is a dictionary lookup (charged as a cache operation).
    """

    def __init__(self, ctx: ExecContext, plan: PhysicalPlan):
        super().__init__(plan.schema, plan.span)
        self._ctx = ctx
        self._plan = plan
        self._counters = ctx.counters
        self._table: Optional[dict[int, Record]] = None

    def _build(self) -> None:
        child_plan = self._plan.children[0]
        self._table = {}
        guard = self._ctx.guard
        for position, record in self._ctx.stream(child_plan, child_plan.span):
            self._table[position] = record
            self._counters.cache_ops += 1
            if guard is not None:
                # The materialization table is an operator cache: its
                # growth is charged against the cache-entries budget.
                guard.note_cache(len(self._table))

    def get(self, position: int) -> RecordOrNull:
        if self._table is None:
            self._build()
        self._counters.cache_ops += 1
        if self._table is None:
            raise ExecutionError("materialize prober failed to build its table")
        return self._table.get(position, NULL)
