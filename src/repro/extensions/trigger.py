"""Push-based incremental (trigger) evaluation — the Section 5.3 extension.

"In applications where the data sequences are dynamic, and where the
queries are acting as triggers, it may be important to optimize the
incremental cost of processing each new arriving data item."

The :class:`TriggerEngine` compiles a query into a pipeline of push
processors.  Records arrive one at a time in globally non-decreasing
position order; each arrival flows through the pipeline and the engine
returns the newly determined output records.  Per-arrival work is O(1)
(amortized) for the incremental operator subset.

Two emission kinds flow through the pipeline:

* **point** emissions — a record at one position (selections,
  projections, shifts, aggregates-as-of-arrival, compose outputs);
* **held** emissions — a register update: "from position ``valid_from``
  onward, this subtree's value is ``record``".  Backward value offsets
  produce held updates — exactly the paper's Example 1.1 narration
  ("the most recent earthquake record scanned can be stored in a
  temporary buffer; whenever a volcano record is processed, the value
  stored in the buffer is checked").  A compose with one held side
  keeps the register and joins each point arrival of the other side
  against it.

Semantics notes: aggregates emit *at arrival positions* (the "as-of
each new item" reading of a trigger).  Operators with no incremental
form — forward value offsets, global aggregates — are rejected at
compile time, as are queries whose root would be a held stream.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Optional, Union

from repro.errors import ExecutionError, QueryError
from repro.model.record import NULL, Record, RecordOrNull
from repro.model.types import AtomType
from repro.algebra.aggregate import CumulativeAggregate, WindowAggregate
from repro.algebra.compose import Compose
from repro.algebra.graph import Query
from repro.algebra.leaves import ConstantLeaf, SequenceLeaf
from repro.algebra.node import Operator
from repro.algebra.offsets import PositionalOffset, ValueOffset
from repro.algebra.project import Project
from repro.algebra.select import Select
from repro.execution.sliding import CumulativeAggregator, make_sliding

PointEmission = tuple[str, int, Record]  # ("point", position, record)
HeldEmission = tuple[str, int, RecordOrNull]  # ("held", valid_from, record|NULL)
Emission = Union[PointEmission, HeldEmission]

POINT = "point"
HELD = "held"


class PushProcessor(abc.ABC):
    """One operator of the push pipeline."""

    #: Whether this processor's output stream is point or held.
    output_kind: str = POINT

    def __init__(self):
        self.ops = 0  # work units, for per-arrival cost accounting
        self.parents: list[tuple] = []  # routing set up by the engine

    @abc.abstractmethod
    def push(self, emission: Emission) -> list[Emission]:
        """Process one input emission; return output emissions."""


class _SourceProc(PushProcessor):
    """The entry point for one named input sequence."""

    def push(self, emission: Emission) -> list[Emission]:
        self.ops += 1
        return [emission]


class _SelectProc(PushProcessor):
    def __init__(self, node: Select, input_kind: str):
        super().__init__()
        self._predicate = node.predicate
        self.output_kind = input_kind

    def push(self, emission: Emission) -> list[Emission]:
        self.ops += 1
        kind, position, record = emission
        if kind == HELD:
            if record is NULL or not self._predicate.eval(record):
                return [(HELD, position, NULL)]
            return [emission]
        if self._predicate.eval(record):
            return [emission]
        return []


class _ProjectProc(PushProcessor):
    def __init__(self, node: Project, input_kind: str):
        super().__init__()
        self._names = node.names
        self._schema = node.schema
        self.output_kind = input_kind

    def push(self, emission: Emission) -> list[Emission]:
        self.ops += 1
        kind, position, record = emission
        if record is NULL:
            return [emission]
        values = tuple(record.get(name) for name in self._names)
        return [(kind, position, Record(self._schema, values))]


class _ShiftProc(PushProcessor):
    def __init__(self, node: PositionalOffset, input_kind: str):
        super().__init__()
        self._offset = node.offset
        self.output_kind = input_kind

    def push(self, emission: Emission) -> list[Emission]:
        self.ops += 1
        kind, position, record = emission
        # out(i) = in(i + offset): a point at p surfaces at p - offset;
        # a register valid from p covers outputs from p - offset.
        return [(kind, position - self._offset, record)]


class _ValueOffsetProc(PushProcessor):
    """Backward value offsets as held-register updates (Cache-Strategy-B)."""

    output_kind = HELD

    def __init__(self, node: ValueOffset):
        super().__init__()
        if not node.looks_back:
            raise QueryError(
                "trigger mode cannot evaluate forward value offsets (next)"
            )
        self._reach = node.reach
        self._buffer: deque[Record] = deque()

    def push(self, emission: Emission) -> list[Emission]:
        self.ops += 1
        _kind, position, record = emission
        self._buffer.append(record)
        if len(self._buffer) > self._reach:
            self._buffer.popleft()
        if len(self._buffer) == self._reach:
            return [(HELD, position + 1, self._buffer[0])]
        return []


class _WindowAggProc(PushProcessor):
    """Trailing-window aggregates via Cache-Strategy-A, as-of arrivals."""

    def __init__(self, node: WindowAggregate):
        super().__init__()
        self._node = node
        self._agg = make_sliding(node.func)

    def push(self, emission: Emission) -> list[Emission]:
        self.ops += 1
        _kind, position, record = emission
        self._agg.add(position, record.get(self._node.attr))
        self._agg.evict_below(position - self._node.width + 1)
        value = self._agg.result()
        if self._node.schema.attributes[0].atype is AtomType.FLOAT:
            value = float(value)  # type: ignore[arg-type]
        return [(POINT, position, Record(self._node.schema, (value,)))]


class _CumulativeProc(PushProcessor):
    """Running aggregates, as-of arrivals."""

    def __init__(self, node: CumulativeAggregate):
        super().__init__()
        self._node = node
        self._agg = CumulativeAggregator(node.func)

    def push(self, emission: Emission) -> list[Emission]:
        self.ops += 1
        _kind, position, record = emission
        self._agg.add(record.get(self._node.attr))
        value = self._agg.result()
        if self._node.schema.attributes[0].atype is AtomType.FLOAT:
            value = float(value)  # type: ignore[arg-type]
        return [(POINT, position, Record(self._node.schema, (value,)))]


class _ComposeProc(PushProcessor):
    """Positional join of two arrival streams.

    Point×point sides match on equal positions; a held side acts as a
    register the point side joins against.
    """

    def __init__(self, node: Compose, kinds: tuple[str, str]):
        super().__init__()
        if kinds == (HELD, HELD):
            raise QueryError("trigger mode cannot compose two held streams")
        self._node = node
        self._kinds = kinds
        self._pending: tuple[dict[int, Record], dict[int, Record]] = ({}, {})
        # highest point-emission position seen per side (None = none yet)
        self._watermarks: list[Optional[int]] = [None, None]
        # Held sides keep a short history of (valid_from, record)
        # updates: an update for later positions must not clobber the
        # value still current for earlier ones (e.g. a shifted held
        # stream runs ahead of the point side's arrivals).
        self._register: tuple[list, list] = ([], [])

    def _register_lookup(self, side: int, position: int) -> RecordOrNull:
        """The held value current at ``position`` (latest valid_from <= it)."""
        history = self._register[side]
        current: RecordOrNull = NULL
        for valid_from, record in history:
            if valid_from <= position:
                current = record
            else:
                break
        # GC: drop entries superseded at or before this position
        # (arrivals are non-decreasing, so they can never be asked again)
        while len(history) >= 2 and history[1][0] <= position:
            history.pop(0)
            self.ops += 1
        return current

    def push_side(self, side: int, emission: Emission) -> list[Emission]:
        """An arrival on one side of the compose."""
        self.ops += 1
        kind, position, record = emission
        other = 1 - side
        if kind == HELD:
            history = self._register[side]
            if history and history[-1][0] >= position:
                # same or older validity: the newer update wins outright
                history[-1] = (position, record)
            else:
                history.append((position, record))
            return []
        if self._kinds[other] == HELD:
            held = self._register_lookup(other, position)
            if held is NULL:
                return []
            pair = (record, held) if side == 0 else (held, record)
            return self._combine(position, *pair)
        # point × point: match on equal positions
        self._watermarks[side] = position
        match = self._pending[other].pop(position, None)
        if match is None:
            self._pending[side][position] = record
            self._gc()
            return []
        pair = (record, match) if side == 0 else (match, record)
        return self._combine(position, *pair)

    def _combine(self, position: int, left: Record, right: Record) -> list[Emission]:
        combined = Record(self._node.schema, left.values + right.values)
        if self._node.predicate is not None and not self._node.predicate.eval(combined):
            return []
        return [(POINT, position, combined)]

    def _gc(self) -> None:
        """Drop pending entries that can never match again.

        Each side's *emission* positions are non-decreasing (arrivals
        are non-decreasing and every path applies constant shifts), so
        an unmatched entry on one side is dead once the other side's
        emissions have moved strictly past it.  Note the other side may
        lag the arrival clock (e.g. a shifted input), so the arrival
        position itself is not a safe horizon.
        """
        for side in (0, 1):
            other_watermark = self._watermarks[1 - side]
            if other_watermark is None:
                continue
            pending = self._pending[side]
            stale = [q for q in pending if q < other_watermark]
            for q in stale:
                del pending[q]
                self.ops += 1

    def push(self, emission: Emission) -> list[Emission]:  # pragma: no cover
        raise ExecutionError("compose processors are pushed per side")


class TriggerEngine:
    """A query compiled for push-based incremental evaluation.

    Args:
        query: the declarative query.  Supported operators: select,
            project, shift, previous / backward value offsets, window
            and cumulative aggregates, compose.

    Raises:
        QueryError: if the query uses an operator with no incremental
            form, or its root would be a held stream.
    """

    def __init__(self, query: Query):
        self.query = query
        self._routes: dict[str, list[_SourceProc]] = {}
        self._arrivals = 0
        self._pipeline: list[PushProcessor] = []
        root_proc = self._compile(query.root)
        if root_proc.output_kind == HELD:
            raise QueryError(
                "the query root is a held stream (a bare value offset); "
                "compose it with a point stream to trigger on"
            )
        self._last_position: Optional[int] = None

    # -- compilation --------------------------------------------------------

    def _register_proc(self, proc: PushProcessor) -> PushProcessor:
        self._pipeline.append(proc)
        return proc

    def _compile(self, node: Operator) -> PushProcessor:
        if isinstance(node, SequenceLeaf):
            proc = _SourceProc()
            self._routes.setdefault(node.alias, []).append(proc)
            return self._register_proc(proc)
        if isinstance(node, ConstantLeaf):
            raise QueryError("trigger mode does not support constant sequences")

        if isinstance(node, Compose):
            left = self._compile(node.inputs[0])
            right = self._compile(node.inputs[1])
            proc = _ComposeProc(node, (left.output_kind, right.output_kind))
            left.parents.append((proc, 0))
            right.parents.append((proc, 1))
            return self._register_proc(proc)

        child = self._compile(node.inputs[0])
        if isinstance(node, Select):
            proc = _SelectProc(node, child.output_kind)
        elif isinstance(node, Project):
            proc = _ProjectProc(node, child.output_kind)
        elif isinstance(node, PositionalOffset):
            proc = _ShiftProc(node, child.output_kind)
        elif isinstance(node, ValueOffset):
            if child.output_kind == HELD:
                raise QueryError("trigger mode cannot stack value offsets")
            proc = _ValueOffsetProc(node)
        elif isinstance(node, (WindowAggregate, CumulativeAggregate)):
            if child.output_kind == HELD:
                raise QueryError(
                    "trigger mode cannot aggregate over a value offset"
                )
            proc = (
                _WindowAggProc(node)
                if isinstance(node, WindowAggregate)
                else _CumulativeProc(node)
            )
        else:
            raise QueryError(
                f"operator {node.describe()!r} has no incremental form"
            )
        child.parents.append((proc, None))
        return self._register_proc(proc)

    # -- pushing ------------------------------------------------------------------

    def _flow(self, proc: PushProcessor, emissions: list[Emission]) -> list[Emission]:
        """Propagate emissions from a processor towards the root."""
        if not proc.parents:
            return [e for e in emissions if e[0] == POINT]
        outputs: list[Emission] = []
        for parent, side in proc.parents:
            for emission in emissions:
                if side is None:
                    produced = parent.push(emission)
                else:
                    produced = parent.push_side(side, emission)
                outputs.extend(self._flow(parent, produced))
        return outputs

    def push(self, source: str, position: int, record: Record) -> list[tuple[int, Record]]:
        """Process one arriving record.

        Args:
            source: the alias of the base sequence the record arrives on.
            position: the record's position; must be non-decreasing
                across all pushes.
            record: the new record.

        Returns:
            Newly determined output records, as (position, record).

        Raises:
            ExecutionError: on out-of-order arrivals or unknown sources.
        """
        if self._last_position is not None and position < self._last_position:
            raise ExecutionError(
                f"out-of-order arrival at {position} after {self._last_position}"
            )
        self._last_position = position
        procs = self._routes.get(source)
        if not procs:
            raise ExecutionError(
                f"unknown source {source!r}; expected one of {sorted(self._routes)}"
            )
        self._arrivals += 1
        outputs: list[Emission] = []
        for proc in procs:
            outputs.extend(self._flow(proc, proc.push((POINT, position, record))))
        return [(position_, record_) for _k, position_, record_ in outputs]

    # -- accounting ------------------------------------------------------------------

    @property
    def arrivals(self) -> int:
        """Number of records pushed so far."""
        return self._arrivals

    def total_ops(self) -> int:
        """Total processor work units since construction."""
        return sum(proc.ops for proc in self._pipeline)

    def ops_per_arrival(self) -> float:
        """Average work units per arriving record (the Section 5.3 metric)."""
        if self._arrivals == 0:
            return 0.0
        return self.total_ops() / self._arrivals
