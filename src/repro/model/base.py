"""Materialized base sequences.

A base sequence (paper Section 2) explicitly associates positions with
records; all other positions map to the Null record.  This in-memory
implementation backs tests, the naive evaluator, and query outputs; the
disk-resident variant lives in :mod:`repro.storage`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, Optional, Sequence as PySequence

from repro.errors import SchemaError, SpanError
from repro.model.batch import column_to_list, concat_columns, typed_column
from repro.model.record import NULL, Record, RecordOrNull
from repro.model.schema import RecordSchema
from repro.model.sequence import ColumnRun, Sequence
from repro.model.span import Span


class BaseSequence(Sequence):
    """An explicit, immutable mapping from positions to records."""

    def __init__(
        self,
        schema: RecordSchema,
        items: Iterable[tuple[int, Record]],
        span: Optional[Span] = None,
    ):
        """Build a base sequence.

        Args:
            schema: the record schema; every record must conform to it.
            items: ``(position, record)`` pairs; positions must be unique.
            span: the valid range.  Defaults to the tight hull of the
                item positions (empty if there are no items).  Items
                outside an explicit span are rejected.
        """
        mapping: dict[int, Record] = {}
        for position, record in items:
            if not isinstance(position, int) or isinstance(position, bool):
                raise SpanError(f"position must be an int, got {position!r}")
            if record is NULL:
                continue  # explicit Nulls are simply empty positions
            if not isinstance(record, Record):
                raise SchemaError(f"expected Record at position {position}, got {record!r}")
            if record.schema != schema:
                raise SchemaError(
                    f"record at position {position} has schema {record.schema!r}, "
                    f"expected {schema!r}"
                )
            if position in mapping:
                raise SpanError(f"duplicate position {position}")
            mapping[position] = record

        positions = sorted(mapping)
        if span is None:
            if positions:
                span = Span(positions[0], positions[-1])
            else:
                span = Span.EMPTY
        else:
            for position in positions:
                if position not in span:
                    raise SpanError(
                        f"position {position} lies outside declared span {span}"
                    )

        self._schema = schema
        self._span = span
        self._positions = positions
        self._records = mapping

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_values(
        cls,
        schema: RecordSchema,
        rows: Iterable[tuple[int, PySequence[object]]],
        span: Optional[Span] = None,
    ) -> "BaseSequence":
        """Build from ``(position, raw_values)`` pairs."""
        return cls(
            schema,
            ((pos, Record(schema, values)) for pos, values in rows),
            span=span,
        )

    @classmethod
    def from_dicts(
        cls,
        schema: RecordSchema,
        rows: Mapping[int, Mapping[str, object]],
        span: Optional[Span] = None,
    ) -> "BaseSequence":
        """Build from a ``position -> {attr: value}`` mapping."""
        return cls(
            schema,
            (
                (pos, Record(schema, tuple(values[n] for n in schema.names)))
                for pos, values in rows.items()
            ),
            span=span,
        )

    @classmethod
    def empty(cls, schema: RecordSchema, span: Span = Span.EMPTY) -> "BaseSequence":
        """A sequence with no non-Null positions."""
        return cls(schema, (), span=span)

    @classmethod
    def unchecked(
        cls,
        schema: RecordSchema,
        pairs: PySequence[tuple[int, Record]],
        span: Span,
    ) -> "BaseSequence":
        """Build without re-validating items (trusted engine path).

        ``pairs`` must hold unique, ascending positions inside ``span``
        with records conforming to ``schema`` — exactly what a stream
        evaluation produces.  The counterpart of
        :meth:`~repro.model.record.Record.unchecked` at the sequence
        level.
        """
        sequence = object.__new__(cls)
        sequence._schema = schema
        sequence._span = span
        sequence._positions = [position for position, _record in pairs]
        sequence._records = dict(pairs)
        return sequence

    @classmethod
    def concatenated(cls, pieces: PySequence["BaseSequence"], span: Span) -> "BaseSequence":
        """``pieces`` (one schema, at least one) end to end over ``span``.

        As trusted as :meth:`unchecked`: the caller vouches that the
        joined :attr:`positions` ascend strictly inside ``span``.
        All-columnar pieces stay columnar (one buffer concatenation per
        attribute); anything else joins the position→record mappings.
        """
        schema = pieces[0].schema
        positions = list(chain.from_iterable(piece._positions for piece in pieces))
        if all(isinstance(piece, ColumnarAnswer) for piece in pieces):
            columns = zip(*(piece._columns for piece in pieces))
            return ColumnarAnswer(schema, span, positions, map(concat_columns, columns))
        sequence = object.__new__(cls)
        sequence._schema = schema
        sequence._span = span
        sequence._positions = positions
        sequence._records = {}
        for piece in pieces:
            sequence._records.update(piece._records)
        return sequence

    # -- Sequence interface --------------------------------------------------

    @property
    def schema(self) -> RecordSchema:
        return self._schema

    @property
    def span(self) -> Span:
        return self._span

    def at(self, position: int) -> RecordOrNull:
        return self._records.get(position, NULL)

    def _index_range(self, within: Optional[Span]) -> tuple[int, int]:
        """The slice of ``_positions`` lying inside ``within`` (and the span)."""
        window = self._span if within is None else self._span.intersect(within)
        return window.index_range(self._positions)

    def iter_nonnull(self, within: Optional[Span] = None) -> Iterator[tuple[int, Record]]:
        lo, hi = self._index_range(within)
        for position in self._positions[lo:hi]:
            yield position, self._records[position]

    def count_nonnull(self, within: Optional[Span] = None) -> int:
        """Number of non-Null positions, by bisection: no record is touched."""
        lo, hi = self._index_range(within)
        return hi - lo

    def nonnull_columns(
        self, within: Optional[Span] = None
    ) -> tuple[list[int], tuple[object, ...]]:
        """All items in ``within`` as positions plus per-attribute columns.

        The columnar counterpart of :meth:`iter_nonnull` for batch
        scans: the full sequence is transposed into typed column
        buffers once (cached — the sequence is immutable) and window
        requests are answered with O(columns) buffer slices, so a scan
        never touches per-record Python objects.

        Returns:
            ``(positions, columns)`` where ``columns`` has one buffer
            per schema attribute, parallel to ``positions``.
        """
        cache = getattr(self, "_column_cache", None)
        if cache is None:
            attributes = self._schema.attributes
            positions = self._positions
            records = self._records
            if positions:
                rows = [records[position].values for position in positions]
                raw = list(zip(*rows))
            else:
                raw = [() for _ in attributes]
            cache = tuple(
                typed_column(list(values), attribute.atype)
                for values, attribute in zip(raw, attributes)
            )
            self._column_cache = cache
        lo, hi = self._index_range(within)
        if lo == 0 and hi == len(self._positions):
            return self._positions, cache
        return self._positions[lo:hi], tuple(column[lo:hi] for column in cache)

    def column_runs(self, within: Optional[Span], width: int) -> Iterator[ColumnRun]:
        """The cached buffers of :meth:`nonnull_columns`, as the one run."""
        yield self.nonnull_columns(within)

    # -- extras ---------------------------------------------------------------

    def __len__(self) -> int:
        """Number of non-Null positions."""
        return len(self._positions)

    @property
    def positions(self) -> PySequence[int]:
        """The non-Null positions, ascending (shared: read, never mutate)."""
        return self._positions

    def first_position(self) -> Optional[int]:
        """The smallest non-Null position, or None."""
        return self._positions[0] if self._positions else None

    def last_position(self) -> Optional[int]:
        """The largest non-Null position, or None."""
        return self._positions[-1] if self._positions else None

    def restricted(self, span: Span) -> "BaseSequence":
        """This sequence clipped to ``span``: a window, not a copy."""
        return SequenceWindow(self, self._span.intersect(span))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BaseSequence):
            return NotImplemented
        return (
            self._schema == other._schema
            and self._records == other._records
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self._schema, tuple(sorted(self._records.items()))))

    def __repr__(self) -> str:
        return (
            f"BaseSequence(schema={self._schema!r}, span={self._span!r}, "
            f"records={len(self._positions)})"
        )


class ColumnarAnswer(BaseSequence):
    """A batch-mode query answer kept in columnar form.

    The batch executor finishes with compacted per-attribute column
    buffers; transposing them into one :class:`Record` per position
    eagerly can cost more than the whole pipeline for large answers.
    This subclass stores the columnar form instead: columnar consumers
    (:meth:`BaseSequence.nonnull_columns` — and therefore a follow-up
    batch query over the answer) are served O(columns) slices of the
    stored buffers, while the records that row-wise access needs are
    materialized lazily, once, on first use: a list parallel to the
    positions, which ``iter_nonnull`` zips in one pass, and — only when
    ``at`` or equality ask for it — the position→record mapping over
    the same :class:`Record` objects.

    Instances are built only by the engine; ``positions`` must be
    unique and ascending inside ``span`` and ``columns`` must hold one
    buffer per schema attribute, parallel to ``positions``.
    """

    def __init__(
        self,
        schema: RecordSchema,
        span: Span,
        positions: list[int],
        columns: PySequence[object],
    ):
        self._schema = schema
        self._span = span
        self._positions = positions
        self._columns = tuple(columns)
        # BaseSequence.nonnull_columns reads this cache attribute:
        # pre-seeding it means follow-up scans reuse the answer's
        # buffers without ever re-transposing records.
        self._column_cache = self._columns

    @cached_property
    def _record_list(self) -> list[Record]:
        """One :class:`Record` per position, parallel to ``_positions``."""
        rows: Iterable[tuple]
        if self._columns:
            rows = zip(*(column_to_list(column) for column in self._columns))
        else:
            rows = repeat((), len(self._positions))
        return list(map(Record.unchecked, repeat(self._schema), rows))

    @cached_property
    def _records(self) -> dict[int, Record]:
        """The position → record mapping ``at`` and equality read."""
        return dict(zip(self._positions, self._record_list))

    def iter_nonnull(self, within: Optional[Span] = None) -> Iterator[tuple[int, Record]]:
        lo, hi = self._index_range(within)
        records = self._record_list
        if lo == 0 and hi == len(records):
            return zip(self._positions, records)
        return zip(self._positions[lo:hi], records[lo:hi])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarAnswer):
            return super().__eq__(other)
        # The record-wise verdict, without building a record on either side.
        return (
            self._schema == other._schema
            and self._positions == other._positions
            and all(
                column_to_list(mine) == column_to_list(theirs)
                for mine, theirs in zip(self._columns, other._columns)
            )
        )

    __hash__ = BaseSequence.__hash__


class SequenceWindow(BaseSequence):
    """What an in-memory sequence holds inside one window, and nothing else.

    What :meth:`BaseSequence.restricted` hands out, and so every leaf of
    a certified partition.  The positions are the bisected slice of the
    parent's; the two representations the inherited accessors read come
    from the parent on first use — column buffers as slices of its
    cached ones (numpy views), the position→record mapping over its own
    :class:`Record` objects (``at`` and ``==`` only; a stream scan
    needs neither) — so a batch lane never builds a mapping, a row lane
    never a column, and no accessor reaches outside the window.
    """

    def __init__(self, parent: BaseSequence, window: Span):
        lo, hi = parent._index_range(window)
        self._schema = parent._schema
        self._span = window
        self._positions = parent._positions[lo:hi]
        self._parent = parent

    @cached_property
    def _column_cache(self) -> tuple[object, ...]:
        return self._parent.nonnull_columns(self._span)[1]

    @cached_property
    def _records(self) -> dict[int, Record]:
        records = self._parent._records
        return dict(zip(self._positions, map(records.__getitem__, self._positions)))

    def iter_nonnull(self, within: Optional[Span] = None) -> Iterator[tuple[int, Record]]:
        """A stream scan reads the parent's records as it goes: no mapping."""
        lo, hi = self._index_range(within)
        positions = self._positions[lo:hi]
        return zip(positions, map(self._parent._records.__getitem__, positions))
