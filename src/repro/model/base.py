"""Materialized base sequences.

A base sequence (paper Section 2) explicitly associates positions with
records; all other positions map to the Null record.  This in-memory
implementation backs tests, the naive evaluator, and query outputs; the
disk-resident variant lives in :mod:`repro.storage`.

One ascending position list carries two parallel views of the records
at those positions: ``_record_list`` (one :class:`Record` each) and
``_columns`` (one typed buffer per attribute).  Each view is derived
from the other on first use and cached, and every constructor seeds the
view it was handed, so a row-mode answer never builds a column and a
batch-mode answer never boxes a record unless a consumer asks.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, Optional, Sequence as PySequence

from repro.errors import SchemaError, SpanError
from repro.model.batch import Column, column_to_list, concat_columns, typed_column
from repro.model.record import NULL, Record, RecordOrNull
from repro.model.schema import RecordSchema
from repro.model.sequence import ColumnRun, Sequence
from repro.model.span import Span


class BaseSequence(Sequence):
    """An explicit, immutable mapping from positions to records."""

    #: The sequence a window view slices its views from; None otherwise.
    _parent: Optional["BaseSequence"] = None

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
        self._record_list = list(map(mapping.__getitem__, positions))

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
        span: Span,
        positions: list[int],
        *,
        records: Optional[list[Record]] = None,
        columns: Optional[Iterable[Column]] = None,
    ) -> "BaseSequence":
        """Build without re-validating anything (the trusted engine path).

        ``positions`` must be unique and ascending inside ``span``;
        ``records`` (conforming to ``schema``) or ``columns`` (one
        buffer per attribute) must run parallel to them — exactly what
        a drain produces.  The view given is the one held; the other is
        derived on first use.
        """
        sequence = object.__new__(cls)
        sequence._schema = schema
        sequence._span = span
        sequence._positions = positions
        if records is not None:
            sequence._record_list = records
        if columns is not None:
            sequence._columns = tuple(columns)
        return sequence

    @classmethod
    def concatenated(cls, pieces: PySequence["BaseSequence"], span: Span) -> "BaseSequence":
        """``pieces`` (one schema, at least one) end to end over ``span``.

        As trusted as :meth:`unchecked`: the caller vouches that the
        joined :attr:`positions` ascend strictly inside ``span``.  When
        every piece already holds its columns the buffers are joined,
        one concatenation per attribute; otherwise the record lists are.
        """
        schema = pieces[0]._schema
        positions = list(chain.from_iterable(piece._positions for piece in pieces))
        if all(piece._holds_columns() for piece in pieces):
            columns = map(concat_columns, zip(*(piece._columns for piece in pieces)))
            return cls.unchecked(schema, span, positions, columns=columns)
        records = list(chain.from_iterable(piece._record_list for piece in pieces))
        return cls.unchecked(schema, span, positions, records=records)

    # -- the two views -------------------------------------------------------

    def _holds_columns(self) -> bool:
        """Whether the columns view is built already (a window's, if its parent's is)."""
        return "_columns" in vars(self) or (
            self._parent is not None and self._parent._holds_columns()
        )

    @cached_property
    def _record_list(self) -> list[Record]:
        """One :class:`Record` per position, boxed from the columns."""
        rows: Iterable[tuple]
        if self._columns:
            rows = zip(*map(column_to_list, self._columns))
        else:
            rows = repeat((), len(self._positions))
        return list(map(Record.unchecked, repeat(self._schema), rows))

    @cached_property
    def _columns(self) -> tuple[Column, ...]:
        """One typed buffer per attribute, transposed from the records."""
        attributes = self._schema.attributes
        raw = list(zip(*(record.values for record in self._record_list)))
        if not raw:
            raw = [() for _ in attributes]
        return tuple(
            typed_column(list(values), attribute.atype)
            for values, attribute in zip(raw, attributes)
        )

    @cached_property
    def _records(self) -> dict[int, Record]:
        """The position → record mapping ``at`` reads."""
        return dict(zip(self._positions, self._record_list))

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
        """The pairs in ``within``, zipped in C: no Python frame per record."""
        lo, hi = self._index_range(within)
        records = self._record_list
        if lo == 0 and hi == len(records):
            return zip(self._positions, records)
        return zip(self._positions[lo:hi], records[lo:hi])

    def count_nonnull(self, within: Optional[Span] = None) -> int:
        """Number of non-Null positions, by bisection: no record is touched."""
        lo, hi = self._index_range(within)
        return hi - lo

    def column_runs(self, within: Optional[Span], width: int) -> Iterator[ColumnRun]:
        """Everything in ``within`` as the one run: the columns view, sliced.

        A full request is served the cached buffers themselves; a window
        gets O(columns) slices of them (numpy views on the vector
        backend), so a scan never touches a per-record Python object.
        """
        lo, hi = self._index_range(within)
        columns = self._columns
        if lo == 0 and hi == len(self._positions):
            yield self._positions, columns
        else:
            yield self._positions[lo:hi], tuple(column[lo:hi] for column in columns)

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
        return _Window(self, self._span.intersect(span))

    def __eq__(self, other: object) -> bool:
        """The record-wise verdict; as columns when both hold them (no boxing)."""
        if not isinstance(other, BaseSequence):
            return NotImplemented
        if self._schema != other._schema or self._positions != other._positions:
            return False
        if self._holds_columns() and other._holds_columns():
            return all(
                column_to_list(mine) == column_to_list(theirs)
                for mine, theirs in zip(self._columns, other._columns)
            )
        return self._record_list == other._record_list

    def __repr__(self) -> str:
        return (
            f"BaseSequence(schema={self._schema!r}, span={self._span!r}, "
            f"records={len(self._positions)})"
        )


class _Window(BaseSequence):
    """``parent`` inside ``span``, and nothing else: what :meth:`restricted` returns.

    The positions are the bisected slice of the parent's; each view is
    sliced from the parent's own on first use (numpy views of its
    buffers, the same :class:`Record` objects), so the parent keeps the
    one cached copy and no accessor reaches outside the window.
    """

    def __init__(self, parent: BaseSequence, span: Span):
        self._lo, hi = parent._index_range(span)
        self._schema = parent._schema
        self._span = span
        self._positions = parent._positions[self._lo : hi]
        self._parent = parent

    @cached_property
    def _record_list(self) -> list[Record]:
        return self._parent._record_list[self._lo : self._lo + len(self._positions)]

    @cached_property
    def _columns(self) -> tuple[Column, ...]:
        hi = self._lo + len(self._positions)
        return tuple(column[self._lo : hi] for column in self._parent._columns)
