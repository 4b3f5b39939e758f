"""The abstract sequence interface.

A sequence (paper Section 2) is a function from integer positions to
records of a fixed schema, or the Null record.  Implementations expose
both random (*probed*) access via :meth:`Sequence.at` and ordered
(*stream*) access via :meth:`Sequence.iter_nonnull`.
"""

from __future__ import annotations

import abc
from bisect import bisect_left
from typing import Iterable, Iterator, Optional, Sequence as PySequence

from repro.errors import SpanError
from repro.model.batch import Column, typed_column
from repro.model.record import NULL, Record, RecordOrNull
from repro.model.schema import RecordSchema
from repro.model.span import Span

#: Ascending positions plus one typed column buffer per schema
#: attribute, parallel to them (see :meth:`Sequence.column_runs`).
ColumnRun = tuple[PySequence[int], tuple[Column, ...]]


def column_runs_of(
    chunks: Iterable[tuple[PySequence[int], PySequence[tuple]]],
    schema: RecordSchema,
    width: int,
) -> Iterator[ColumnRun]:
    """Regroup ascending ``(positions, value rows)`` chunks into batch runs.

    A run holds every record fewer than ``width`` positions past its
    first, transposed once and typed exact-or-refused by
    :func:`~repro.model.batch.typed_column`; it is cut when a record
    beyond it arrives, so the source is read one chunk ahead, never more.
    """
    attributes = schema.attributes
    positions: list[int] = []
    rows: list[tuple] = []

    def run(count: int) -> ColumnRun:
        columns = zip(zip(*rows[:count]), attributes)
        return positions[:count], tuple(
            typed_column(list(values), attribute.atype) for values, attribute in columns
        )

    for chunk_positions, chunk_rows in chunks:
        positions.extend(chunk_positions)
        rows.extend(chunk_rows)
        while positions[-1] - positions[0] >= width:
            count = bisect_left(positions, positions[0] + width)
            yield run(count)
            del positions[:count], rows[:count]
    if positions:
        yield run(len(positions))


class Sequence(abc.ABC):
    """A function from integer positions to records or Null."""

    @property
    @abc.abstractmethod
    def schema(self) -> RecordSchema:
        """The record schema of the sequence."""

    @property
    @abc.abstractmethod
    def span(self) -> Span:
        """The valid range; positions outside it map to Null."""

    @abc.abstractmethod
    def at(self, position: int) -> RecordOrNull:
        """The record at ``position`` (probed access)."""

    @abc.abstractmethod
    def iter_nonnull(self, within: Optional[Span] = None) -> Iterator[tuple[int, Record]]:
        """Yield ``(position, record)`` for non-Null positions in increasing order.

        Args:
            within: restrict iteration to this span (intersected with the
                sequence's own span).  Required to be bounded if the
                sequence's span is unbounded.
        """

    def column_runs(self, within: Optional[Span], width: int) -> Iterator[ColumnRun]:
        """The columnar counterpart of :meth:`iter_nonnull` for batch scans.

        Yields the non-Null records of ``within`` as ascending runs
        that cut into ``width``-position batches, each anchored at its
        first record, exactly as their concatenation would: a run is
        either everything (cached column buffers, served zero-copy) or
        one batch's worth (anything read incrementally, like this
        default over the record stream).
        """
        chunks = (((p,), (r.values,)) for p, r in self.iter_nonnull(within))
        return column_runs_of(chunks, self.schema, width)

    # -- convenience ------------------------------------------------------

    def count_nonnull(self, within: Optional[Span] = None) -> int:
        """Number of non-Null positions (optionally within a span).

        This generator walk is only the protocol default: base,
        constant and (unwindowed) stored sequences answer without
        touching a record, which is what keeps planning independent of
        the data size (see :func:`repro.catalog.leaf_meta`).
        """
        return sum(1 for _ in self.iter_nonnull(within))

    def density(self) -> float:
        """Fraction of positions within the span mapping to non-Null records.

        Raises:
            SpanError: if the span is unbounded.
        """
        length = self.span.length()
        if length is None:
            raise SpanError("density undefined for unbounded sequences")
        if length == 0:
            return 0.0
        return self.count_nonnull() / length

    def to_pairs(self, within: Optional[Span] = None) -> list[tuple[int, Record]]:
        """All non-Null ``(position, record)`` pairs as a list."""
        return list(self.iter_nonnull(within))

    def effective_window(self, within: Optional[Span]) -> Span:
        """The bounded span to iterate: own span intersected with ``within``.

        Raises:
            SpanError: if the result is unbounded.
        """
        window = self.span if within is None else self.span.intersect(within)
        if not window.is_bounded:
            raise SpanError(
                f"iteration window {window} is unbounded; pass a bounded span"
            )
        return window

    def get(self, position: int) -> RecordOrNull:
        """Alias of :meth:`at`, guarding the span check for subclasses."""
        if not self.span.contains(position):
            return NULL
        return self.at(position)
