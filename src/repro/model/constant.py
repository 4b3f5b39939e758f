"""Constant sequences.

A constant sequence (paper Section 2) maps every position to the same
record.  Constants are modelled as sequences so the operator algebra is
uniform.  Their span defaults to unbounded and their density is one;
stream iteration therefore requires a bounded window.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional

from repro.errors import SchemaError
from repro.model.record import NULL, Record, RecordOrNull
from repro.model.schema import RecordSchema
from repro.model.batch import typed_column
from repro.model.sequence import ColumnRun, Sequence
from repro.model.span import Span


class ConstantSequence(Sequence):
    """Every position within the span maps to one fixed record."""

    def __init__(self, record: Record, span: Span = Span.ALL):
        if not isinstance(record, Record):
            raise SchemaError(f"constant sequence needs a Record, got {record!r}")
        self._record = record
        self._span = span

    @classmethod
    def scalar(cls, name: str, value: object, span: Span = Span.ALL) -> "ConstantSequence":
        """A single-attribute constant, inferring the atomic type from ``value``."""
        from repro.model.types import AtomType

        if isinstance(value, bool):
            atype = AtomType.BOOL
        elif isinstance(value, int):
            atype = AtomType.INT
        elif isinstance(value, float):
            atype = AtomType.FLOAT
        elif isinstance(value, str):
            atype = AtomType.STR
        else:
            raise SchemaError(f"cannot infer atomic type for {value!r}")
        schema = RecordSchema.of(**{name: atype})
        return cls(Record(schema, (value,)), span=span)

    @property
    def record(self) -> Record:
        """The record at every valid position."""
        return self._record

    @property
    def schema(self) -> RecordSchema:
        return self._record.schema

    @property
    def span(self) -> Span:
        return self._span

    def at(self, position: int) -> RecordOrNull:
        return self._record if position in self._span else NULL

    def iter_nonnull(self, within: Optional[Span] = None) -> Iterator[tuple[int, Record]]:
        window = self.effective_window(within)
        for position in window.positions():
            yield position, self._record

    def column_runs(self, within: Optional[Span], width: int) -> Iterator[ColumnRun]:
        """One run per ``width`` positions, each column the value repeated."""
        positions = self.effective_window(within).positions()
        while run := list(islice(positions, width)):
            yield run, tuple(
                typed_column([value] * len(run), attribute.atype)
                for value, attribute in zip(self._record.values, self.schema.attributes)
            )

    def count_nonnull(self, within: Optional[Span] = None) -> int:
        """Every position of the (bounded) window holds the record."""
        return self.effective_window(within).length()

    def density(self) -> float:
        """Constant sequences are fully dense (paper Section 4.1.1)."""
        return 1.0

    def __repr__(self) -> str:
        return f"ConstantSequence({self._record!r}, span={self._span!r})"
