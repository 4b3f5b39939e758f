"""Column and sequence statistics (paper Section 3's meta-information)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import CatalogError
from repro.model.batch import column_to_list
from repro.model.sequence import Sequence
from repro.model.span import Span
from repro.model.types import AtomType
from repro.catalog.histogram import EquiWidthHistogram


@dataclass(frozen=True)
class ColumnStats:
    """Statistics of one attribute of a base sequence.

    Attributes:
        atype: the attribute's atomic type.
        count: number of observed (non-null-record) values.
        distinct: number of distinct values.
        histogram: equi-width histogram for numeric attributes, else None.
    """

    atype: AtomType
    count: int
    distinct: int
    histogram: Optional[EquiWidthHistogram]

    def selectivity(self, op: str, value: object) -> float:
        """Estimated selectivity of ``column <op> value``."""
        if self.histogram is not None and isinstance(value, (int, float)) and not isinstance(value, bool):
            return self.histogram.selectivity(op, value)
        if self.distinct <= 0:
            return 0.0
        equality = 1.0 / self.distinct
        if op == "==":
            return equality
        if op == "!=":
            return 1.0 - equality
        # No ordering information without a histogram: Selinger default.
        return 1.0 / 3.0


@dataclass(frozen=True)
class SequenceStats:
    """Statistics of a whole base sequence.

    Attributes:
        span: the declared span.
        count: number of non-Null positions.
        density: count / span length.
        columns: per-attribute statistics.
    """

    span: Span
    count: int
    density: float
    columns: dict[str, ColumnStats]

    def column(self, name: str) -> Optional[ColumnStats]:
        """Statistics of attribute ``name``, if collected."""
        return self.columns.get(name)


def collect_stats(sequence: Sequence, buckets: int = 16) -> SequenceStats:
    """Scan a sequence once and collect full statistics.

    The scan reads the sequence's column runs, the batch executor's
    access path, so no record is built: a stored sequence reads the
    same pages in the same order as a record scan would.  Typed buffers
    are exact, so each statistic is what the record values give.  A
    numeric column whose values are not all finite floats gets no
    histogram, and its selectivity falls back to the distinct count.

    Raises:
        CatalogError: if the sequence's span is unbounded, or
            ``buckets`` < 1.
    """
    span = sequence.span
    length = span.length()
    if length is None:
        raise CatalogError("cannot collect statistics over an unbounded span")
    if buckets < 1:
        raise CatalogError(f"histogram needs >= 1 bucket, got {buckets}")

    per_column: list[list] = [[] for _ in sequence.schema.names]
    count = 0
    for positions, run in sequence.column_runs(None, max(1, length)):
        count += len(positions)
        for values, column in zip(per_column, run):
            values.extend(column_to_list(column))

    columns: dict[str, ColumnStats] = {}
    for attr, values in zip(sequence.schema, per_column):
        histogram = None
        if attr.atype.is_numeric and values:
            try:
                histogram = EquiWidthHistogram.build(values, buckets=buckets)
            except CatalogError:  # a value that is not a finite float
                pass
        columns[attr.name] = ColumnStats(
            atype=attr.atype,
            count=len(values),
            distinct=len(set(values)),
            histogram=histogram,
        )
    density = count / length if length else 0.0
    return SequenceStats(span=span, count=count, density=density, columns=columns)
