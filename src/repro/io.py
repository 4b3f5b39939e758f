"""CSV import/export for base sequences.

A sequence CSV has one integer *position* column plus one column per
record attribute.  ``read_csv`` infers atomic types (INT → FLOAT →
BOOL → STR) unless given an explicit schema; ``write_csv`` is its
inverse.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional, Union

from repro.errors import ReproError, SchemaError
from repro.model.base import BaseSequence
from repro.model.batch import column_to_list
from repro.model.record import Record
from repro.model.schema import RecordSchema
from repro.model.sequence import Sequence
from repro.model.span import Span
from repro.model.types import AtomType


#: Positions per column run asked of a sequence that is read incrementally.
_RUN_WIDTH = 1024


def _parse_cell(text: str, atype: AtomType) -> object:
    if atype is AtomType.INT:
        return int(text)
    if atype is AtomType.FLOAT:
        return float(text)
    if atype is AtomType.BOOL:
        lowered = text.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise SchemaError(f"cannot parse {text!r} as BOOL")
    return text


def _infer_type(values: list[str]) -> AtomType:
    def all_parse(atype: AtomType) -> bool:
        for value in values:
            try:
                _parse_cell(value, atype)
            except (ValueError, SchemaError):
                return False
        return True

    if all_parse(AtomType.INT):
        return AtomType.INT
    if all_parse(AtomType.FLOAT):
        return AtomType.FLOAT
    lowered = {value.strip().lower() for value in values}
    if lowered <= {"true", "false", "yes", "no"}:
        return AtomType.BOOL
    return AtomType.STR


def read_csv(
    path: Union[str, Path],
    position_column: str = "position",
    schema: Optional[RecordSchema] = None,
    span: Optional[Span] = None,
    delimiter: str = ",",
) -> BaseSequence:
    """Load a base sequence from a CSV file.

    Args:
        path: the CSV file; must have a header row.
        position_column: name of the integer position column.
        schema: explicit record schema; inferred from the data if None.
        span: declared span (defaults to the tight hull).
        delimiter: CSV delimiter.

    Raises:
        ReproError: on a missing position column or empty file.
        SchemaError: on unparsable cells.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        if reader.fieldnames is None:
            raise ReproError(f"{path}: empty CSV (no header)")
        if position_column not in reader.fieldnames:
            raise ReproError(
                f"{path}: no position column {position_column!r}; "
                f"columns are {reader.fieldnames}"
            )
        raw_rows = list(reader)

    attr_names = [name for name in (reader.fieldnames or []) if name != position_column]
    if schema is None:
        inferred = {}
        for name in attr_names:
            values = [row[name] for row in raw_rows if row[name] not in (None, "")]
            inferred[name] = _infer_type(values) if values else AtomType.STR
        schema = RecordSchema.of(**inferred)
    else:
        missing = set(schema.names) - set(attr_names)
        if missing:
            raise ReproError(f"{path}: columns {sorted(missing)} missing")

    items: list[tuple[int, Record]] = []
    for line_number, row in enumerate(raw_rows, start=2):
        try:
            position = int(row[position_column])
        except (TypeError, ValueError):
            raise SchemaError(
                f"{path}:{line_number}: bad position {row[position_column]!r}"
            ) from None
        values = tuple(
            _parse_cell(row[attr.name], attr.atype) for attr in schema
        )
        items.append((position, Record(schema, values)))
    return BaseSequence(schema, items, span=span)


def write_csv(
    sequence: Sequence,
    path: Union[str, Path],
    position_column: str = "position",
    delimiter: str = ",",
) -> int:
    """Write a sequence's non-null records to CSV; returns the row count.

    Raises:
        ReproError: if the sequence's span is unbounded.
    """
    if not sequence.span.is_bounded:
        raise ReproError("cannot export a sequence with an unbounded span")
    path = Path(path)
    names = sequence.schema.names
    count = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow([position_column, *names])
        # A column run at a time: cells go from the typed buffers to
        # the writer as plain scalars, and no Record is built.
        for positions, columns in sequence.column_runs(None, _RUN_WIDTH):
            writer.writerows(zip(positions, *map(column_to_list, columns)))
            count += len(positions)
    return count
