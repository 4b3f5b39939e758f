"""Columnar record batches for the batch execution mode.

A :class:`ColumnBatch` holds a *contiguous* range of positions in
columnar layout: one buffer per schema attribute plus a validity mask
marking which positions carry a real record (the rest map to the Null
record, exactly as empty sequence positions do in the paper's model).
Batches are the unit of work of the batch executor
(:mod:`repro.execution.batch_streams`): operators amortize interpreter
overhead by processing one batch — not one record — per Python-level
step, while compiled expressions (:func:`repro.algebra.expressions.compile_filter`)
run either whole-column vector kernels or fused loops directly over the
column buffers.

Column buffers are *typed* where the dtype allows it, selected by
:func:`typed_column` from the attribute's static type:

* with numpy importable (the ``[vector]`` extra), INT/FLOAT/BOOL
  columns become ``numpy.ndarray`` buffers (``int64``/``float64``/
  ``bool``) — the substrate of the vector kernels;
* without numpy, INT/FLOAT columns become :class:`array.array`
  (``'q'``/``'d'``) compact buffers;
* STR columns — and any column whose values do not fit the typed
  buffer exactly (e.g. an int beyond ``int64``) — stay plain Python
  lists.

The numpy probe lives in exactly one place, :func:`vector_backend`;
nothing in the package imports numpy at module scope, and setting the
``REPRO_NO_VECTOR`` environment variable forces the pure-Python path.

Invariants:

* ``len(valid) == len(columns[i])`` for every column; the batch covers
  positions ``start .. start + len(valid) - 1``.
* Column cells at invalid positions are unspecified (``None`` or a
  zero fill by convention) and must never be read by consumers.
* Batches are treated as immutable once built: operators derive new
  column/validity buffers instead of mutating them, so buffers may be
  shared between batches (projection and renaming are O(columns), not
  O(rows)).
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.errors import SchemaError, SpanError
from repro.model.bitmask import Bitmask, MaskLike
from repro.model.record import NULL, Record, RecordOrNull
from repro.model.schema import RecordSchema
from repro.model.span import Span
from repro.model.types import AtomType

#: A column buffer: ``list`` | ``array.array`` | ``numpy.ndarray``.
#: Typed as ``Any`` because numpy is an optional dependency.
Column = Any

# -- capability probe -------------------------------------------------

_PROBE_UNSET: Any = object()
_backend: Any = _PROBE_UNSET


def vector_backend() -> Optional[Any]:
    """The numpy module if importable and enabled, else ``None``.

    This is the package's single numpy capability probe: the result is
    cached after the first call, and the ``REPRO_NO_VECTOR`` environment
    variable (any non-empty value) forces the pure-Python path.  Tests
    monkeypatch the module-level ``_backend`` cache to simulate a
    missing numpy without uninstalling it.
    """
    global _backend
    if _backend is _PROBE_UNSET:
        if os.environ.get("REPRO_NO_VECTOR"):
            _backend = None
        else:
            try:
                import numpy
            except ImportError:
                _backend = None
            else:
                _backend = numpy
    return _backend


# -- dtype inference and buffer construction --------------------------

#: numpy dtype per atom type (STR has no typed buffer).
NP_DTYPES: dict[AtomType, str] = {
    AtomType.INT: "int64",
    AtomType.FLOAT: "float64",
    AtomType.BOOL: "bool",
}

#: array.array typecodes for the no-numpy fallback (no bool/str codes).
_ARRAY_CODES: dict[AtomType, str] = {
    AtomType.INT: "q",
    AtomType.FLOAT: "d",
}

#: Largest integer magnitude exactly representable as a float64.
FLOAT64_EXACT_INT = 2**53


def _float64_exact(values: list[Any]) -> bool:
    """Whether every value converts to float64 without rounding.

    FLOAT attributes accept Python ints; an int beyond 2**53 would
    silently round during buffer conversion, so such columns stay lists.
    ``None`` holes (sparse columns) also refuse conversion here.
    """
    if set(map(type, values)) <= {float}:
        return True  # the common case, decided at C speed
    for value in values:
        if type(value) is float:
            continue
        if type(value) is int and -FLOAT64_EXACT_INT <= value <= FLOAT64_EXACT_INT:
            continue
        return False
    return True


def typed_column(values: list[Any], atype: AtomType) -> Column:
    """``values`` as the best available typed buffer, else the list itself.

    The conversion is exact or refused: INT overflows past ``int64``
    raise and fall back, FLOAT columns are pre-checked for ints beyond
    the float64-exact range, and any ``None`` holes (sparse columns)
    fail conversion.  Callers may therefore treat a typed result as
    value-identical to the input list.
    """
    np = vector_backend()
    if np is not None:
        dtype = NP_DTYPES.get(atype)
        if dtype is None:
            return values
        if atype is AtomType.FLOAT and not _float64_exact(values):
            return values
        try:
            return np.asarray(values, dtype=dtype)
        except (TypeError, ValueError, OverflowError):
            return values
    code = _ARRAY_CODES.get(atype)
    if code is None:
        return values
    if atype is AtomType.FLOAT and not _float64_exact(values):
        return values
    try:
        return array(code, values)
    except (TypeError, ValueError, OverflowError):
        return values


def is_vector(column: Column) -> bool:
    """Whether ``column`` is a numpy buffer (vector-kernel eligible)."""
    np = vector_backend()
    return np is not None and isinstance(column, np.ndarray)


def column_to_list(column: Column) -> list[Any]:
    """``column`` as a plain list of Python scalars (shared if already one)."""
    if isinstance(column, list):
        return column
    if is_vector(column):
        result: list[Any] = column.tolist()
        return result
    return list(column)


def concat_columns(pieces: Sequence[Column]) -> Column:
    """``pieces`` end to end as one buffer: numpy if every piece is, else a list."""
    if len(pieces) == 1:
        return pieces[0]
    np = vector_backend()
    if np is not None and all(isinstance(piece, np.ndarray) for piece in pieces):
        return np.concatenate(pieces)
    merged: list[Any] = []
    for piece in pieces:
        merged.extend(column_to_list(piece))
    return merged


class ColumnBatch:
    """A contiguous position range in columnar layout with a validity mask.

    Attributes:
        schema: the record schema of the batched sequence.
        start: the position of index 0; index ``i`` holds position
            ``start + i``.
        columns: one buffer per schema attribute, in schema order.
        valid: the packed validity mask (:class:`Bitmask`); bit ``i``
            is set iff position ``start + i`` holds a real record.
            The constructor coerces ``list[bool]`` masks.
    """

    __slots__ = ("schema", "start", "columns", "valid", "_valid_count")

    def __init__(
        self,
        schema: RecordSchema,
        start: int,
        columns: list[Column],
        valid: MaskLike,
    ):
        mask = Bitmask.coerce(valid)
        if len(columns) != len(schema):
            raise SchemaError(
                f"batch has {len(columns)} columns but schema {schema!r} "
                f"has {len(schema)} attributes"
            )
        for column in columns:
            if len(column) != len(mask):
                raise SchemaError(
                    f"batch column length {len(column)} does not match "
                    f"validity mask length {len(mask)}"
                )
        self.schema = schema
        self.start = start
        self.columns = columns
        self.valid = mask
        # Batches are immutable, so the valid-row count is computed once
        # here instead of per consumer (count_valid used to be O(n) and
        # was recomputed by every operator in the pipeline).
        self._valid_count = mask.count()

    @classmethod
    def from_items(
        cls,
        schema: RecordSchema,
        start: int,
        length: int,
        items: Iterable[tuple[int, Record]],
    ) -> "ColumnBatch":
        """Build a batch from ``(position, record)`` pairs.

        Args:
            schema: the batch schema; records must conform to it.
            start: first position covered by the batch.
            length: number of positions covered.
            items: pairs with ``start <= position < start + length``;
                positions not mentioned are invalid (Null).

        Fully-dense batches come back with typed column buffers; sparse
        ones keep list columns (the ``None`` holes refuse conversion).
        """
        valid = [False] * length
        columns: list[list[Any]] = [[None] * length for _ in range(len(schema))]
        for position, record in items:
            index = position - start
            if not 0 <= index < length:
                raise SpanError(
                    f"position {position} outside batch range "
                    f"[{start}, {start + length - 1}]"
                )
            valid[index] = True
            for c, value in enumerate(record.values):
                columns[c][index] = value
        typed: list[Column] = [
            typed_column(column, attribute.atype)
            for column, attribute in zip(columns, schema.attributes)
        ]
        return cls(schema, start, typed, valid)

    # -- geometry ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.valid)

    @property
    def end(self) -> int:
        """The last position covered (``start - 1`` for an empty batch)."""
        return self.start + len(self.valid) - 1

    @property
    def span(self) -> Span:
        """The covered position range as a span."""
        if not self.valid:
            return Span.EMPTY
        return Span(self.start, self.end)

    def count_valid(self) -> int:
        """Number of real (non-Null) records in the batch (cached)."""
        return self._valid_count

    # -- access -----------------------------------------------------------

    def column_values(self, index: int) -> list[Any]:
        """Column ``index`` as a plain list of Python scalars."""
        return column_to_list(self.columns[index])

    def values_at_index(self, index: int) -> tuple[Any, ...]:
        """The attribute values at batch index ``index`` as a tuple.

        Values come back as Python scalars regardless of the buffer
        backend (numpy scalars are unwrapped).
        """
        values = []
        for column in self.columns:
            value = column[index]
            if not isinstance(column, (list, array)):
                value = value.item()
            values.append(value)
        return tuple(values)

    def record_at(self, position: int) -> RecordOrNull:
        """The record at an absolute position (NULL outside/invalid)."""
        index = position - self.start
        if not 0 <= index < len(self.valid) or not self.valid[index]:
            return NULL
        return Record.unchecked(self.schema, self.values_at_index(index))

    def iter_items(self) -> Iterator[tuple[int, Record]]:
        """Yield ``(position, record)`` for valid positions, in order.

        Records are built through the trusted
        :meth:`~repro.model.record.Record.unchecked` path: batch cells
        were filled from already-validated records.
        """
        schema = self.schema
        start = self.start
        unchecked = Record.unchecked
        columns = [self.column_values(i) for i in range(len(self.columns))]
        for index in self.valid.indices():
            yield (
                start + index,
                unchecked(schema, tuple(column[index] for column in columns)),
            )

    # -- derivation --------------------------------------------------------

    def sliced(self, lo: int, hi: int) -> "ColumnBatch":
        """The sub-batch covering absolute positions ``[lo, hi]``.

        ``[lo, hi]`` must lie within the batch's covered range.
        """
        a = lo - self.start
        b = hi - self.start + 1
        if a < 0 or b > len(self.valid) or a > b:
            raise SpanError(
                f"slice [{lo}, {hi}] outside batch range "
                f"[{self.start}, {self.end}]"
            )
        return ColumnBatch(
            self.schema,
            lo,
            [column[a:b] for column in self.columns],
            self.valid[a:b],
        )

    def with_schema(self, schema: RecordSchema) -> "ColumnBatch":
        """This batch re-typed under an equal-shape schema (rename)."""
        if len(schema) != len(self.schema):
            raise SchemaError(
                f"cannot re-type batch of {len(self.schema)} columns "
                f"under schema {schema!r}"
            )
        return ColumnBatch(schema, self.start, self.columns, self.valid)

    def __repr__(self) -> str:
        return (
            f"ColumnBatch(schema={self.schema!r}, span={self.span!r}, "
            f"valid={self.count_valid()}/{len(self.valid)})"
        )
