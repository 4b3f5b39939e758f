"""Records and the Null record.

A record is an immutable tuple of attribute values conforming to a
:class:`~repro.model.schema.RecordSchema`.  Every record type domain is
associated with a single distinguished *Null record* (paper Section 2);
we model it with the singleton :data:`NULL`, which compares unequal to
every real record and answers ``is_null`` truthfully.  Empty sequence
positions map to :data:`NULL`.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence as PySequence, Union

from repro.errors import SchemaError
from repro.model.schema import RecordSchema
from repro.model.types import check_value


class _NullRecord:
    """The singleton Null record; maps to every empty sequence position."""

    __slots__ = ()
    _instance: "_NullRecord | None" = None

    def __new__(cls) -> "_NullRecord":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    @property
    def is_null(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("_NullRecord")


NULL = _NullRecord()
"""The unique Null record."""


class Record:
    """An immutable record: attribute values laid out per its schema."""

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: RecordSchema, values: PySequence[object]):
        values = tuple(values)
        if len(values) != len(schema):
            raise SchemaError(
                f"record has {len(values)} values but schema {schema!r} "
                f"has {len(schema)} attributes"
            )
        for attr, value in zip(schema.attributes, values):
            if not attr.atype.accepts(value):
                check_value(attr.atype, value, context=f"attribute {attr.name!r}")
        self._schema = schema
        self._values = values

    @classmethod
    def unchecked(cls, schema: RecordSchema, values: tuple) -> "Record":
        """Build a record without re-validating its values.

        Trusted constructor for engine-internal paths: ``values`` must
        already be a tuple whose length and types match ``schema``
        (e.g. values lifted out of an existing record, or columns the
        executor filled from validated records).  Skipping
        :func:`~repro.model.types.check_value` here is what makes
        per-record renames and batch materialization cheap; external
        inputs must keep using :class:`Record` directly.
        """
        record = object.__new__(cls)
        record._schema = schema
        record._values = values
        return record

    @classmethod
    def of(cls, schema: RecordSchema, **values: object) -> "Record":
        """Build a record from keyword arguments matching the schema names."""
        missing = set(schema.names) - set(values)
        extra = set(values) - set(schema.names)
        if missing or extra:
            raise SchemaError(
                f"record fields do not match schema: missing={sorted(missing)} "
                f"extra={sorted(extra)}"
            )
        return cls(schema, tuple(values[name] for name in schema.names))

    @property
    def schema(self) -> RecordSchema:
        """The schema this record conforms to."""
        return self._schema

    @property
    def values(self) -> tuple[object, ...]:
        """The attribute values in schema order."""
        return self._values

    @property
    def is_null(self) -> bool:
        """Real records are never the Null record."""
        return False

    def __getitem__(self, key: Union[str, int]) -> object:
        if isinstance(key, str):
            return self._values[self._schema.index_of(key)]
        return self._values[key]

    def get(self, name: str) -> object:
        """The value of attribute ``name``."""
        return self._values[self._schema.index_of(name)]

    def as_dict(self) -> dict[str, object]:
        """A name→value mapping of this record."""
        return dict(zip(self._schema.names, self._values))

    def concat(self, other: "Record") -> "Record":
        """Concatenate two records (the compose operator's ``r1.r2``)."""
        return Record(self._schema.concat(other.schema), self._values + other.values)

    def with_schema(self, schema: RecordSchema) -> "Record":
        """This record's values re-typed under an equal-shape ``schema``."""
        return Record(schema, self._values)

    def __iter__(self) -> Iterator[object]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self._schema == other._schema and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._schema, self._values))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._schema.names, self._values)
        )
        return f"Record({body})"


RecordOrNull = Union[Record, _NullRecord]
"""A record value as stored at a sequence position."""


def is_null(value: RecordOrNull) -> bool:
    """Whether ``value`` is the Null record."""
    return value is NULL


def record_from(schema: RecordSchema, source: Mapping[str, object]) -> Record:
    """Build a record for ``schema`` from any mapping with matching keys."""
    return Record(schema, tuple(source[name] for name in schema.names))
