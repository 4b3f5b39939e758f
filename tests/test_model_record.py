"""Tests for records and the Null record."""

import pytest

from repro.errors import SchemaError
from repro.model.record import NULL, Record, is_null, record_from
from repro.model.schema import RecordSchema
from repro.model.types import AtomType


@pytest.fixture
def schema():
    return RecordSchema.of(close=AtomType.FLOAT, volume=AtomType.INT)


@pytest.fixture
def record(schema):
    return Record(schema, (101.5, 2000))


class TestNull:
    def test_singleton(self):
        from repro.model.record import _NullRecord

        assert _NullRecord() is NULL

    def test_is_null(self):
        assert NULL.is_null
        assert is_null(NULL)

    def test_falsy(self):
        assert not NULL

    def test_not_equal_to_records(self, record):
        assert NULL != record
        assert record != NULL

    def test_repr(self):
        assert repr(NULL) == "NULL"


class TestRecord:
    def test_values(self, record):
        assert record.values == (101.5, 2000)

    def test_is_not_null(self, record):
        assert not record.is_null
        assert not is_null(record)

    def test_getitem_by_name_and_index(self, record):
        assert record["close"] == 101.5
        assert record[1] == 2000

    def test_get(self, record):
        assert record.get("volume") == 2000

    def test_wrong_arity_raises(self, schema):
        with pytest.raises(SchemaError):
            Record(schema, (1.0,))

    def test_wrong_type_raises(self, schema):
        with pytest.raises(SchemaError, match="volume"):
            Record(schema, (1.0, "lots"))

    def test_int_accepted_for_float_attr(self, schema):
        assert Record(schema, (100, 5)).get("close") == 100

    def test_of_kwargs(self, schema):
        record = Record.of(schema, close=3.0, volume=7)
        assert record.values == (3.0, 7)

    def test_of_missing_field_raises(self, schema):
        with pytest.raises(SchemaError, match="missing"):
            Record.of(schema, close=3.0)

    def test_of_extra_field_raises(self, schema):
        with pytest.raises(SchemaError, match="extra"):
            Record.of(schema, close=3.0, volume=1, oops=2)

    def test_as_dict(self, record):
        assert record.as_dict() == {"close": 101.5, "volume": 2000}

    def test_concat(self, record):
        other = Record(RecordSchema.of(flag=AtomType.BOOL), (True,))
        combined = record.concat(other)
        assert combined.values == (101.5, 2000, True)

    def test_equality(self, schema, record):
        assert record == Record(schema, (101.5, 2000))
        assert record != Record(schema, (101.5, 2001))

    def test_hashable(self, schema, record):
        assert record in {Record(schema, (101.5, 2000))}

    def test_iter(self, record):
        assert list(record) == [101.5, 2000]

    def test_record_from_mapping(self, schema):
        record = record_from(schema, {"volume": 9, "close": 1.0})
        assert record.values == (1.0, 9)

    def test_with_schema_renames(self, record):
        renamed = record.with_schema(
            RecordSchema.of(c=AtomType.FLOAT, v=AtomType.INT)
        )
        assert renamed.get("c") == 101.5
