"""Tests for record schemas."""

import copy
import pickle

import pytest

from repro.errors import SchemaError
from repro.model.schema import Attribute, RecordSchema
from repro.model.types import AtomType


@pytest.fixture
def schema():
    return RecordSchema.of(close=AtomType.FLOAT, volume=AtomType.INT, sym=AtomType.STR)


class TestConstruction:
    def test_of_builds_in_order(self, schema):
        assert schema.names == ("close", "volume", "sym")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            RecordSchema([Attribute("a", AtomType.INT), Attribute("a", AtomType.INT)])

    def test_empty_attribute_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("", AtomType.INT)

    def test_non_atomtype_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("a", "int")  # type: ignore[arg-type]

    def test_non_attribute_entry_rejected(self):
        with pytest.raises(SchemaError):
            RecordSchema(["a"])  # type: ignore[list-item]

    def test_len(self, schema):
        assert len(schema) == 3

    def test_contains(self, schema):
        assert "close" in schema
        assert "nope" not in schema

    def test_equality_and_hash(self, schema):
        clone = RecordSchema.of(
            close=AtomType.FLOAT, volume=AtomType.INT, sym=AtomType.STR
        )
        assert schema == clone
        assert hash(schema) == hash(clone)
        assert hash(schema) == hash(clone)  # the cached hashes agree too
        assert {schema: 1}[clone] == 1

    def test_order_matters_for_equality(self):
        a = RecordSchema.of(x=AtomType.INT, y=AtomType.INT)
        b = RecordSchema.of(y=AtomType.INT, x=AtomType.INT)
        assert a != b


class TestCachedHash:
    """The hash is computed at the first ``hash()`` and kept."""

    def build(self):
        return RecordSchema.of(close=AtomType.FLOAT, volume=AtomType.INT, sym=AtomType.STR)

    def test_hashed_schema_still_compares(self, schema):
        hash(schema)
        assert schema == self.build()
        assert schema != RecordSchema.of(close=AtomType.FLOAT)
        assert schema.project(["sym", "close"]) == RecordSchema.of(
            sym=AtomType.STR, close=AtomType.FLOAT
        )

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_hashed_schema_copies(self, schema, clone):
        hash(schema)
        twin = clone(schema)
        assert twin == schema
        assert hash(twin) == hash(schema)
        assert twin.names == schema.names
        assert twin.index_of("sym") == 2

    def test_pickle_does_not_carry_the_hash(self, schema):
        # A pickle may be loaded under other string hashes; it must
        # read the same whether or not the schema was hashed first.
        unhashed = pickle.dumps(self.build())
        hash(schema)
        assert pickle.dumps(schema) == unhashed


class TestLookup:
    def test_index_of(self, schema):
        assert schema.index_of("volume") == 1

    def test_index_of_unknown_raises(self, schema):
        with pytest.raises(SchemaError, match="no attribute"):
            schema.index_of("nope")

    def test_type_of(self, schema):
        assert schema.type_of("sym") is AtomType.STR


class TestDerivation:
    def test_project_keeps_order_given(self, schema):
        projected = schema.project(["sym", "close"])
        assert projected.names == ("sym", "close")

    def test_project_unknown_raises(self, schema):
        with pytest.raises(SchemaError):
            schema.project(["nope"])

    def test_prefixed(self, schema):
        prefixed = schema.prefixed("ibm")
        assert prefixed.names == ("ibm_close", "ibm_volume", "ibm_sym")
        assert prefixed.type_of("ibm_close") is AtomType.FLOAT

    def test_concat(self, schema):
        other = RecordSchema.of(extra=AtomType.BOOL)
        combined = schema.concat(other)
        assert combined.names == ("close", "volume", "sym", "extra")

    def test_concat_collision_raises(self, schema):
        with pytest.raises(SchemaError, match="colliding"):
            schema.concat(RecordSchema.of(close=AtomType.FLOAT))

    def test_renamed_attribute(self):
        attr = Attribute("a", AtomType.INT)
        assert attr.renamed("b") == Attribute("b", AtomType.INT)
