"""Semantics tests for the compose (positional join) operator."""

import pytest

from repro.errors import QueryError
from repro.model import NULL, AtomType, BaseSequence, RecordSchema, SequenceInfo, Span
from repro.algebra import Compose, SequenceLeaf, col

A = RecordSchema.of(a=AtomType.FLOAT)
B = RecordSchema.of(b=AtomType.FLOAT)
SAME = RecordSchema.of(close=AtomType.FLOAT)


@pytest.fixture
def left():
    return BaseSequence.from_values(A, [(1, (1.0,)), (2, (2.0,)), (4, (4.0,))])


@pytest.fixture
def right():
    return BaseSequence.from_values(B, [(2, (20.0,)), (3, (30.0,)), (4, (40.0,))])


def compose_at(node, left, right, position):
    return node.value_at([left, right], position)


class TestCompose:
    def test_matches_common_positions(self, left, right):
        node = Compose(SequenceLeaf(left, "l"), SequenceLeaf(right, "r"))
        record = compose_at(node, left, right, 2)
        assert record.as_dict() == {"a": 2.0, "b": 20.0}

    def test_null_if_either_side_null(self, left, right):
        node = Compose(SequenceLeaf(left, "l"), SequenceLeaf(right, "r"))
        assert compose_at(node, left, right, 1) is NULL  # right missing
        assert compose_at(node, left, right, 3) is NULL  # left missing

    def test_predicate_filters(self, left, right):
        node = Compose(
            SequenceLeaf(left, "l"),
            SequenceLeaf(right, "r"),
            predicate=col("b") > 25.0,
        )
        assert compose_at(node, left, right, 2) is NULL
        assert compose_at(node, left, right, 4).get("b") == 40.0

    def test_schema_concat(self, left, right):
        node = Compose(SequenceLeaf(left, "l"), SequenceLeaf(right, "r"))
        assert node.schema.names == ("a", "b")

    def test_collision_requires_prefixes(self):
        s1 = BaseSequence.from_values(SAME, [(1, (1.0,))])
        s2 = BaseSequence.from_values(SAME, [(1, (2.0,))])
        with pytest.raises(QueryError, match="prefixes"):
            Compose(SequenceLeaf(s1, "x"), SequenceLeaf(s2, "y")).type_check()

    def test_prefixes_resolve_collision(self):
        s1 = BaseSequence.from_values(SAME, [(1, (1.0,))])
        s2 = BaseSequence.from_values(SAME, [(1, (2.0,))])
        node = Compose(
            SequenceLeaf(s1, "x"), SequenceLeaf(s2, "y"), prefixes=("x", "y")
        )
        assert node.schema.names == ("x_close", "y_close")
        record = node.value_at([s1, s2], 1)
        assert record.get("x_close") == 1.0 and record.get("y_close") == 2.0

    def test_predicate_type_checked(self, left, right):
        node = Compose(
            SequenceLeaf(left, "l"),
            SequenceLeaf(right, "r"),
            predicate=col("a") + col("b"),
        )
        with pytest.raises(QueryError, match="boolean"):
            node.type_check()

    def test_with_predicate_shares_the_derived_schema(self, left, right):
        bare = Compose(SequenceLeaf(left, "l"), SequenceLeaf(right, "r"))
        node = bare.with_predicate(col("a") < col("b"))
        assert node.inputs == bare.inputs and node.schema is bare.schema
        assert compose_at(node, left, right, 2).as_dict() == {"a": 2.0, "b": 20.0}
        with pytest.raises(QueryError, match="boolean"):
            bare.with_predicate(col("a") + col("b"))

    def test_non_expr_predicate_rejected(self, left, right):
        with pytest.raises(QueryError):
            Compose(SequenceLeaf(left, "l"), SequenceLeaf(right, "r"), "a > b")  # type: ignore[arg-type]

    def test_span_is_intersection(self, left, right):
        node = Compose(SequenceLeaf(left, "l"), SequenceLeaf(right, "r"))
        assert node.infer_span([Span(1, 4), Span(2, 4)]) == Span(2, 4)

    def test_required_spans_restricted_both_sides(self, left, right):
        # The heart of the global span optimization (Figure 3).
        node = Compose(SequenceLeaf(left, "l"), SequenceLeaf(right, "r"))
        needed = node.required_input_spans(Span(2, 3), [Span(1, 4), Span(2, 4)])
        assert needed == (Span(2, 3), Span(2, 3))

    def test_density_multiplies(self, left, right):
        node = Compose(SequenceLeaf(left, "l"), SequenceLeaf(right, "r"))
        d = node.infer_density(
            [SequenceInfo(Span(1, 4), 0.5), SequenceInfo(Span(2, 4), 0.4)]
        )
        assert d == pytest.approx(0.2)

    def test_density_with_predicate_selectivity(self, left, right):
        node = Compose(
            SequenceLeaf(left, "l"),
            SequenceLeaf(right, "r"),
            predicate=col("a") > col("b"),
        )
        d = node.infer_density(
            [SequenceInfo(Span(1, 4), 1.0), SequenceInfo(Span(2, 4), 1.0)]
        )
        assert d == pytest.approx(1 / 3)

    def test_side_columns(self, left, right):
        node = Compose(
            SequenceLeaf(left, "l"), SequenceLeaf(right, "r"), prefixes=("l", None)
        )
        assert node.side_columns(0) == {"l_a"}
        assert node.side_columns(1) == {"b"}

    def test_participating_columns(self, left, right):
        node = Compose(
            SequenceLeaf(left, "l"),
            SequenceLeaf(right, "r"),
            predicate=col("a") > col("b"),
        )
        assert node.participating_columns() == {"a", "b"}
        bare = Compose(SequenceLeaf(left, "l"), SequenceLeaf(right, "r"))
        assert bare.participating_columns() == frozenset()

    def test_scope_unit_on_both(self, left, right):
        node = Compose(SequenceLeaf(left, "l"), SequenceLeaf(right, "r"))
        assert node.has_unit_scope()
