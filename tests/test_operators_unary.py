"""Semantics tests for selection, projection and offsets (Section 2.1)."""

import pytest

from repro.errors import ExecutionError, QueryError
from repro.model import NULL, AtomType, BaseSequence, RecordSchema, SequenceInfo, Span
from repro.algebra import (
    PositionalOffset,
    Project,
    Select,
    SequenceLeaf,
    ValueOffset,
    col,
)
from repro.algebra.graph import Query
from repro.extensions import TriggerEngine


@pytest.fixture
def leaf(small_prices):
    return SequenceLeaf(small_prices, "p")


def value_at(node, position):
    """Evaluate a unary node denotationally against its leaf input."""
    return node.value_at([node.inputs[0].sequence], position)


class TestSelect:
    def test_keeps_matching(self, leaf):
        node = Select(leaf, col("close") > 45.0)
        assert value_at(node, 5).get("close") == 50.0

    def test_drops_failing(self, leaf):
        node = Select(leaf, col("close") > 45.0)
        assert value_at(node, 2) is NULL

    def test_null_in_null_out(self, leaf):
        node = Select(leaf, col("close") > 0.0)
        assert value_at(node, 3) is NULL  # gap position

    def test_schema_passthrough(self, leaf, small_prices):
        assert Select(leaf, col("close") > 0.0).schema == small_prices.schema

    def test_non_boolean_predicate_rejected(self, leaf):
        with pytest.raises(QueryError, match="boolean"):
            Select(leaf, col("close") + 1.0).type_check()

    def test_non_expr_rejected(self, leaf):
        with pytest.raises(QueryError):
            Select(leaf, "close > 0")  # type: ignore[arg-type]

    def test_span_passthrough(self, leaf):
        node = Select(leaf, col("close") > 0.0)
        assert node.infer_span([Span(1, 10)]) == Span(1, 10)
        assert node.required_input_spans(Span(2, 5), [Span(1, 10)]) == (Span(2, 5),)

    def test_density_scales_by_selectivity(self, leaf):
        node = Select(leaf, col("close") > 0.0)
        info = SequenceInfo(Span(1, 10), 0.9)
        assert node.infer_density([info]) == pytest.approx(0.9 / 3)

    def test_participating_columns(self, leaf):
        node = Select(leaf, col("close") > 0.0)
        assert node.participating_columns() == {"close"}


class TestProject:
    def test_projects(self, dense_walk):
        leaf = SequenceLeaf(dense_walk, "w")
        node = Project(leaf, ["close", "volume"])
        record = node.value_at([dense_walk], 5)
        assert record.schema.names == ("close", "volume")

    def test_null_in_null_out(self, leaf):
        node = Project(leaf, ["close"])
        assert value_at(node, 3) is NULL

    def test_records_share_the_operator_schema(self, sparse_walk):
        """Naive and trigger projections build no schema per record."""
        query = Query(Project(SequenceLeaf(sparse_walk, "w"), ["volume", "close"]))
        node = query.root
        expected = [
            (p, (r.get("volume"), r.get("close"))) for p, r in sparse_walk.iter_nonnull()
        ]
        naive = [(p, node.value_at([sparse_walk], p)) for p, _r in sparse_walk.iter_nonnull()]
        engine = TriggerEngine(query)
        pushed = [out for p, r in sparse_walk.iter_nonnull() for out in engine.push("w", p, r)]
        for records in (naive, pushed):
            assert [(p, r.values) for p, r in records] == expected
            assert all(r.schema is node.schema for _p, r in records)
        assert pushed == query.run_naive().to_pairs()

    def test_unknown_attr_rejected(self, leaf):
        with pytest.raises(QueryError):
            Project(leaf, ["nope"]).type_check()

    def test_empty_projection_rejected(self, leaf):
        with pytest.raises(QueryError, match="at least one"):
            Project(leaf, [])

    def test_duplicate_attrs_rejected(self, leaf):
        with pytest.raises(QueryError, match="duplicate"):
            Project(leaf, ["close", "close"])

    def test_density_passthrough(self, leaf):
        node = Project(leaf, ["close"])
        assert node.infer_density([SequenceInfo(Span(1, 10), 0.5)]) == 0.5


class TestPositionalOffset:
    def test_shifts(self, leaf):
        node = PositionalOffset(leaf, 3)  # out(i) = in(i+3)
        assert value_at(node, 2).get("close") == 50.0
        assert value_at(node, 1).get("close") == 40.0

    def test_negative_shift(self, leaf):
        node = PositionalOffset(leaf, -1)
        assert value_at(node, 2).get("close") == 10.0

    def test_empty_positions_shift_too(self, leaf):
        node = PositionalOffset(leaf, 1)  # in(3) and in(7) are gaps
        assert value_at(node, 2) is NULL

    def test_span_shifts_against_offset(self, leaf):
        node = PositionalOffset(leaf, 3)
        assert node.infer_span([Span(1, 10)]) == Span(-2, 7)
        assert node.required_input_spans(Span(0, 4), [Span(1, 10)]) == (Span(3, 7),)

    def test_non_int_offset_rejected(self, leaf):
        with pytest.raises(QueryError):
            PositionalOffset(leaf, 1.5)  # type: ignore[arg-type]
        with pytest.raises(QueryError):
            PositionalOffset(leaf, True)  # type: ignore[arg-type]


class TestValueOffset:
    def test_previous_skips_gaps(self, leaf):
        node = ValueOffset.previous(leaf)
        # position 4: previous non-null is position 2 (3 is a gap)
        assert value_at(node, 4).get("close") == 20.0

    def test_previous_defined_on_gap_positions(self, leaf):
        node = ValueOffset.previous(leaf)
        assert value_at(node, 3).get("close") == 20.0

    def test_previous_before_data_is_null(self, leaf):
        node = ValueOffset.previous(leaf)
        assert value_at(node, 1) is NULL

    def test_previous_beyond_end_persists(self, leaf):
        node = ValueOffset.previous(leaf)
        assert value_at(node, 100).get("close") == 100.0

    def test_next(self, leaf):
        node = ValueOffset.next(leaf)
        assert value_at(node, 2).get("close") == 40.0  # 3 is a gap
        assert value_at(node, 10) is NULL

    def test_reach_two_back(self, leaf):
        node = ValueOffset(leaf, -2)
        assert value_at(node, 5).get("close") == 20.0  # 4, then 2

    def test_reach_two_forward(self, leaf):
        node = ValueOffset(leaf, 2)
        assert value_at(node, 1).get("close") == 40.0  # 2, then 4

    def test_zero_offset_rejected(self, leaf):
        with pytest.raises(QueryError, match="non-zero"):
            ValueOffset(leaf, 0)

    def test_spans(self, leaf):
        back = ValueOffset(leaf, -2)
        assert back.infer_span([Span(1, 10)]) == Span(3, None)
        forward = ValueOffset(leaf, 2)
        assert forward.infer_span([Span(1, 10)]) == Span(None, 8)

    def test_required_input_spans(self, leaf):
        back = ValueOffset.previous(leaf)
        (required,) = back.required_input_spans(Span(5, 8), [Span(1, 10)])
        assert required == Span(1, 7)
        forward = ValueOffset.next(leaf)
        (required,) = forward.required_input_spans(Span(5, 8), [Span(1, 10)])
        assert required == Span(6, 10)

    def test_unbounded_past_rejected_at_eval(self, price_schema):
        unbounded = BaseSequence.from_values(
            price_schema, [(0, (1.0,))], span=Span(None, 10)
        )
        node = ValueOffset.previous(SequenceLeaf(unbounded, "u"))
        with pytest.raises(ExecutionError, match="bounded-below"):
            node.value_at([unbounded], 5)

    def test_density_estimate_bounds(self, leaf):
        node = ValueOffset.previous(leaf)
        dense = node.infer_density([SequenceInfo(Span(1, 1000), 0.9)])
        sparse = node.infer_density([SequenceInfo(Span(1, 1000), 0.01)])
        assert 0.0 <= sparse <= dense <= 1.0

    def test_describe(self, leaf):
        assert ValueOffset.previous(leaf).describe() == "previous"
        assert ValueOffset.next(leaf).describe() == "next"
        assert "-3" in ValueOffset(leaf, -3).describe()
