"""Batch-mode executor equivalence: batch ≡ row on every query.

The batch executor (:mod:`repro.execution.batch_streams`) is a pure
performance path — it must produce exactly the answer of the row-mode
oracle (same positions, same records, same span) for every plan shape,
every batch size, and every window.  These tests drive the equivalence
three ways: hypothesis-generated query pipelines, the shipped
stock/weather workload queries, and Example 1.1, plus forced coverage
of the strategies the optimizer rarely picks (stream-probe,
probe-stream, naive unaries, stream-mode materialize).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, OptimizerError

from repro.algebra import base, col, constant, lit
from repro.lang import compile_query
from repro.model import AtomType, BaseSequence, ColumnBatch, Record, RecordSchema, Span
from repro.catalog import Catalog
from repro.execution import (
    DEFAULT_BATCH_SIZE,
    ExecutionCounters,
    build_batch_stream,
    build_stream,
    execute_plan,
    run_query_detailed,
)
from repro.optimizer import optimize
from repro.optimizer.plans import PROBE
from repro.relational.example11 import sequence_query
from repro.storage import ORGANIZATION_KINDS, StoredSequence
from repro.workloads import (
    STOCK_EXAMPLE_QUERIES,
    WEATHER_EXAMPLE_QUERIES,
    WeatherSpec,
    bernoulli_sequence,
    generate_weather,
)

BATCH_SIZES = (1, 7, DEFAULT_BATCH_SIZE)

VALUE_SCHEMA = RecordSchema.of(value=AtomType.FLOAT)


def assert_modes_agree(query, catalog=None, span=None):
    """Run ``query`` in row mode and in batch mode at several batch sizes."""
    row = run_query_detailed(query, span=span, catalog=catalog, mode="row")
    expected = row.output.to_pairs()
    for size in BATCH_SIZES:
        batch = run_query_detailed(
            query, span=span, catalog=catalog, mode="batch", batch_size=size
        )
        assert batch.output.to_pairs() == expected, f"batch_size={size}"
        assert batch.output.span == row.output.span
        if expected:
            assert batch.counters.batches_built > 0
    return row


def sequence_from(positions_values: dict[int, float], end: int, leaf: str = "memory"):
    """A value sequence over ``Span(0, end)`` from a position->value map.

    ``leaf`` names where it lives: in ``memory``, or stored under one of
    the three physical organizations (small pages, a pool that thrashes).
    """
    sequence = BaseSequence(
        VALUE_SCHEMA,
        ((p, Record(VALUE_SCHEMA, (v,))) for p, v in sorted(positions_values.items())),
        span=Span(0, end),
    )
    if leaf == "memory":
        return sequence
    return StoredSequence.from_sequence(
        "s", sequence, organization=leaf, page_capacity=4, buffer_pages=2, index_fanout=4
    )


_leaves = st.sampled_from(("memory",) + ORGANIZATION_KINDS)


# -- hypothesis: pipelines of unary operators --------------------------------

_values = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)

_datasets = st.dictionaries(
    st.integers(min_value=0, max_value=59), _values, min_size=0, max_size=40
)

_unary_ops = st.lists(
    st.one_of(
        st.tuples(st.just("select"), _values),
        st.tuples(st.just("shift"), st.integers(min_value=-5, max_value=5)),
        st.tuples(
            st.just("voffset"),
            st.integers(min_value=-3, max_value=3).filter(lambda k: k != 0),
        ),
        st.tuples(
            st.just("window"),
            st.sampled_from(["avg", "sum", "min", "max"]),
            st.integers(min_value=1, max_value=6),
        ),
        st.tuples(st.just("cumulative"), st.sampled_from(["sum", "max"])),
        st.tuples(st.just("global"), st.sampled_from(["min", "avg"])),
    ),
    min_size=0,
    max_size=3,
)


def _apply_ops(seq, ops):
    """Apply a generated op list to a fluent builder, keeping attr 'value'."""
    for op in ops:
        kind = op[0]
        if kind == "select":
            seq = seq.select(col("value") > lit(op[1]))
        elif kind == "shift":
            seq = seq.shift(op[1])
        elif kind == "voffset":
            seq = seq.value_offset(op[1])
        elif kind == "window":
            seq = seq.window(op[1], "value", op[2], "value")
        elif kind == "cumulative":
            seq = seq.cumulative(op[1], "value", "value")
        else:
            seq = seq.global_agg(op[1], "value", "value")
    return seq


class TestHypothesisEquivalence:
    """Property: batch ≡ row over generated plans and batch sizes."""

    @settings(max_examples=40, deadline=None)
    @given(data=_datasets, ops=_unary_ops, leaf=_leaves)
    def test_unary_pipelines(self, data, ops, leaf):
        sequence = sequence_from(data, end=59, leaf=leaf)
        query = _apply_ops(base(sequence, "s"), ops).query()
        try:
            assert_modes_agree(query)
        except OptimizerError:
            # Some generated pipelines have unbounded spans the planner
            # refuses (in both modes); those prove nothing here.
            assume(False)

    @settings(max_examples=25, deadline=None)
    @given(
        left=_datasets,
        right=_datasets,
        threshold=_values,
        shift=st.integers(min_value=-4, max_value=4),
        leaves=st.tuples(_leaves, _leaves),
    )
    def test_join_pipelines(self, left, right, threshold, shift, leaves):
        a = sequence_from(left, end=59, leaf=leaves[0])
        b = sequence_from(right, end=59, leaf=leaves[1])
        query = (
            base(a, "a")
            .compose(base(b, "b").shift(shift), prefixes=("a", "b"))
            .select(col("a_value") > lit(threshold))
            .query()
        )
        assert_modes_agree(query)

    @settings(max_examples=25, deadline=None)
    @given(data=_datasets, threshold=_values, leaf=_leaves)
    def test_constant_leaf_pipelines(self, data, threshold, leaf):
        """A ConstantLeaf scanned beside a sequence: its runs are batches too."""
        query = (
            base(sequence_from(data, end=59, leaf=leaf), "s")
            .compose(constant("threshold", threshold))
            .select(col("value") > col("threshold"))
            .query()
        )
        assert_modes_agree(query)

    @settings(max_examples=25, deadline=None)
    @given(
        data=_datasets,
        lo=st.integers(min_value=0, max_value=59),
        width=st.integers(min_value=0, max_value=30),
        size=st.sampled_from(BATCH_SIZES),
    )
    def test_narrow_windows(self, data, lo, width, size):
        """Executing over a sub-window agrees between the two modes."""
        sequence = sequence_from(data, end=59)
        query = base(sequence, "s").window("sum", "value", 4, "value").query()
        plan = optimize(query).plan.plan
        window = Span(lo, min(59, lo + width))
        row = execute_plan(plan, window, ExecutionCounters(), mode="row")
        batch = execute_plan(
            plan, window, ExecutionCounters(), mode="batch", batch_size=size
        )
        assert batch.to_pairs() == row.to_pairs()


# -- shipped workload queries ------------------------------------------------


@pytest.fixture(scope="module")
def weather_named():
    """The weather workload registered under the names its queries use."""
    volcanos, quakes = generate_weather(WeatherSpec(horizon=2000, seed=7))
    catalog = Catalog()
    catalog.register("v", volcanos)
    catalog.register("e", quakes)
    return catalog


class TestWorkloadQueries:
    """Every shipped example query answers identically in both modes."""

    @pytest.mark.parametrize("source", STOCK_EXAMPLE_QUERIES)
    def test_stock_examples(self, source, table1):
        catalog, _sequences = table1
        query = compile_query(source, catalog)
        assert_modes_agree(query, catalog=catalog)

    @pytest.mark.parametrize("source", WEATHER_EXAMPLE_QUERIES)
    def test_weather_examples(self, source, weather_named):
        query = compile_query(source, weather_named)
        assert_modes_agree(query, catalog=weather_named)

    def test_example_11(self):
        volcanos, earthquakes = generate_weather(WeatherSpec(horizon=3000, seed=21))
        query = sequence_query(volcanos, earthquakes, threshold=7.0)
        row = assert_modes_agree(query)
        assert len(row.output) > 0

    def test_core_counters_match_on_workload(self, table1):
        """Scan/probe/cache accounting agrees between modes on a
        representative stock query (batch buffers are not caches)."""
        catalog, _sequences = table1
        query = compile_query(
            "window(select(ibm, volume > 4000), avg, close, 3, ma3)", catalog
        )
        row = run_query_detailed(query, catalog=catalog, mode="row")
        batch = run_query_detailed(query, catalog=catalog, mode="batch")
        for key in (
            "scans_opened",
            "probes_issued",
            "cache_ops",
            "max_cache_occupancy",
            "predicate_evals",
            "records_emitted",
        ):
            assert batch.counters.as_dict()[key] == row.counters.as_dict()[key], key


# -- records only at the edge ---------------------------------------------------


class TestRecordsOnlyAtTheEdge:
    """A batch plan over a stored leaf boxes nothing until its answer is read."""

    SHAPES = {
        "scan-select-project": lambda leaf: leaf.select(col("value") > lit(0.5)).project("value"),
        "window-aggregate": lambda leaf: leaf.window("avg", "value", 5, "mean"),
    }

    @pytest.mark.parametrize("organization", ORGANIZATION_KINDS)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_no_record_before_the_drain(self, shape, organization, data, monkeypatch):
        stored = StoredSequence.from_sequence(
            "s", data, organization=organization, page_capacity=8, buffer_pages=2
        )
        plan = optimize(self.SHAPES[shape](base(stored, "s")).query()).plan.plan
        expected = execute_plan(plan, mode="row").to_pairs()
        built = []
        checked, unchecked = Record.__init__, Record.unchecked.__func__

        def counting_init(self, *args):
            built.append("checked")
            checked(self, *args)

        def counting_unchecked(cls, *args):
            built.append("unchecked")
            return unchecked(cls, *args)

        monkeypatch.setattr(Record, "__init__", counting_init)
        monkeypatch.setattr(Record, "unchecked", classmethod(counting_unchecked))
        answer = execute_plan(plan, mode="batch", batch_size=16)
        assert built == []
        assert answer.to_pairs() == expected
        assert built == ["unchecked"] * len(expected) != []


# -- forced strategies the optimizer rarely picks ----------------------------


@pytest.fixture
def data():
    return bernoulli_sequence(Span(0, 199), 0.6, seed=33)


def _run_plan_both(plan, window):
    row = execute_plan(plan, window, ExecutionCounters(), mode="row")
    for size in BATCH_SIZES:
        batch = execute_plan(
            plan, window, ExecutionCounters(), mode="batch", batch_size=size
        )
        assert batch.to_pairs() == row.to_pairs(), f"batch_size={size}"
    return row


class TestForcedStrategies:
    """Plan kinds and strategies built by hand to force batch coverage."""

    def test_stream_probe_and_probe_stream(self, data):
        other = bernoulli_sequence(
            Span(0, 199), 0.5, seed=44, schema=RecordSchema.of(w=AtomType.FLOAT)
        )
        query = (
            base(data, "s")
            .compose(base(other, "o"))
            .select(col("value") > col("w"))
            .query()
        )
        result = optimize(query)
        join = result.plan.plan
        while join.kind not in ("lockstep", "stream-probe", "probe-stream"):
            join = join.children[0]
        left, right = join.children
        probe_left = replace(left, kind="probe-source", mode=PROBE)
        probe_right = replace(right, kind="probe-source", mode=PROBE)
        window = result.plan.output_span
        _run_plan_both(
            replace(join, kind="stream-probe", children=(left, probe_right)), window
        )
        _run_plan_both(
            replace(join, kind="probe-stream", children=(probe_left, right)), window
        )

    @pytest.mark.parametrize(
        "build",
        [
            lambda s: base(s, "s").window("avg", "value", 5),
            lambda s: base(s, "s").value_offset(-2),
            lambda s: base(s, "s").value_offset(2),
            lambda s: base(s, "s").cumulative("sum", "value"),
        ],
        ids=["window-agg", "voffset-back", "voffset-fwd", "cumulative"],
    )
    def test_naive_strategies(self, data, build):
        query = build(data).query()
        result = optimize(query)
        plan = result.plan.plan
        probe_child = replace(plan.children[0], kind="probe-source", mode=PROBE)
        naive = replace(
            plan, strategy="naive", cache_size=None, children=(probe_child,)
        )
        _run_plan_both(naive, result.plan.output_span)

    def test_stream_materialize(self, data):
        query = base(data, "s").select(col("value") > lit(0.0)).query()
        result = optimize(query)
        plan = result.plan.plan
        wrapped = replace(
            plan, kind="materialize", node=None, steps=(), children=(plan,)
        )
        _run_plan_both(wrapped, result.plan.output_span)


# -- the batch value type ----------------------------------------------------


class TestColumnBatch:
    """Direct unit coverage of the ColumnBatch container."""

    def test_roundtrip_and_nulls(self):
        schema = VALUE_SCHEMA
        items = [(3, Record(schema, (1.5,))), (5, Record(schema, (2.5,)))]
        batch = ColumnBatch.from_items(schema, 3, 4, items)
        assert len(batch) == 4 and batch.span == Span(3, 6)
        assert batch.count_valid() == 2
        assert list(batch.iter_items()) == items
        assert batch.record_at(4).is_null
        assert batch.record_at(5).values == (2.5,)

    def test_sliced(self):
        schema = VALUE_SCHEMA
        batch = ColumnBatch.from_items(
            schema, 0, 6, [(i, Record(schema, (float(i),))) for i in (0, 2, 4)]
        )
        part = batch.sliced(1, 4)
        assert part.start == 1 and len(part) == 4
        assert [p for p, _r in part.iter_items()] == [2, 4]

    def test_batch_stream_covers_window_only(self, data):
        query = base(data, "s").query()
        plan = optimize(query).plan.plan
        window = Span(20, 80)
        counters = ExecutionCounters()
        spans = [b.span for b in build_batch_stream(plan, window, counters, 16)]
        assert all(s.start >= 20 and s.end <= 80 for s in spans)
        assert spans == sorted(spans, key=lambda s: s.start)
        row = list(build_stream(plan, window, ExecutionCounters()))
        total = sum(
            b.count_valid()
            for b in build_batch_stream(plan, window, ExecutionCounters(), 16)
        )
        assert total == len(row)

    def test_entry_point_rejects_bad_batch_size(self, data):
        plan = optimize(base(data, "s").query()).plan.plan
        with pytest.raises(ExecutionError, match="batch size must be >= 1"):
            build_batch_stream(plan, plan.span, ExecutionCounters(), 0)
