"""ANALYZE gives the statistics and correlations the record-wise loops gave.

``collect_stats`` reads column runs, ``EquiWidthHistogram.build`` tallies
with C-level maps, and ``null_correlation`` probes or streams positions
by the paper's A and a.  The record-wise loops they replaced are kept
below as the reference, and every result must be ``==`` to theirs —
over in-memory, constant and stored sequences in all three
organizations, on both vector backends.  Values that are not finite
floats are the one place the new path differs: they raise a typed
``CatalogError`` where the loops raised ``ValueError``.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.catalog.catalog as catalog_module
from repro.catalog import (
    Catalog,
    ColumnStats,
    EquiWidthHistogram,
    SequenceStats,
    collect_stats,
    null_correlation,
)
from repro.catalog.catalog import correlation_strategy
from repro.errors import CatalogError
from repro.lang import compile_query
from repro.model import AtomType, BaseSequence, ConstantSequence, Record, RecordSchema, Span
from repro.optimizer import optimize
from repro.storage import ORGANIZATION_KINDS, StoredSequence
from tests.test_property_storage import BACKENDS

SCHEMA = RecordSchema.of(i=AtomType.INT, f=AtomType.FLOAT, s=AtomType.STR, b=AtomType.BOOL)
KINDS = ("memory", "constant", *ORGANIZATION_KINDS)


# -- the record-wise reference ---------------------------------------------------


def reference_histogram(values, buckets=16):
    """The per-value loop ``EquiWidthHistogram.build`` ran before."""
    low = float(min(values))
    high = float(max(values))
    if low == high:
        return EquiWidthHistogram(low, high, (len(values),), len(values))
    width = (high - low) / buckets
    counts = [0] * buckets
    for value in values:
        index = min(int((float(value) - low) / width), buckets - 1)
        counts[index] += 1
    return EquiWidthHistogram(low, high, tuple(counts), len(values))


def reference_stats(sequence, buckets=16):
    """The record-wise scan ``collect_stats`` ran before."""
    length = sequence.span.length()
    per_column = {name: [] for name in sequence.schema.names}
    count = 0
    for _position, record in sequence.iter_nonnull():
        count += 1
        for name in per_column:
            per_column[name].append(record.get(name))
    columns = {}
    for attr in sequence.schema:
        values = per_column[attr.name]
        histogram = None
        if attr.atype.is_numeric and values:
            histogram = reference_histogram(values, buckets)
        columns[attr.name] = ColumnStats(attr.atype, len(values), len(set(values)), histogram)
    density = count / length if length else 0.0
    return SequenceStats(sequence.span, count, density, columns)


def reference_correlation(first, second):
    """The two position sets ``null_correlation`` intersected before."""
    window = first.span.intersect(second.span)
    length = window.length()
    if length == 0:
        return 1.0
    first_positions = {pos for pos, _ in first.iter_nonnull(window)}
    second_positions = {pos for pos, _ in second.iter_nonnull(window)}
    d1 = len(first_positions) / length
    d2 = len(second_positions) / length
    if d1 == 0.0 or d2 == 0.0:
        return 1.0
    both = len(first_positions & second_positions) / length
    return both / (d1 * d2)


# -- data ------------------------------------------------------------------------

#: FLOAT values: finite floats (either zero sign), and ints, some past
#: 2**53 so that a typed buffer refuses the run and the list is kept.
_floats = st.one_of(
    st.floats(min_value=-1e9, max_value=1e9, allow_subnormal=False).filter(
        lambda v: v == 0.0 or abs(v) >= 1e-9
    ),
    st.sampled_from([0.0, -0.0, 2.5]),
    st.integers(min_value=-(2**60), max_value=2**60),
)
_values = st.tuples(
    st.integers(min_value=-(2**70), max_value=2**70),
    _floats,
    st.text(max_size=3),
    st.booleans(),
)


@st.composite
def sequences(draw, kind=None):
    """A sequence of ``kind`` (drawn when None): sparse, dense or empty."""
    kind = kind or draw(st.sampled_from(KINDS))
    positions = sorted(draw(st.sets(st.integers(min_value=-20, max_value=150), max_size=70)))
    low = min(positions, default=0) - draw(st.integers(min_value=0, max_value=30))
    high = max(positions, default=-1) + draw(st.integers(min_value=0, max_value=30))
    span = Span(low, high) if low <= high else Span.EMPTY
    if kind == "constant":
        return ConstantSequence(Record(SCHEMA, draw(_values)), span)
    pairs = [(p, Record(SCHEMA, draw(_values))) for p in positions]
    if kind == "memory":
        return BaseSequence(SCHEMA, pairs, span=span)
    return StoredSequence.create(
        "s", SCHEMA, pairs, span=span, organization=kind,
        page_capacity=draw(st.sampled_from([1, 4, 32])), buffer_pages=2, index_fanout=4,
    )


# -- collect_stats ----------------------------------------------------------------


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), buckets=st.sampled_from([1, 3, 16]))
def test_collect_stats_is_the_record_scan(data, buckets):
    for backend in BACKENDS:
        with backend():
            sequence = data.draw(sequences())
            assert collect_stats(sequence, buckets) == reference_stats(sequence, buckets)


@pytest.mark.parametrize("kind", KINDS)
def test_float_column_with_ints_past_2_53(kind):
    """An int past 2**53 in a FLOAT column keeps its run a list, exactly."""
    schema = RecordSchema.of(f=AtomType.FLOAT)
    values = [2**53 + 1, 2**53, 0.5, -0.0, 0, 2**60 + 3, 7]
    pairs = [(p, Record(schema, (v,))) for p, v in enumerate(values)]
    if kind == "constant":
        sequence = ConstantSequence(Record(schema, (2**53 + 1,)), Span(0, 40))
    elif kind == "memory":
        sequence = BaseSequence(schema, pairs)
    else:
        sequence = StoredSequence.create("f", schema, pairs, organization=kind, page_capacity=2)
    for backend in BACKENDS:
        with backend():
            assert collect_stats(sequence) == reference_stats(sequence)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), organization=st.sampled_from(ORGANIZATION_KINDS))
def test_stats_scan_reads_what_a_record_scan_reads(data, organization):
    """Same pages, same order: every storage count equals ``iter_nonnull``'s."""
    stored = data.draw(sequences(organization))
    fields = ("page_reads", "buffer_hits", "index_node_reads", "records_streamed")
    counts = []
    for scan in (collect_stats, lambda s: sum(1 for _ in s.iter_nonnull())):
        stored.flush_buffer()
        stored.reset_counters()
        scan(stored)
        snapshot = stored.counters.snapshot()
        counts.append({name: getattr(snapshot, name) for name in fields})
    assert counts[0] == counts[1]


# -- the histogram tally ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(_floats, min_size=1, max_size=60),
    buckets=st.integers(min_value=1, max_value=20),
)
def test_c_level_tally_is_the_per_value_loop(values, buckets):
    assert EquiWidthHistogram.build(values, buckets) == reference_histogram(values, buckets)


@pytest.mark.parametrize(
    "values",
    [
        [0.0, 1.0, 2.0, 3.0, 4.0],  # high lands on the key past the last bucket
        [7.25] * 9,  # one repeated value
        [-50.0, -49.5, -12.0, -0.0, -3.75],  # a negative range
        [-(2**53) - 1, -3, 2**53 + 1],  # ints a float cannot hold exactly
        [0.1 * k for k in range(100)],
    ],
)
@pytest.mark.parametrize("buckets", [1, 4, 16])
def test_tally_edges(values, buckets):
    built = EquiWidthHistogram.build(values, buckets)
    assert built == reference_histogram(values, buckets)
    assert sum(built.counts) == built.total == len(values)


# -- non-finite values are typed, and only lose their histogram ----------------------


NON_FINITE = {
    "nan": ("f", float("nan")),
    "+inf": ("f", float("inf")),
    "-inf": ("f", -float("inf")),
    "int-past-float": ("i", 10**400),
    "float-col-int-past-float": ("f", 10**400),
    "range-overflow": ("f", -1.7e308),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_histogram_rejects_non_finite_values(case):
    _column, bad = NON_FINITE[case]
    values = [1.0, bad, 2.0] if case != "range-overflow" else [1.7e308, bad]
    with pytest.raises(CatalogError):
        EquiWidthHistogram.build(values)


@pytest.mark.parametrize("where", ["memory", "clustered"])
@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_register_survives_non_finite_values(case, where):
    """Registration succeeds; the column plans from its distinct count."""
    column, bad = NON_FINITE[case]
    schema = RecordSchema.of(i=AtomType.INT, f=AtomType.FLOAT)
    rows = [(p, (p, 1.7e308 if case == "range-overflow" else p / 2)) for p in range(40)]
    rows[7] = (7, (bad, 3.5) if column == "i" else (7, bad))
    sequence = BaseSequence.from_values(schema, rows)
    if where != "memory":
        sequence = StoredSequence.from_sequence("s", sequence, organization=where)
    catalog = Catalog()
    stats = catalog.register("s", sequence).stats
    other = "f" if column == "i" else "i"
    assert stats.column(column).histogram is None
    assert stats.column(other).histogram is not None
    assert stats.column(column).selectivity(">", 1.0) == pytest.approx(1 / 3)
    query = compile_query(f"select(s, {column} > 1)", catalog)
    assert optimize(query, catalog=catalog).plan is not None


def test_bad_bucket_count_is_rejected_up_front():
    schema = RecordSchema.of(s=AtomType.STR)
    with pytest.raises(CatalogError, match="bucket"):
        collect_stats(BaseSequence.from_values(schema, [(0, ("x",))]), buckets=0)


# -- null_correlation ------------------------------------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    first_kind=st.sampled_from(KINDS),
    second_kind=st.sampled_from(KINDS),
)
def test_correlation_is_the_same_float_either_strategy(data, first_kind, second_kind):
    first = data.draw(sequences(first_kind))
    second = data.draw(sequences(second_kind))
    expected = reference_correlation(first, second)
    assert null_correlation(first, second) == expected
    for strategy in ("probe", "stream"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(catalog_module, "correlation_strategy", lambda *_: strategy)
            assert null_correlation(first, second) == expected


@pytest.mark.parametrize("strategy", ("probe", "stream"))
def test_correlating_record_built_sequences_derives_no_columns(strategy, monkeypatch):
    """In-memory positions come from the position list, bisected to the
    window: correlating two record-built sequences transposes neither."""
    schema = RecordSchema.of(v=AtomType.INT)
    first = BaseSequence.from_values(
        schema, [(p, (p,)) for p in range(0, 300, 3)], span=Span(0, 299)
    )
    second = BaseSequence.from_values(
        schema, [(p, (p,)) for p in range(50, 400, 2)], span=Span(0, 399)
    )
    expected = reference_correlation(first, second)
    monkeypatch.setattr(catalog_module, "correlation_strategy", lambda *_: strategy)
    assert null_correlation(first, second) == expected
    assert not first._holds_columns() and not second._holds_columns()


@pytest.mark.parametrize(
    "organization, expected",
    [("indexed", "probe"), ("clustered", "probe"), ("log", "stream")],
)
def test_strategy_follows_a_and_big_a(organization, expected):
    """A 1 % driver probes a partner whose probes cost less than a scan,
    and streams against a log, whose probe scans from the head."""
    schema = RecordSchema.of(v=AtomType.INT)
    dense = StoredSequence.create(
        "dense", schema, [(p, Record(schema, (p,))) for p in range(2000)],
        organization=organization,
    )
    driver = BaseSequence.from_values(schema, [(p, (p,)) for p in range(0, 2000, 100)])
    assert correlation_strategy(driver, dense, driver.count_nonnull()) == expected


def test_covering_window_count_reads_no_page():
    schema = RecordSchema.of(v=AtomType.INT)
    stored = StoredSequence.create(
        "s", schema, [(p, Record(schema, (p,))) for p in range(100)], span=Span(0, 120)
    )
    stored.reset_counters()
    assert stored.count_nonnull(Span(-5, 200)) == stored.count_nonnull(Span(0, 120)) == 100
    assert stored.counters.page_reads == stored.counters.records_streamed == 0
    assert stored.count_nonnull(Span(0, 49)) == 50
    assert stored.counters.records_streamed == 50
