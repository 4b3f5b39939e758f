"""Property tests: the storage substrate is a faithful sequence store."""

from __future__ import annotations

from contextlib import nullcontext

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.model import AtomType, BaseSequence, Record, RecordSchema, Span
from repro.model.batch import column_to_list, typed_column
from repro.storage import StoredSequence
from tests.test_vector_kernels import forced_backend

SCHEMA = RecordSchema.of(v=AtomType.INT, f=AtomType.FLOAT)

#: Batch widths for the columnar read: degenerate, smaller than a page,
#: a page, a page plus one, the executor's default.
WIDTHS = (1, 7, 32, 33, 1024)

#: Context managers for the vector backend as installed and for CI's
#: no-numpy leg (looped inside tests, whose names stay as they were).
BACKENDS = (nullcontext, lambda: forced_backend(None))


def _values(position, extreme):
    """A record's values; ``extreme`` ones fit no typed buffer exactly."""
    if extreme:
        return (2**63 + position, 2**53 + 1)  # past int64; an int past 2**53
    return (position * 3, position / 4)


@st.composite
def stored_case(draw):
    positions = draw(
        st.sets(st.integers(min_value=-40, max_value=120), min_size=0, max_size=60)
    )
    extremes = draw(st.sets(st.sampled_from(sorted(positions)), max_size=2)) if positions else ()
    items = [(p, Record(SCHEMA, _values(p, p in extremes))) for p in sorted(positions)]
    organization = draw(st.sampled_from(["clustered", "indexed", "log"]))
    page_capacity = draw(st.sampled_from([1, 3, 8, 32]))
    buffer_pages = draw(st.sampled_from([1, 2, 8]))
    fanout = draw(st.sampled_from([2, 4, 16]))
    return items, organization, page_capacity, buffer_pages, fanout


#: Windows of every shape a scan is asked for: bounded (inside a page or
#: straddling several, as the page capacity falls), half-unbounded on
#: either side, empty, and lying wholly beyond the stored positions.
_bound = st.integers(min_value=-50, max_value=131)
windows = st.one_of(
    st.tuples(_bound, _bound).map(lambda b: Span(min(b), max(b))),
    _bound.map(lambda lo: Span(lo, None)),
    _bound.map(lambda hi: Span(None, hi)),
    st.just(Span.EMPTY),
    st.just(Span(200, 300)),
)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=stored_case())
def test_round_trip_scan(case):
    items, organization, page_capacity, buffer_pages, fanout = case
    stored = StoredSequence.create(
        "s", SCHEMA, items, organization=organization,
        page_capacity=page_capacity, buffer_pages=buffer_pages,
        index_fanout=fanout,
    )
    assert stored.to_pairs() == items


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=stored_case(), data=st.data())
def test_probe_agrees_with_memory(case, data):
    items, organization, page_capacity, buffer_pages, fanout = case
    stored = StoredSequence.create(
        "s", SCHEMA, items, organization=organization,
        page_capacity=page_capacity, buffer_pages=buffer_pages,
        index_fanout=fanout,
    )
    reference = BaseSequence(SCHEMA, items)
    for _ in range(10):
        position = data.draw(st.integers(min_value=-50, max_value=130))
        assert stored.get(position) == reference.get(position)


def _exact(values):
    """Values with their types: ``1``, ``1.0`` and ``True`` all differ."""
    return [(type(value), value) for value in values]


def _check_runs(runs, pairs, width):
    """``runs`` is ``pairs``, one typed batch of ``width`` positions per run."""
    flattened = []
    for positions, columns in runs:
        # One batch's worth: anchored at its first record, fewer than
        # ``width`` positions long ...
        assert 0 <= positions[-1] - positions[0] < width
        rows = list(zip(*map(column_to_list, columns)))
        assert len(rows) == len(positions) and len(columns) == len(SCHEMA)
        flattened.extend(zip(positions, rows))
        # ... typed exactly as typed_column types it: a buffer when
        # every value fits one, else the list of the stored values.
        for column, attribute in zip(columns, SCHEMA.attributes):
            values = [record[attribute.name] for p, record in pairs if p in positions]
            expected = typed_column(list(values), attribute.atype)
            assert type(column) is type(expected)
            assert _exact(column_to_list(column)) == _exact(column_to_list(expected))
            if isinstance(column, list):
                assert _exact(column) == _exact(values)
    # ... and holding every record up to the next run's anchor.
    for (before, _), (after, _) in zip(runs, runs[1:]):
        assert after[0] >= before[0] + width
    assert flattened == [(p, record.values) for p, record in pairs]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=stored_case(), window=windows, width=st.sampled_from(WIDTHS))
def test_window_scan_agrees(case, window, width):
    """The row read is the in-memory read, and the columnar read *is* the
    row read: same records, same page accounting, one batch per run."""
    items, organization, page_capacity, buffer_pages, fanout = case
    stored = StoredSequence.create(
        "s", SCHEMA, items, organization=organization,
        page_capacity=page_capacity, buffer_pages=buffer_pages,
        index_fanout=fanout,
    )
    reference = BaseSequence(SCHEMA, items)
    # Every read is drained from a cold pool and its counters kept.
    stored.flush_buffer()
    stored.reset_counters()
    pairs = stored.to_pairs(window)
    row_counters = stored.reset_counters()
    assert pairs == reference.to_pairs(window)
    for backend in BACKENDS:
        stored.flush_buffer()
        with backend():
            _check_runs(list(stored.column_runs(window, width)), pairs, width)
        assert stored.reset_counters() == row_counters
