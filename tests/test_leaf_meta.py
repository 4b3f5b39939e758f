"""Leaf meta-information is looked up, never re-derived from the data.

Three claims, one per section: planning (``compile_query`` +
``optimize``) touches no record, column or page of any leaf; every
sequence kind's constant-time ``count_nonnull`` equals a walk of
``iter_nonnull``; and a ``ColumnarAnswer`` drained through its record
list is indistinguishable from the ``BaseSequence`` of the same pairs.
"""

from __future__ import annotations

from typing import Optional

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.catalog import Catalog, leaf_meta
from repro.lang import compile_query
from repro.model import (
    NULL,
    AtomType,
    BaseSequence,
    ConstantSequence,
    Record,
    RecordSchema,
    Span,
)
from repro.model.base import ColumnarAnswer
from repro.model.batch import typed_column
from repro.optimizer import optimize
from repro.storage import StoredSequence
from repro.workloads import table1_catalog
from tests.test_plan_stability import ROWS, dense_walks

TEXTS = {
    group: [row["text"] for row in ROWS if row["group"] == group]
    for group in ("table1", "dense")
}
ORGANIZATIONS = ("clustered", "indexed", "log")


# -- (a) planning never reads data ---------------------------------------------


class CountingSequence(BaseSequence):
    """A base sequence that counts every access to its data."""

    reads = 0

    @classmethod
    def copy_of(cls, sequence: BaseSequence) -> "CountingSequence":
        return cls(sequence.schema, sequence.iter_nonnull(), span=sequence.span)

    def at(self, position):
        self.reads += 1
        return super().at(position)

    def iter_nonnull(self, within=None):
        self.reads += 1
        return super().iter_nonnull(within)

    def nonnull_columns(self, within=None):
        self.reads += 1
        return super().nonnull_columns(within)


def _counting_sources(group: str) -> dict[str, CountingSequence]:
    sources = table1_catalog()[1] if group == "table1" else dense_walks()
    return {name: CountingSequence.copy_of(seq) for name, seq in sources.items()}


def _registered(sequences: dict, collect: bool) -> Catalog:
    catalog = Catalog()
    for name, sequence in sequences.items():
        catalog.register(name, sequence, collect=collect)
    return catalog


def _plan_all(texts, env, catalog: Optional[Catalog]) -> None:
    for text in texts:
        optimize(compile_query(text, env), catalog=catalog)


@pytest.mark.parametrize("group", ["table1", "dense"])
@pytest.mark.parametrize("catalog_kind", ["none", "registered", "with-stats"])
def test_planning_reads_no_record_of_an_in_memory_leaf(group, catalog_kind):
    sequences = _counting_sources(group)
    catalog = None
    if catalog_kind != "none":
        # Collecting statistics scans once, at registration; not at plan time.
        catalog = _registered(sequences, collect=catalog_kind == "with-stats")
    for sequence in sequences.values():
        sequence.reads = 0
    _plan_all(TEXTS[group], sequences, catalog)
    assert {name: seq.reads for name, seq in sequences.items()} == dict.fromkeys(sequences, 0)
    # The counter is live: executing the same data does read it.
    next(iter(sequences.values())).to_pairs()
    assert sum(seq.reads for seq in sequences.values()) == 1


@pytest.mark.parametrize("organization", ORGANIZATIONS)
@pytest.mark.parametrize("with_catalog", [False, True])
def test_planning_reads_no_page_of_a_stored_leaf(organization, with_catalog):
    catalog, _memory = table1_catalog(organization=organization)
    stored = {name: catalog.get(name).sequence for name in ("ibm", "dec", "hp")}
    for sequence in stored.values():
        sequence.flush_buffer()
        sequence.reset_counters()
    _plan_all(TEXTS["table1"], stored, catalog if with_catalog else None)
    for name, sequence in stored.items():
        counters = sequence.counters
        touched = (
            counters.page_reads,
            counters.buffer_hits,
            counters.records_streamed,
            counters.probes,
            counters.index_node_reads,
        )
        assert touched == (0, 0, 0, 0, 0), (name, touched)


def test_leaf_meta_branches_for_undefined_density():
    schema = RecordSchema.of(v=AtomType.INT)
    unbounded = ConstantSequence(Record(schema, (1,)))
    empty = BaseSequence.empty(schema)
    for sequence in (unbounded, empty):
        meta = leaf_meta(sequence)
        assert (meta.count, meta.density) == (0, 1.0)
        assert meta.profile.stream_total == 1.0
    bounded = ConstantSequence(Record(schema, (1,)), span=Span(5, 14))
    assert leaf_meta(bounded)[:3] == (Span(5, 14), 10, 1.0)


def test_entry_for_sequence_prefers_the_alias_then_the_first_registration():
    sequences = table1_catalog()[1]
    catalog = Catalog()
    catalog.register("first", sequences["ibm"])
    catalog.register("second", sequences["ibm"])
    ibm = sequences["ibm"]
    assert catalog.entry_for_sequence(ibm).name == "first"
    assert catalog.entry_for_sequence(ibm, alias="second").name == "second"
    assert catalog.entry_for_sequence(ibm, alias="nobody").name == "first"
    assert catalog.entry_for_sequence(sequences["dec"], alias="first") is None


# -- (b) count_nonnull == a walk of iter_nonnull --------------------------------

SCHEMA = RecordSchema.of(v=AtomType.INT)
POSITION = st.integers(min_value=-40, max_value=120)
#: Spans over and around the data: bounded, empty, half-unbounded, all.
WINDOW = st.one_of(
    st.none(),
    st.just(Span.EMPTY),
    st.just(Span.ALL),
    st.builds(lambda lo, n: Span(lo, lo + n), st.integers(-200, 200), st.integers(0, 80)),
    st.builds(lambda lo: Span(lo, None), st.integers(-200, 200)),
    st.builds(lambda hi: Span(None, hi), st.integers(-200, 200)),
)


def _walked(sequence, window) -> int:
    return sum(1 for _ in sequence.iter_nonnull(window))


@st.composite
def pairs_and_span(draw):
    positions = sorted(draw(st.sets(POSITION, max_size=60)))
    pairs = [(p, Record(SCHEMA, (p * 3,))) for p in positions]
    if positions and draw(st.booleans()):
        pad = draw(st.integers(0, 30))
        return pairs, Span(positions[0] - pad, positions[-1] + pad)
    return pairs, None


@settings(max_examples=150, deadline=None)
@given(case=pairs_and_span(), window=WINDOW)
def test_count_matches_walk_for_base_and_columnar(case, window):
    pairs, span = case
    base = BaseSequence(SCHEMA, pairs, span=span)
    columnar = _columnar(pairs, base.span)
    assert base.count_nonnull(window) == _walked(base, window)
    assert columnar.count_nonnull(window) == _walked(columnar, window) == _walked(base, window)


@settings(max_examples=100, deadline=None)
@given(
    lo=st.integers(-50, 50),
    length=st.integers(0, 40),
    window=WINDOW.filter(lambda w: w is not None),
)
def test_count_matches_walk_for_constants(lo, length, window):
    record = Record(SCHEMA, (7,))
    bounded = ConstantSequence(record, span=Span(lo, lo + length))
    assert bounded.count_nonnull() == _walked(bounded, None) == length + 1
    assert bounded.count_nonnull(window) == _walked(bounded, window)
    if window.is_bounded:
        unbounded = ConstantSequence(record)
        assert unbounded.count_nonnull(window) == _walked(unbounded, window)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=pairs_and_span(),
    organization=st.sampled_from(ORGANIZATIONS),
    page_capacity=st.sampled_from([1, 3, 32]),
    window=WINDOW,
)
def test_count_matches_walk_for_stored(case, organization, page_capacity, window):
    pairs, span = case
    stored = StoredSequence.create(
        "s", SCHEMA, pairs, span=span, organization=organization,
        page_capacity=page_capacity, buffer_pages=2,
    )
    stored.reset_counters()
    unwindowed = stored.count_nonnull()
    assert stored.counters.page_reads == stored.counters.records_streamed == 0
    assert unwindowed == len(pairs)
    assert stored.count_nonnull(window) == _walked(stored, window)


# -- (c) ColumnarAnswer drains like the BaseSequence of the same pairs ----------


def _columnar(pairs, span: Span) -> ColumnarAnswer:
    positions = [p for p, _ in pairs]
    column = typed_column([r.values[0] for _, r in pairs], AtomType.INT)
    return ColumnarAnswer(SCHEMA, span, positions, [column])


@settings(max_examples=100, deadline=None)
@given(case=pairs_and_span(), window=WINDOW, probe=POSITION)
def test_columnar_answer_agrees_with_base_sequence(case, window, probe):
    pairs, span = case
    base = BaseSequence(SCHEMA, pairs, span=span)
    columnar = _columnar(pairs, base.span)
    assert list(columnar.iter_nonnull(window)) == list(base.iter_nonnull(window))
    assert columnar.at(probe) == base.at(probe)
    assert columnar == base and base == columnar
    if pairs:
        assert columnar != BaseSequence(SCHEMA, pairs[1:], span=base.span)


def test_columnar_answer_materializes_each_record_once():
    pairs = [(p, Record(SCHEMA, (p * 3,))) for p in range(0, 50, 2)]
    columnar = _columnar(pairs, Span(0, 49))
    first = [record for _p, record in columnar.iter_nonnull()]
    # iter_nonnull alone does not build the position -> record mapping.
    assert "_records" not in vars(columnar)
    second = [record for _p, record in columnar.iter_nonnull()]
    windowed = [record for _p, record in columnar.iter_nonnull(Span(10, 20))]
    assert all(a is b for a, b in zip(first, second))
    assert all(a is b for a, b in zip(windowed, first[5:11]))
    # at() and equality read the same Record objects through the mapping.
    assert columnar.at(10) is first[5]
    assert columnar.at(11) is NULL
    assert type(first[0].values[0]) is int


def _columnar_of(schema, positions, *columns) -> ColumnarAnswer:
    typed = [typed_column(list(c), a.atype) for c, a in zip(columns, schema.attributes)]
    return ColumnarAnswer(schema, Span(0, 99), list(positions), typed)


def test_columnar_answers_compare_as_columns_without_boxing(monkeypatch):
    both = RecordSchema.of(v=AtomType.INT, w=AtomType.FLOAT)
    renamed = RecordSchema.of(v=AtomType.INT, x=AtomType.FLOAT)
    left = _columnar_of(both, [1, 4, 9], [10, 40, 90], [1.0, 4.0, 9.0])
    cases = {
        "equal": _columnar_of(both, [1, 4, 9], [10, 40, 90], [1.0, 4.0, 9.0]),
        "unequal value": _columnar_of(both, [1, 4, 9], [10, 41, 90], [1.0, 4.0, 9.0]),
        "unequal position": _columnar_of(both, [1, 5, 9], [10, 40, 90], [1.0, 4.0, 9.0]),
        "shorter": _columnar_of(both, [1, 4], [10, 40], [1.0, 4.0]),
        # FLOAT accepts ints: a list column of ints beside a float64 buffer.
        "int in a float column": _columnar_of(both, [1, 4, 9], [10, 40, 90], [1, 4, 2**60]),
        "int equal to the float": ColumnarAnswer(
            both, Span(0, 99), [1, 4, 9], [[10, 40, 90], [1, 4, 9]]
        ),
        "other schema": _columnar_of(renamed, [1, 4, 9], [10, 40, 90], [1.0, 4.0, 9.0]),
    }
    built = []
    unchecked = Record.unchecked.__func__

    def counting_unchecked(cls, *args):
        built.append(args)
        return unchecked(cls, *args)

    monkeypatch.setattr(Record, "unchecked", classmethod(counting_unchecked))
    verdicts = {name: left == other for name, other in cases.items()}
    assert built == []
    assert {name for name, equal in verdicts.items() if equal} == {
        "equal",
        "int equal to the float",
    }
    for name, other in cases.items():  # the record-wise comparison agrees
        record_wise = BaseSequence.unchecked(other.schema, other.to_pairs(), other.span)
        assert (left == record_wise) == verdicts[name] == (record_wise == left), name
        assert (left != other) != verdicts[name]


def test_columnar_answer_without_attributes():
    empty_schema = RecordSchema.of()
    columnar = ColumnarAnswer(empty_schema, Span(0, 9), [1, 4], [])
    assert [p for p, _r in columnar.iter_nonnull()] == [1, 4]
    assert columnar == BaseSequence(
        empty_schema, [(1, Record(empty_schema, ())), (4, Record(empty_schema, ()))]
    )
