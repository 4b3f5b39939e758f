"""Row chains run over value tuples, compiled once per operator open.

A chain of unit-scope steps (select / project / rename / shift) is
compiled once by :func:`repro.execution.probers.chain_steps`, and the
row stream, the chain prober and the batch stream all run those steps.
The differential here requires the four evaluations of a generated
chain — row stream, chain prober, batch stream and the denotational
``run_naive`` — to agree exactly, over windows inside, across and
outside the data (empty ones included) and shifts past the span; the
regression test pins the per-record work a project chain does.
"""

from __future__ import annotations

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.algebra import (
    Compose,
    PositionalOffset,
    Project,
    Query,
    Select,
    SequenceLeaf,
    base,
    col,
)
from repro.execution import ExecutionCounters, build_prober, execute_plan
from repro.model import NULL, AtomType, BaseSequence, Record, RecordSchema, Span
from repro.optimizer import optimize

SCHEMA = RecordSchema.of(a=AtomType.INT, b=AtomType.FLOAT, c=AtomType.STR)
NUMERIC = {"a", "b"}


@st.composite
def sequences(draw, name: str, span: Span) -> SequenceLeaf:
    """A three-attribute sequence with about half of ``span``'s positions."""
    present = draw(st.lists(st.booleans(), min_size=span.length(), max_size=span.length()))
    items = [
        (p, (draw(st.integers(-50, 50)), draw(st.floats(-50, 50)), f"v{p}"))
        for p, keep in zip(span.positions(), present)
        if keep
    ]
    return SequenceLeaf(BaseSequence.from_values(SCHEMA, items, span=span), name)


@st.composite
def chains(draw, name: str, span: Span):
    """Up to five selects, projects and shifts over one leaf."""
    node = draw(sequences(name, span))
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        names = list(node.schema.names)
        kind = draw(st.sampled_from(("select", "project", "shift")))
        numeric = [n for n in names if n in NUMERIC]
        if kind == "select" and numeric:
            node = Select(node, col(draw(st.sampled_from(numeric))) > draw(st.integers(-60, 20)))
        elif kind == "project":
            keep = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
            node = Project(node, keep)
        else:
            # Mostly small offsets, so composed chains still overlap; some
            # up to twice the widest span: shifts past the data.
            offsets = st.integers(min_value=-3, max_value=3) | st.integers(-60, 60)
            node = PositionalOffset(node, draw(offsets))
    return node


@st.composite
def chain_queries(draw):
    """A chain, or two over one span composed (their prefixes become renames)."""
    start = draw(st.integers(min_value=-10, max_value=10))
    span = Span(start, start + draw(st.integers(min_value=0, max_value=24)))
    node = draw(chains("s", span))
    composed = draw(st.booleans())
    if composed:
        node = Compose(node, draw(chains("t", span)), prefixes=("l", "r"))
    return Query(node), composed


@st.composite
def windows(draw, span: Span) -> Span:
    """Mostly inside ``span``; some across or outside it, some empty."""
    assert span.start is not None and span.end is not None
    slack = draw(st.sampled_from((0, 0, 30)))
    lo = draw(st.integers(span.start - slack, max(span.start, span.end) + slack))
    return Span(lo, lo + draw(st.integers(min_value=-2, max_value=40)))


def _row(plan, window):
    counters = ExecutionCounters()
    answer = execute_plan(plan, window, counters, mode="row")
    return answer.to_pairs(), counters


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=chain_queries(), data=st.data())
def test_row_stream_prober_batch_and_naive_agree(case, data):
    query, composed = case
    planned = optimize(query).planned
    stream_plan, probe_plan = planned.stream_plan, planned.probe_plan
    window = data.draw(windows(stream_plan.span)).intersect(stream_plan.span)

    expected = query.run_naive(window).to_pairs()
    row, row_counters = _row(stream_plan, window)
    assert row == expected

    batch_counters = ExecutionCounters()
    batch_size = data.draw(st.integers(min_value=1, max_value=9))
    batch = execute_plan(
        stream_plan, window, batch_counters, mode="batch", batch_size=batch_size
    )
    assert batch.to_pairs() == expected

    # A probed join answers the same whichever side it probes first.
    orders = ("probe-left-first", "probe-right-first") if composed else (probe_plan.strategy,)
    for order in orders:
        probe_counters = ExecutionCounters()
        prober = build_prober(dataclasses.replace(probe_plan, strategy=order), probe_counters)
        probed = [(p, prober.get(p)) for p in window.positions()]
        assert [(p, r) for p, r in probed if r is not NULL] == expected

    if not composed:
        # One chain over one scan: every executor evaluates each
        # predicate on the same child records.  (A join reads its
        # inputs over their whole spans, so only the answers compare.)
        assert batch_counters.predicate_evals == row_counters.predicate_evals
        assert batch_counters.operator_records == row_counters.operator_records
        assert probe_counters.predicate_evals == row_counters.predicate_evals


def test_project_chain_builds_one_record_per_row_and_no_schema_per_record(monkeypatch):
    rows = [(p, (p, p * 0.5, f"v{p}")) for p in range(2_000)]
    data = BaseSequence.from_values(SCHEMA, rows)
    query = Query(Project(Select(SequenceLeaf(data, "s"), col("a") >= 500), ["c", "a"]))
    plan = optimize(query).plan.plan

    built = {"schemas": 0, "records": 0}
    schema_init, record_init = RecordSchema.__init__, Record.__init__
    unchecked = Record.unchecked

    def count_schema(self, attrs):
        built["schemas"] += 1
        schema_init(self, attrs)

    def count_record(self, schema, values):
        built["records"] += 1
        record_init(self, schema, values)

    def count_unchecked(cls, schema, values):
        built["records"] += 1
        return unchecked(schema, values)

    monkeypatch.setattr(RecordSchema, "__init__", count_schema)
    monkeypatch.setattr(Record, "__init__", count_record)
    monkeypatch.setattr(Record, "unchecked", classmethod(count_unchecked))
    answer, counters = _row(plan, plan.span)

    assert len(answer) == 1_500
    assert built["records"] == len(answer) == counters.records_emitted
    # The chain's output schema is built when the steps compile, once.
    assert built["schemas"] <= 1
    assert all(record.schema is plan.schema for _p, record in answer)
    assert answer[0] == (500, Record(plan.schema, ("v500", 500)))


def test_select_only_chain_passes_records_through():
    data = BaseSequence.from_values(SCHEMA, [(p, (p, 0.0, "x")) for p in range(10)])
    plan = optimize(base(data, "s").select(col("a") > 6).query()).plan.plan
    answer, _counters = _row(plan, plan.span)
    assert [record for _p, record in answer] == [data.at(p) for p in (7, 8, 9)]
    assert all(record is data.at(p) for p, record in answer)


@pytest.mark.parametrize("window", [Span(3, 2), Span(100, 120), Span(-50, -40)])
def test_windows_outside_the_data_are_empty(window):
    data = BaseSequence.from_values(SCHEMA, [(p, (p, 0.0, "x")) for p in range(10)])
    plan = optimize(base(data, "s").shift(-3).project("a").query()).plan.plan
    assert _row(plan, window)[0] == []
