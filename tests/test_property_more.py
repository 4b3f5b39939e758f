"""Additional property tests: I/O round-trips, trigger equivalence,
cost-model sanity."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.model import AtomType, BaseSequence, Record, RecordSchema, Span
from repro.algebra import base, col
from repro.extensions import TriggerEngine
from repro.io import read_csv, write_csv
from repro.optimizer import AccessCosts, CostModel


# -- CSV round trip ------------------------------------------------------------

MIXED_SCHEMA = RecordSchema.of(
    price=AtomType.FLOAT, count=AtomType.INT, tag=AtomType.STR, flag=AtomType.BOOL
)


@st.composite
def mixed_sequence(draw):
    positions = draw(
        st.sets(st.integers(min_value=-100, max_value=100), min_size=1, max_size=40)
    )
    items = []
    for position in sorted(positions):
        items.append(
            (
                position,
                Record(
                    MIXED_SCHEMA,
                    (
                        draw(
                            st.floats(
                                min_value=-1e6,
                                max_value=1e6,
                                allow_nan=False,
                                allow_infinity=False,
                            )
                        ),
                        draw(st.integers(min_value=-10**9, max_value=10**9)),
                        draw(st.text(alphabet="abcxyz-_ .", min_size=1, max_size=8)),
                        draw(st.booleans()),
                    ),
                ),
            )
        )
    return BaseSequence(MIXED_SCHEMA, items)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=mixed_sequence())
def test_csv_round_trip_property(sequence, tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "seq.csv"
    write_csv(sequence, path)
    # supply the schema explicitly: inference cannot distinguish e.g.
    # a STR column whose values all look numeric
    again = read_csv(path, schema=MIXED_SCHEMA)
    assert again.to_pairs() == sequence.to_pairs()


# -- trigger vs batch ------------------------------------------------------------

VALUE_SCHEMA = RecordSchema.of(value=AtomType.FLOAT)


@st.composite
def arrival_stream(draw):
    positions = draw(
        st.sets(st.integers(min_value=0, max_value=60), min_size=1, max_size=40)
    )
    items = []
    for position in sorted(positions):
        value = draw(
            st.floats(min_value=-100, max_value=100, allow_nan=False,
                      allow_infinity=False)
        )
        items.append((position, Record(VALUE_SCHEMA, (value,))))
    return BaseSequence(VALUE_SCHEMA, items)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    sequence=arrival_stream(),
    threshold=st.floats(min_value=-100, max_value=100, allow_nan=False,
                        allow_infinity=False),
    width=st.integers(min_value=1, max_value=6),
)
def test_trigger_equals_batch_property(sequence, threshold, width):
    """Pushing a stream record-by-record equals the batch evaluation,
    restricted to arrival positions (trigger aggregates emit as-of
    each arrival)."""
    query = (
        base(sequence, "s")
        .select(col("value") > threshold)
        .window("count", "value", width)
        .query()
    )
    engine = TriggerEngine(query)
    emitted = {}
    for position, record in sequence.iter_nonnull():
        for out_position, out_record in engine.push("s", position, record):
            emitted[out_position] = out_record
    batch = query.run_naive()
    for position, record in emitted.items():
        assert batch.at(position) == record


# -- cost model sanity ------------------------------------------------------------

costs_strategy = st.builds(
    AccessCosts,
    stream_total=st.floats(min_value=0, max_value=1e6),
    probe_unit=st.floats(min_value=0, max_value=1e4),
    setup=st.floats(min_value=0, max_value=1e5),
)

densities = st.floats(min_value=0.0, max_value=1.0)
lengths = st.integers(min_value=0, max_value=100_000)


@given(left=costs_strategy, right=costs_strategy, d1=densities, d2=densities,
       length=lengths)
def test_join_stream_cost_never_beats_best_candidate(left, right, d1, d2, length):
    model = CostModel()
    cost, strategy = model.join_stream_cost(left, right, d1, d2, length, 1)
    lockstep = left.stream_total + right.stream_total
    assert cost >= 0
    assert strategy in ("lockstep", "stream-probe", "probe-stream")
    # the chosen candidate is no worse than plain lock-step plus the
    # (identical) predicate term
    predicate = d1 * d2 * length * model.params.predicate_cost
    assert cost <= lockstep + predicate + 1e-6


@given(left=costs_strategy, right=costs_strategy, d1=densities, d2=densities,
       length=lengths, conjuncts=st.integers(min_value=0, max_value=4))
def test_join_stream_cost_is_the_section_413_minimum(
    left, right, d1, d2, length, conjuncts
):
    """min(A1 + A2, A1 + n1*a2, A2 + n2*a1) + d1*d2*L*K, ties in that order."""
    model = CostModel()
    closed_forms = [
        ("lockstep", left.stream_total + right.stream_total),
        ("stream-probe", left.stream_total + (right.setup + d1 * length * right.probe_unit)),
        ("probe-stream", right.stream_total + (left.setup + d2 * length * left.probe_unit)),
    ]
    best = min(cost for _name, cost in closed_forms)
    first = next(name for name, cost in closed_forms if cost == best)
    predicate = d1 * d2 * length * max(1, conjuncts) * model.params.predicate_cost
    cost, strategy = model.join_stream_cost(left, right, d1, d2, length, conjuncts)
    assert strategy == first
    assert cost == best + predicate


@given(left=costs_strategy, right=costs_strategy, d1=densities, d2=densities)
def test_join_probe_cost_symmetry(left, right, d1, d2):
    model = CostModel()
    cost_ab, _ = model.join_probe_cost(left, right, d1, d2, 1)
    cost_ba, _ = model.join_probe_cost(right, left, d2, d1, 1)
    assert cost_ab == cost_ba  # probed formula is symmetric


@given(child=costs_strategy, length=lengths,
       w1=st.integers(min_value=1, max_value=32),
       w2=st.integers(min_value=1, max_value=32),
       d=densities)
def test_window_agg_probe_cost_monotone_in_width(child, length, w1, w2, d):
    model = CostModel()
    small, big = sorted((w1, w2))
    costs_small, _ = model.window_agg_costs(child, small, length, d)
    costs_big, _ = model.window_agg_costs(child, big, length, d)
    assert costs_small.probe_unit <= costs_big.probe_unit


@given(child=costs_strategy, length=lengths, d=st.floats(min_value=0.001, max_value=1.0),
       k1=st.integers(min_value=1, max_value=5), k2=st.integers(min_value=1, max_value=5))
def test_value_offset_probe_cost_monotone_in_reach(child, length, d, k1, k2):
    model = CostModel()
    small, big = sorted((k1, k2))
    costs_small, _ = model.value_offset_costs(child, small, length, d)
    costs_big, _ = model.value_offset_costs(child, big, length, d)
    assert costs_small.probe_unit <= costs_big.probe_unit
