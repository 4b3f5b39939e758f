"""Direct tests of the probed-mode executors."""

import dataclasses

import pytest

from repro.errors import ExecutionError
from repro.model import NULL, AtomType, BaseSequence, Record, RecordSchema, Span
from repro.algebra import base, col
from repro.execution import ExecutionCounters, ProberSequence, build_prober
from repro.optimizer import optimize

SCHEMA = RecordSchema.of(v=AtomType.FLOAT)


@pytest.fixture
def data():
    return BaseSequence.from_values(
        SCHEMA, [(i, (float(i * 10),)) for i in (1, 2, 4, 6, 9)]
    )


class TestSourceAndChainProbers:
    def test_source_prober(self, data):
        query = base(data, "s").query()
        plan = optimize(query).planned.probe_plan
        counters = ExecutionCounters()
        prober = build_prober(plan, counters)
        assert prober.get(4).get("v") == 40.0
        assert prober.get(5) is NULL
        assert counters.probes_issued == 2

    def test_chain_prober_applies_steps(self, data):
        query = base(data, "s").select(col("v") > 15.0).project("v").query()
        plan = optimize(query).planned.probe_plan
        prober = build_prober(plan, ExecutionCounters())
        assert prober.get(1) is NULL  # filtered (10 <= 15)
        assert prober.get(2).get("v") == 20.0

    def test_chain_prober_shift_math(self, data):
        query = base(data, "s").shift(3).query()  # out(i) = in(i+3)
        plan = optimize(query).planned.probe_plan
        prober = build_prober(plan, ExecutionCounters())
        assert prober.get(1).get("v") == 40.0  # in(4)
        assert prober.get(6).get("v") == 90.0  # in(9)
        assert prober.get(2) is NULL

    def test_counters_track_predicates(self, data):
        query = base(data, "s").select(col("v") > 0.0).query()
        plan = optimize(query).planned.probe_plan
        counters = ExecutionCounters()
        prober = build_prober(plan, counters)
        prober.get(1)
        assert counters.predicate_evals == 1


class TestJoinProber:
    def test_matches_compose_semantics(self, data):
        other = BaseSequence.from_values(
            RecordSchema.of(w=AtomType.FLOAT), [(2, (1.0,)), (4, (2.0,))]
        )
        query = base(data, "s").compose(base(other, "o")).query()
        plan = optimize(query).planned.probe_plan
        # Whichever side is probed first, the record is left.right.
        for order in ("probe-left-first", "probe-right-first"):
            prober = build_prober(dataclasses.replace(plan, strategy=order), ExecutionCounters())
            assert prober.get(2).as_dict() == {"v": 20.0, "w": 1.0}
            assert prober.get(1) is NULL  # right side missing
            assert prober.get(3) is NULL  # both missing

    def test_probe_join_respects_predicate(self, data):
        other = BaseSequence.from_values(
            RecordSchema.of(w=AtomType.FLOAT), [(2, (100.0,)), (4, (2.0,))]
        )
        query = base(data, "s").compose(
            base(other, "o"), predicate=col("w") > col("v")
        ).query()
        plan = optimize(query).planned.probe_plan
        prober = build_prober(plan, ExecutionCounters())
        assert prober.get(2) is not NULL
        assert prober.get(4) is NULL  # 2.0 < 40.0


class TestNaiveUnaryProbers:
    def test_window_agg_probe(self, data):
        query = base(data, "s").window("sum", "v", 3).query()
        plan = optimize(query).planned.probe_plan
        prober = build_prober(plan, ExecutionCounters())
        view = query.run_naive()
        for position in Span(1, 11).positions():
            assert prober.get(position) == view.get(position)

    def test_value_offset_probe(self, data):
        query = base(data, "s").previous().query()
        plan = optimize(query).planned.probe_plan
        prober = build_prober(plan, ExecutionCounters())
        assert prober.get(3).get("v") == 20.0
        assert prober.get(1) is NULL

    def test_global_probe_computes_once(self, data):
        query = base(data, "s").global_agg("max", "v").query()
        plan = optimize(query).planned.probe_plan
        counters = ExecutionCounters()
        prober = build_prober(plan, counters)
        first = prober.get(5)
        records_after_first = counters.operator_records
        second = prober.get(6)
        assert first == second
        assert counters.operator_records == records_after_first  # cached

    def test_global_probe_outside_span_null(self, data):
        query = base(data, "s").global_agg("max", "v").query()
        plan = optimize(query).planned.probe_plan
        prober = build_prober(plan, ExecutionCounters())
        assert prober.get(100) is NULL


class TestProberSequence:
    def test_wraps_prober_as_sequence(self, data):
        query = base(data, "s").query()
        plan = optimize(query).planned.probe_plan
        prober = build_prober(plan, ExecutionCounters())
        view = ProberSequence(prober)
        assert view.schema == data.schema
        assert view.span == data.span
        assert [p for p, _ in view.iter_nonnull(Span(1, 5))] == [1, 2, 4]

    def test_stream_mode_rejected_for_probe_only_kinds(self, data):
        query = base(data, "s").query()
        plan = optimize(query).planned.probe_plan
        from repro.execution import build_stream

        with pytest.raises(ExecutionError, match="stream mode"):
            list(build_stream(plan, Span(0, 5), ExecutionCounters()))

    def test_probe_mode_rejected_for_stream_only_kinds(self, table1):
        catalog, sequences = table1
        query = (
            base(sequences["ibm"], "ibm")
            .compose(base(sequences["hp"], "hp"), prefixes=("i", "h"))
            .query()
        )
        stream_plan = optimize(query, catalog=catalog).plan.plan
        lockstep = next(p for p in stream_plan.walk() if p.kind == "lockstep")
        with pytest.raises(ExecutionError, match="probe mode"):
            build_prober(lockstep, ExecutionCounters())
