"""Tests for the cost model — the Section 4.1 formulas verbatim."""

import pytest

from repro.errors import OptimizerError
from repro.model import Span
from repro.optimizer import AccessCosts, CostModel, CostParams, span_fraction
from repro.storage import AccessProfile


@pytest.fixture
def model():
    return CostModel(CostParams())


def costs(stream, probe, setup=0.0):
    return AccessCosts(stream_total=stream, probe_unit=probe, setup=setup)


class TestAccessCosts:
    def test_negative_rejected(self):
        with pytest.raises(OptimizerError):
            AccessCosts(stream_total=-1.0, probe_unit=0.0)

    def test_probes_includes_setup(self):
        assert costs(0, 2.0, setup=10.0).probes(5) == 20.0


class TestSpanFraction:
    def test_full(self):
        assert span_fraction(Span(0, 9), Span(0, 9)) == 1.0

    def test_half(self):
        assert span_fraction(Span(0, 4), Span(0, 9)) == 0.5

    def test_disjoint(self):
        assert span_fraction(Span(20, 30), Span(0, 9)) == 0.0

    def test_unbounded_whole_rejected(self):
        with pytest.raises(OptimizerError):
            span_fraction(Span(0, 5), Span(0, None))

    def test_unbounded_part_clipped_by_whole(self):
        assert span_fraction(Span(0, None), Span(0, 9)) == 1.0


class TestBaseCosts:
    def test_stream_scales_with_restriction(self, model):
        profile = AccessProfile(stream_total=100.0, probe_unit=2.0)
        full = Span(0, 999)
        half = model.base_costs(profile, full, Span(0, 499))
        assert half.stream_total == pytest.approx(50.0)
        assert half.probe_unit == 2.0

    def test_constant_costs_nothing(self, model):
        c = model.constant_costs()
        assert c.stream_total == 0.0 and c.probe_unit == 0.0


class TestJoinFormulas:
    """Section 4.1.3: stream = min(A1 + n1*a2, A2 + n2*a1, A1 + A2) + d1*d2*L*K."""

    def test_stream_picks_lockstep(self, model):
        cost, strategy = model.join_stream_cost(
            costs(10, 5.0), costs(10, 5.0), 0.9, 0.9, 100, 1
        )
        # A1+A2 = 20 beats 10 + 90*5
        assert strategy == "lockstep"
        predicate = 0.9 * 0.9 * 100 * model.params.predicate_cost
        assert cost == pytest.approx(20 + predicate)

    def test_stream_picks_stream_probe_when_left_sparse(self, model):
        cost, strategy = model.join_stream_cost(
            costs(1, 5.0), costs(100, 0.5), 0.01, 0.9, 100, 1
        )
        # A1 + n1*a2 = 1 + 1*0.5 = 1.5 beats lockstep 101
        assert strategy == "stream-probe"
        assert cost == pytest.approx(1.5 + 0.01 * 0.9 * 100 * 0.01)

    def test_stream_picks_probe_stream_when_right_sparse(self, model):
        cost, strategy = model.join_stream_cost(
            costs(100, 0.5), costs(1, 5.0), 0.9, 0.01, 100, 1
        )
        assert strategy == "probe-stream"
        assert cost == pytest.approx(1 + 1 * 0.5 + 0.9 * 0.01 * 100 * 0.01)

    def test_probe_formula(self, model):
        cost, strategy = model.join_probe_cost(
            costs(0, 1.0), costs(0, 10.0), 0.1, 0.9, 1
        )
        # a1 + d1*a2 = 1 + 0.1*10 = 2; a2 + d2*a1 = 10 + 0.9 = 10.9
        assert strategy == "probe-left-first"
        assert cost == pytest.approx(2 + 0.1 * 0.9 * 0.01)

    def test_probe_formula_converse(self, model):
        cost, strategy = model.join_probe_cost(
            costs(0, 10.0), costs(0, 1.0), 0.9, 0.1, 1
        )
        assert strategy == "probe-right-first"

    def test_setup_charged_once_for_probed_inner(self, model):
        mat = costs(0, 0.01, setup=50.0)
        cost, strategy = model.join_stream_cost(
            costs(1, 1.0), mat, 0.5, 1.0, 100, 1
        )
        # stream-probe: 1 + (50 + 50*0.01) — setup paid once
        assert strategy in ("stream-probe", "lockstep")


class TestUnaryCosts:
    def test_window_agg_cache_a_beats_naive_for_wide_windows(self, model):
        child = costs(10, 1.0)
        cache_a, strategy = model.window_agg_costs(child, 16, 1000, 0.9)
        assert strategy == "cache-a"
        assert cache_a.stream_total < 1000 * cache_a.probe_unit
        assert cache_a.probe_unit == pytest.approx(
            16 * (1.0 + model.params.record_cost)
        )

    def test_window_agg_naive_wins_for_tiny_outputs(self, model):
        child = costs(1000, 0.1)
        result, strategy = model.window_agg_costs(child, 2, 3, 0.9)
        assert strategy == "naive"
        assert result.stream_total == pytest.approx(3 * result.probe_unit)

    def test_value_offset_probe_scales_inverse_density(self, model):
        sparse, _ = model.value_offset_costs(costs(10, 1.0), 1, 100, 0.01)
        dense, _ = model.value_offset_costs(costs(10, 1.0), 1, 100, 1.0)
        assert sparse.probe_unit > dense.probe_unit * 50

    def test_value_offset_stream_is_cache_b(self, model):
        result, strategy = model.value_offset_costs(costs(10, 1.0), 1, 100, 0.5)
        expected = 10 + 100 * 2 * model.params.cache_op_cost
        assert strategy == "incremental"
        assert result.stream_total == pytest.approx(expected)

    def test_cumulative(self, model):
        result = model.cumulative_costs(costs(10, 1.0), 100)
        assert result.stream_total > 10
        assert result.probe_unit == pytest.approx(0.5 * 100 * (1 + 0.001))

    def test_global_setup_is_compute(self, model):
        result = model.global_agg_costs(costs(10, 1.0), 100)
        assert result.setup == 10
        assert result.probe_unit == model.params.record_cost


class TestChainCosts:
    def test_adds_cpu_per_record(self, model):
        child = costs(10, 1.0, setup=3.0)
        result = model.chain_costs(child, 100, 2)
        per_record = model.params.record_cost + 2 * model.params.predicate_cost
        assert result.stream_total == pytest.approx(10 + 100 * per_record)
        assert result.probe_unit == pytest.approx(1.0 + per_record)
        assert result.setup == 3.0
