"""E5b — Figure 5.B / Cache-Strategy-B: incremental value-offset caches.

``previous`` over a *sparse* derived sequence (e.g. "IBM.close >
HP.close" when that is rarely true) naively re-scans an expected
``1/density`` input positions per output position.  The incremental
strategy caches the most recent qualifying record and does O(1) work
per position.  The advantage grows as the derived input gets sparser.
"""

from __future__ import annotations

import pytest

from repro.bench import print_table, reset_catalog_counters, speedup
from repro.algebra import base, col
from repro.catalog import Catalog
from repro.execution import ExecutionCounters, execute_plan, run_query_detailed
from repro.model import Span
from repro.optimizer import optimize
from repro.storage import StoredSequence
from repro.workloads import bernoulli_sequence

SPAN = Span(0, 3_999)
#: selection thresholds giving decreasing selectivity over U(0, 100)
SELECTIVITIES = [0.5, 0.1, 0.02]


def setup(selectivity: float):
    sequence = bernoulli_sequence(SPAN, 1.0, seed=47)
    stored = StoredSequence.from_sequence("s", sequence, organization="clustered")
    catalog = Catalog()
    catalog.register("s", stored)
    threshold = 100.0 * (1.0 - selectivity)
    query = (
        base(stored, "s").select(col("value") > threshold).previous().query()
    )
    return query, catalog, stored


def forced_naive_plan(query, catalog):
    """The value offset forced to the naive (probing) algorithm."""
    from dataclasses import replace

    result = optimize(query, catalog=catalog)
    plan = result.plan.plan
    assert plan.kind == "value-offset"
    naive = replace(
        plan, strategy="naive", cache_size=None,
        children=result.planned.probe_plan.children,
    )
    return naive, result


@pytest.mark.parametrize("selectivity", SELECTIVITIES)
def test_cache_strategy_b(benchmark, selectivity):
    query, catalog, stored = setup(selectivity)

    def run():
        reset_catalog_counters(catalog)
        return run_query_detailed(query, catalog=catalog)

    result = benchmark(run)
    plans = [
        p for p in result.optimization.plan.plan.walk() if p.kind == "value-offset"
    ]
    assert plans[0].strategy == "incremental"
    assert result.counters.max_cache_occupancy <= 1
    benchmark.extra_info["input_accesses"] = (
        stored.counters.records_streamed + stored.counters.probes
    )


@pytest.mark.parametrize("selectivity", SELECTIVITIES)
def test_naive_value_offset(benchmark, selectivity):
    query, catalog, stored = setup(selectivity)
    naive_plan, result = forced_naive_plan(query, catalog)

    def run():
        reset_catalog_counters(catalog)
        return execute_plan(naive_plan, result.plan.output_span, ExecutionCounters())

    output = benchmark(run)
    assert output.to_pairs() == query.run_naive(result.plan.output_span).to_pairs()
    benchmark.extra_info["input_accesses"] = (
        stored.counters.records_streamed + stored.counters.probes
    )


def test_figure5b_report(benchmark):
    rows = []
    for selectivity in SELECTIVITIES:
        query, catalog, stored = setup(selectivity)

        reset_catalog_counters(catalog)
        incremental = run_query_detailed(query, catalog=catalog)
        incremental_accesses = (
            stored.counters.records_streamed + stored.counters.probes
        )

        naive_plan, result = forced_naive_plan(query, catalog)
        reset_catalog_counters(catalog)
        naive_output = execute_plan(
            naive_plan, result.plan.output_span, ExecutionCounters()
        )
        naive_accesses = stored.counters.records_streamed + stored.counters.probes

        assert incremental.output.to_pairs() == naive_output.to_pairs()
        rows.append(
            [
                selectivity,
                incremental_accesses,
                naive_accesses,
                round(speedup(naive_accesses, incremental_accesses), 1),
            ]
        )
    print_table(
        [
            "selection selectivity", "Cache-B input accesses",
            "naive input accesses", "access ratio",
        ],
        rows,
        title="Figure 5.B — incremental previous (Cache-Strategy-B) vs naive "
        "re-scan (ratio should grow as the derived input thins)",
    )
    ratios = [row[3] for row in rows]
    assert ratios[0] > 1
    assert ratios[-1] > ratios[0] * 3  # sparser input -> bigger win
    benchmark(lambda: None)
