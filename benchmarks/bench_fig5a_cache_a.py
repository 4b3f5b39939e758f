"""E5a — Figure 5.A / Cache-Strategy-A: scope-sized caches for aggregates.

A moving aggregate of window w needs the last w input records at every
position.  With Cache-Strategy-A the input is read once (stream) and
the scope lives in a w-sized cache; the naive algorithm re-probes the
input w times per output position.  The access saving is ~w, growing
with the window.
"""

from __future__ import annotations

import pytest

from repro.bench import print_table, reset_catalog_counters, speedup
from repro.algebra import base
from repro.catalog import Catalog
from repro.execution import ExecutionCounters, execute_plan, run_query_detailed
from repro.model import Span
from repro.optimizer import optimize
from repro.storage import StoredSequence
from repro.workloads import bernoulli_sequence

SPAN = Span(0, 3_999)
WINDOWS = [4, 16, 64]


def setup(window: int, func: str = "sum"):
    sequence = bernoulli_sequence(SPAN, 0.9, seed=41)
    stored = StoredSequence.from_sequence("s", sequence, organization="clustered")
    catalog = Catalog()
    catalog.register("s", stored)
    query = base(stored, "s").window(func, "value", window).query()
    return query, catalog, stored


def forced_naive_plan(query, catalog):
    """The same plan with the window aggregate forced to naive probing."""
    result = optimize(query, catalog=catalog)
    plan = result.plan.plan
    assert plan.kind == "window-agg"
    from dataclasses import replace  # PhysicalPlan is a mutable dataclass

    naive = replace(
        plan,
        strategy="naive",
        cache_size=None,
        children=result.planned.probe_plan.children,
    )
    return naive, result


@pytest.mark.parametrize("window", WINDOWS)
def test_cache_strategy_a(benchmark, window):
    query, catalog, stored = setup(window)

    def run():
        reset_catalog_counters(catalog)
        return run_query_detailed(query, catalog=catalog)

    result = benchmark(run)
    plans = [p for p in result.optimization.plan.plan.walk() if p.kind == "window-agg"]
    assert plans[0].strategy == "cache-a"
    benchmark.extra_info["pages"] = stored.counters.page_reads
    benchmark.extra_info["probes"] = stored.counters.probes


@pytest.mark.parametrize("window", WINDOWS)
def test_naive_aggregate(benchmark, window):
    query, catalog, stored = setup(window)
    naive_plan, result = forced_naive_plan(query, catalog)

    def run():
        reset_catalog_counters(catalog)
        counters = ExecutionCounters()
        return execute_plan(naive_plan, result.plan.output_span, counters)

    output = benchmark(run)
    assert output.to_pairs() == query.run_naive().to_pairs()
    benchmark.extra_info["probes"] = stored.counters.probes


def test_figure5a_report(benchmark):
    rows = []
    for window in WINDOWS:
        query, catalog, stored = setup(window)

        reset_catalog_counters(catalog)
        cached = run_query_detailed(query, catalog=catalog)
        cached_accesses = (
            stored.counters.records_streamed + stored.counters.probes
        )
        cached_pages = stored.counters.page_reads

        naive_plan, result = forced_naive_plan(query, catalog)
        reset_catalog_counters(catalog)
        counters = ExecutionCounters()
        naive_output = execute_plan(naive_plan, result.plan.output_span, counters)
        naive_accesses = stored.counters.records_streamed + stored.counters.probes
        naive_pages = stored.counters.page_reads

        assert cached.output.to_pairs() == naive_output.to_pairs()
        assert cached.counters.max_cache_occupancy <= window
        rows.append(
            [
                window,
                cached_accesses,
                naive_accesses,
                round(speedup(naive_accesses, cached_accesses), 1),
                cached_pages,
                naive_pages,
            ]
        )
    print_table(
        [
            "window w", "cache-A input accesses", "naive input accesses",
            "access ratio", "cache-A pages", "naive pages",
        ],
        rows,
        title="Figure 5.A — Cache-Strategy-A vs naive re-retrieval "
        "(ratio should track w)",
    )
    # the access saving grows with the window, roughly linearly
    assert rows[0][3] >= 2
    assert rows[-1][3] > rows[0][3] * 4
    benchmark(lambda: None)
