"""Verifier overhead — the REPRO_VERIFY hooks on the Figure 7 workload.

Runs the optimizer benchmark suite end to end (optimize + execute)
with verification disabled and enabled, and reports the per-query and
total overhead of the static checks.  The hooks verify the annotated
query after Step 2, the rewrite trace after Step 3, the generated plan
after Step 5, and the plan again before execution; the budget is
**<=1500 us per query**, as a mean over the suite (measured ~530 us).
Absolute, not a share of end-to-end time: the checks are pure tree
walks over the query graph and the plan, so their cost does not move
when planning or execution gets cheaper, and as a share of a ~0.8 ms
batch query over the 300-position Table 1 catalog (~65%) it says more
about the denominator than about the checks.
"""

from __future__ import annotations

import time

from repro.bench import print_table
from repro.execution import run_query_detailed

from benchmarks.bench_fig7_optimizer import query_suite

#: Timing repetitions; the minimum filters scheduler noise.
REPEATS = 7

#: Accepted mean cost of verification per query, in us.
MAX_VERIFY_US = 1500.0


def _best_time(query, catalog) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_query_detailed(query, catalog=catalog)
        best = min(best, time.perf_counter() - start)
    return best


def test_verifier_overhead_report(benchmark, table1_memory, monkeypatch):
    catalog, _sequences = table1_memory
    suite = query_suite(catalog)

    # Warm up caches and imports (the first verified run imports the
    # rule modules; that one-time cost is not per-query overhead).
    monkeypatch.setenv("REPRO_VERIFY", "1")
    for query in suite.values():
        run_query_detailed(query, catalog=catalog)

    rows = []
    base_total = 0.0
    verified_total = 0.0
    for name, query in suite.items():
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        base = _best_time(query, catalog)
        monkeypatch.setenv("REPRO_VERIFY", "1")
        verified = _best_time(query, catalog)
        base_total += base
        verified_total += verified
        rows.append(
            [
                name,
                round(base * 1000, 2),
                round(verified * 1000, 2),
                round((verified - base) * 1e6),
            ]
        )

    mean_us = (verified_total - base_total) / len(suite) * 1e6
    rows.append(
        [
            "MEAN",
            round(base_total / len(suite) * 1000, 2),
            round(verified_total / len(suite) * 1000, 2),
            round(mean_us),
        ]
    )
    print_table(
        ["query", "base ms", "verified ms", "verify us"],
        rows,
        title=f"REPRO_VERIFY=1 cost per query (budget {MAX_VERIFY_US:.0f} us mean)",
    )
    assert mean_us < MAX_VERIFY_US
    benchmark(lambda: None)


def test_verify_call_is_cheap(benchmark, table1_memory):
    """One verify_optimization pass, benchmarked in isolation."""
    from repro.analysis import verify_optimization
    from repro.optimizer import optimize

    catalog, _sequences = table1_memory
    query = query_suite(catalog)["agg-of-join"]
    result = optimize(query, catalog=catalog)

    report = benchmark(lambda: verify_optimization(result))
    assert report.ok
