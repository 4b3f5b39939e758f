"""E-partition — what the partition-soundness analysis costs at plan time.

The optimizer derives a partitioning contract for every plan it emits
(the ``partition-contract`` phase), so contract derivation rides on the
hot planning path and must stay cheap: the budget this baseline
enforces is that the derivation step costs **<=50 us per plan**, as a
mean across the shapes (per-shape noise on CI machines makes a
per-shape bound flaky; the mean is stable).  The budget is absolute,
not a share of optimize time: the derivation walks the plan, so its
cost does not move when the rest of ``optimize`` gets cheaper, and a
share would start failing for that reason alone (measured mean
~19 us against optimize at 130-790 us on these shapes).

Full certification — :func:`~repro.analysis.partition.analyze_partition`
at a concrete partition count, with per-partition span assignment and
halo obligations — is an on-demand operation (``repro partition-check``,
or the parallel engine before a partitioned run), not an optimizer
phase.  Its cost is measured and reported here for visibility but
carries no budget.

Run as a script to (re)generate the committed perf baseline::

    PYTHONPATH=src python benchmarks/bench_partition_analysis.py --out BENCH_partition.json
    PYTHONPATH=src python benchmarks/bench_partition_analysis.py --smoke   # CI-sized

or under pytest-benchmark like the other files here.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Callable, Optional

import pytest

from repro.analysis.partition import analyze_partition, derive_contract
from repro.bench import print_table
from repro.lang import compile_query
from repro.optimizer import optimize
from repro.workloads import table1_catalog

#: Timed iterations per measurement (full vs --smoke runs).
FULL_ITERATIONS = 200
SMOKE_ITERATIONS = 40

#: Repetitions per shape; the best (minimum) rate is kept.
REPETITIONS = 5

#: Partition count for the informational full-certification column.
CERTIFY_PARTS = 8

#: Maximum acceptable mean contract-derivation cost per plan, in us.
ANALYSIS_BUDGET_US = 50.0

#: Shipped workload queries of increasing plan depth (see
#: repro.workloads.stocks.EXAMPLE_QUERIES for the full corpus).
SHAPES = {
    "select": "select(ibm, close > 115.0)",
    "window-agg": "window(ibm, avg, close, 6, ma6)",
    "compose-pair": "compose(ibm as i, hp as h)",
    "compose-deep": (
        "project(compose(dec as d, select(compose(ibm as i, hp as h), "
        "i_close > h_close) as x), d_close, x_i_close)"
    ),
}


def _best_rate(fn: Callable[[], object], iterations: int) -> float:
    """Best mean seconds-per-call over ``REPETITIONS`` timed batches."""
    best = float("inf")
    for _ in range(REPETITIONS):
        started = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - started) / iterations)
    return best


def measure_overhead(iterations: int) -> dict:
    """Time optimize, contract derivation and full certification per shape."""
    catalog, _ = table1_catalog()
    rows = []
    for name, source in SHAPES.items():
        query = compile_query(source, catalog)
        plan = optimize(query, catalog=catalog).plan

        optimize_seconds = _best_rate(
            lambda: optimize(query, catalog=catalog), iterations
        )
        contract_seconds = _best_rate(lambda: derive_contract(plan), iterations)
        certify_seconds = _best_rate(
            lambda: analyze_partition(plan, CERTIFY_PARTS), iterations
        )
        certificate, _report = analyze_partition(plan, CERTIFY_PARTS)
        rows.append(
            {
                "shape": name,
                "optimize_seconds": round(optimize_seconds, 9),
                "contract_seconds": round(contract_seconds, 9),
                "certify_seconds": round(certify_seconds, 9),
                "certified": certificate is not None,
            }
        )
    mean = sum(r["contract_seconds"] for r in rows) / len(rows) * 1e6
    return {
        "benchmark": "bench_partition_analysis",
        "config": {
            "iterations": iterations,
            "repetitions": REPETITIONS,
            "certify_parts": CERTIFY_PARTS,
            "budget_us": ANALYSIS_BUDGET_US,
        },
        "shapes": rows,
        "mean_contract_us": round(mean, 2),
    }


def main(argv: Optional[list[str]] = None) -> int:
    """Script entry point: print the table, optionally write the JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI-sized run ({SMOKE_ITERATIONS} iterations instead of "
        f"{FULL_ITERATIONS})",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write the measurements as JSON (e.g. BENCH_partition.json)",
    )
    args = parser.parse_args(argv)
    iterations = SMOKE_ITERATIONS if args.smoke else FULL_ITERATIONS
    payload = measure_overhead(iterations)
    print_table(
        ["shape", "optimize us", "contract us", f"certify{CERTIFY_PARTS} us"],
        [
            [
                r["shape"],
                f'{r["optimize_seconds"] * 1e6:.1f}',
                f'{r["contract_seconds"] * 1e6:.2f}',
                f'{r["certify_seconds"] * 1e6:.1f}',
            ]
            for r in payload["shapes"]
        ],
        title="Partition analysis cost per optimized plan "
        "(contract derivation rides the optimizer hot path)",
    )
    mean = payload["mean_contract_us"]
    print(
        f"mean contract derivation per plan: {mean:.2f} us "
        f"(budget {ANALYSIS_BUDGET_US:.0f} us)"
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    if mean > ANALYSIS_BUDGET_US:
        print(f"FAIL: mean contract derivation {mean:.2f} us over budget")
        return 1
    return 0


# -- pytest-benchmark entry points -------------------------------------------


@pytest.fixture(scope="module")
def planned():
    """Optimized plans for every shape."""
    catalog, _ = table1_catalog()
    plans = {}
    for name, source in SHAPES.items():
        query = compile_query(source, catalog)
        plans[name] = optimize(query, catalog=catalog).plan
    return plans


@pytest.mark.parametrize("shape", list(SHAPES))
def test_contract_derivation(benchmark, planned, shape):
    contract = benchmark(lambda: derive_contract(planned[shape]))
    benchmark.extra_info["contract"] = contract.kind


@pytest.mark.parametrize("shape", list(SHAPES))
def test_full_certification(benchmark, planned, shape):
    certificate, report = benchmark(
        lambda: analyze_partition(planned[shape], CERTIFY_PARTS)
    )
    assert certificate is not None, [d.render() for d in report.errors]
    benchmark.extra_info["parts"] = CERTIFY_PARTS


def test_partition_analysis_report(benchmark):
    payload = measure_overhead(SMOKE_ITERATIONS)
    assert payload["mean_contract_us"] <= ANALYSIS_BUDGET_US
    benchmark(lambda: None)


if __name__ == "__main__":
    raise SystemExit(main())
