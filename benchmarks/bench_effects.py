"""E-effects — what effect analysis costs, and what dense codegen buys.

Two questions, one baseline file:

1. **Analysis overhead.**  The optimizer derives an effect spec for
   every expression site in every plan it emits (the ``effects``
   phase), so the abstract interpretation rides the hot planning path
   and must stay cheap: the budget enforced here is that the phase
   costs **<=20 us per plan**, as a mean across the shapes (per-shape
   noise on CI machines makes a per-shape bound flaky; the mean is
   stable).  Absolute, not a share of optimize time: the phase walks
   the plan's expression sites, so its cost does not move when the
   rest of ``optimize`` gets cheaper (measured mean ~7 us).

2. **Dense-loop payoff.**  ``compile_filter`` emits an unguarded
   dense loop for fully-valid batches when handed a certified
   vectorization-safe :class:`EffectSpec`.  The benchmark times the
   certified kernel against the always-guarded one on a select
   predicate and reports the speedup.  The smoke gate
   only requires that dense codegen does not *regress* the guarded
   loop (``dense_speedup >= 0.95``); the payoff itself is recorded in
   the committed baseline for the README.

Run as a script to (re)generate the committed perf baseline::

    PYTHONPATH=src python benchmarks/bench_effects.py --out BENCH_effects.json
    PYTHONPATH=src python benchmarks/bench_effects.py --smoke   # CI-sized

or under pytest-benchmark like the other files here.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from typing import Callable, Optional

import pytest

from repro.algebra.expressions import Cmp, Col, Lit, compile_filter
from repro.analysis.effects import analyze_expr, annotate_effects
from repro.bench import print_table
from repro.lang import compile_query
from repro.model.schema import AtomType, RecordSchema
from repro.optimizer import optimize
from repro.workloads import table1_catalog

#: Timed iterations per measurement (full vs --smoke runs).
FULL_ITERATIONS = 200
SMOKE_ITERATIONS = 40

#: Repetitions per shape; the best (minimum) rate is kept.
REPETITIONS = 5

#: Maximum acceptable mean effects-phase cost per plan, in us.
ANALYSIS_BUDGET_US = 20.0

#: Dense codegen must at minimum not regress the guarded loop; the
#: actual speedup is informational and recorded in the baseline.
DENSE_FLOOR = 0.95

#: Rows per batch in the dense-vs-guarded kernel measurement.
BATCH_ROWS = 4096

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

#: The expression of the kernel measurement, over a (close FLOAT,
#: volume INT) schema: the Table 1 select predicate, which certifies
#: vectorization-safe.
_KERNEL_SCHEMA = RecordSchema.of(close=AtomType.FLOAT, volume=AtomType.INT)
_KERNEL_FILTER = Cmp(">", Col("close"), Lit(115.0))


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
    """Time optimize vs the embedded effects phase per shape."""
    catalog, _ = table1_catalog()
    rows = []
    for name, source in SHAPES.items():
        query = compile_query(source, catalog)
        plan = optimize(query, catalog=catalog).plan

        optimize_seconds = _best_rate(
            lambda: optimize(query, catalog=catalog), iterations
        )
        effects_seconds = _best_rate(lambda: annotate_effects(plan), iterations)
        summary = annotate_effects(plan)
        rows.append(
            {
                "shape": name,
                "optimize_seconds": round(optimize_seconds, 9),
                "effects_seconds": round(effects_seconds, 9),
                "sites": summary["sites"],
                "vector_safe": summary["vector_safe"],
            }
        )
    mean = sum(r["effects_seconds"] for r in rows) / len(rows) * 1e6
    return {"shapes": rows, "mean_effects_us": round(mean, 2)}


def measure_dense(iterations: int) -> dict:
    """Time the certified dense kernel against the always-guarded loop.

    The batch is fully valid — the case the dense fast path exists
    for.  Both variants are checked for identical output before being
    timed, so a codegen bug fails loudly rather than producing a fast
    wrong answer.
    """
    rng = random.Random(17)
    columns = [
        [100.0 + rng.random() * 40.0 for _ in range(BATCH_ROWS)],
        [rng.randrange(1000, 9000) for _ in range(BATCH_ROWS)],
    ]
    valid = [True] * BATCH_ROWS

    spec = analyze_expr(_KERNEL_FILTER, _KERNEL_SCHEMA)
    assert spec.vectorization_safe, spec.describe()
    guarded = compile_filter(_KERNEL_FILTER, _KERNEL_SCHEMA)
    dense = compile_filter(_KERNEL_FILTER, _KERNEL_SCHEMA, spec=spec)
    assert dense(columns, valid) == guarded(columns, valid)

    guarded_seconds = _best_rate(lambda: guarded(columns, valid), iterations)
    dense_seconds = _best_rate(lambda: dense(columns, valid), iterations)
    row = {
        "kernel": "filter",
        "expression": repr(_KERNEL_FILTER),
        "guarded_seconds": round(guarded_seconds, 9),
        "dense_seconds": round(dense_seconds, 9),
        "dense_speedup": round(guarded_seconds / dense_seconds, 4),
    }
    return {"kernels": [row]}


def measure(iterations: int) -> dict:
    overhead = measure_overhead(iterations)
    dense = measure_dense(iterations)
    return {
        "benchmark": "bench_effects",
        "config": {
            "iterations": iterations,
            "repetitions": REPETITIONS,
            "batch_rows": BATCH_ROWS,
            "budget_us": ANALYSIS_BUDGET_US,
            "dense_floor": DENSE_FLOOR,
        },
        **overhead,
        **dense,
    }


def main(argv: Optional[list[str]] = None) -> int:
    """Script entry point: print the tables, optionally write the JSON."""
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
        help="write the measurements as JSON (e.g. BENCH_effects.json)",
    )
    args = parser.parse_args(argv)
    iterations = SMOKE_ITERATIONS if args.smoke else FULL_ITERATIONS
    payload = measure(iterations)
    print_table(
        ["shape", "optimize us", "effects us", "sites", "safe"],
        [
            [
                r["shape"],
                f'{r["optimize_seconds"] * 1e6:.1f}',
                f'{r["effects_seconds"] * 1e6:.2f}',
                str(r["sites"]),
                str(r["vector_safe"]),
            ]
            for r in payload["shapes"]
        ],
        title="Effect analysis cost per optimized plan "
        "(the effects phase rides the optimizer hot path)",
    )
    print_table(
        ["kernel", "guarded us", "dense us", "speedup"],
        [
            [
                r["kernel"],
                f'{r["guarded_seconds"] * 1e6:.1f}',
                f'{r["dense_seconds"] * 1e6:.1f}',
                f'{r["dense_speedup"]:.2f}x',
            ]
            for r in payload["kernels"]
        ],
        title=f"Certified dense loop vs guarded loop "
        f"({BATCH_ROWS} fully-valid rows)",
    )
    mean = payload["mean_effects_us"]
    print(
        f"mean effects phase per plan: {mean:.2f} us "
        f"(budget {ANALYSIS_BUDGET_US:.0f} us)"
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    failed = False
    if mean > ANALYSIS_BUDGET_US:
        print(f"FAIL: mean effects phase {mean:.2f} us over budget")
        failed = True
    for r in payload["kernels"]:
        if r["dense_speedup"] < DENSE_FLOOR:
            print(
                f'FAIL: dense {r["kernel"]} kernel regresses the guarded '
                f'loop ({r["dense_speedup"]:.2f}x < {DENSE_FLOOR}x)'
            )
            failed = True
    return 1 if failed else 0


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
def test_effect_annotation(benchmark, planned, shape):
    summary = benchmark(lambda: annotate_effects(planned[shape]))
    benchmark.extra_info["sites"] = summary["sites"]


def test_effects_report(benchmark):
    payload = measure(SMOKE_ITERATIONS)
    assert payload["mean_effects_us"] <= ANALYSIS_BUDGET_US
    for r in payload["kernels"]:
        assert r["dense_speedup"] >= DENSE_FLOOR
    benchmark(lambda: None)


if __name__ == "__main__":
    raise SystemExit(main())
