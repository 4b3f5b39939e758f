"""E-batch — batched columnar execution vs the row-at-a-time oracle.

Four plan shapes bracket where batching pays: scan-select-project
(pure per-record interpreter overhead — the best case for compiled
fused predicates over columns), window-agg (per-position aggregator
work shared by both modes), previous-select (Cache-Strategy-B as a
rank-gather over typed buffers instead of a per-position cache), and
a lockstep join (merge alignment done per batch instead of per
record).  Both modes produce identical
answers; only the wall clock differs.

Run as a script to (re)generate the committed perf baseline::

    PYTHONPATH=src python benchmarks/bench_batch_speedup.py --out BENCH_exec.json
    PYTHONPATH=src python benchmarks/bench_batch_speedup.py --smoke   # CI-sized

or under pytest-benchmark like the other files here.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Callable, Optional

import pytest

from repro.bench import print_table, speedup
from repro.algebra import base, col, lit
from repro.execution import ExecutionCounters, execute_plan
from repro.model import Span
from repro.optimizer import optimize
from repro.workloads import StockSpec, generate_stock

#: Positions in the generated stock walks (full vs --smoke runs).
FULL_POSITIONS = 40_000
SMOKE_POSITIONS = 4_000
DENSITY = 0.95

#: Minimum acceptable batch-over-row speedups — the committed-baseline
#: gate.  Keyed by backend ("vector" when numpy is importable, "python"
#: for the pure fallback path) then run size.  The vector full-size
#: floors are the headline numbers BENCH_exec.json tracks; the others
#: are set well under current measurements so CI noise cannot trip
#: them, while still catching a real regression (e.g. a kernel
#: silently falling back).
FLOORS = {
    "vector": {
        "full": {
            "scan-select-project": 10.0,
            "window-agg": 3.0,
            "previous-select": 2.5,
            "lockstep-join": 3.0,
        },
        "smoke": {
            "scan-select-project": 8.0,
            "window-agg": 6.0,
            "previous-select": 1.5,
            "lockstep-join": 2.5,
        },
    },
    # Without numpy the value offset gathers per position over lists:
    # about the row executor's speed, so its floor only catches a cliff.
    "python": {
        "full": {
            "scan-select-project": 4.0,
            "window-agg": 1.2,
            "previous-select": 0.5,
            "lockstep-join": 1.2,
        },
        "smoke": {
            "scan-select-project": 2.0,
            "window-agg": 1.1,
            "previous-select": 0.5,
            "lockstep-join": 1.1,
        },
    },
}


def _backend_name() -> str:
    """Which execution backend this process runs under."""
    from repro.model.batch import vector_backend

    return "vector" if vector_backend() is not None else "python"


def _shapes(positions: int) -> dict[str, object]:
    """The benchmark queries over freshly generated walks."""
    span = Span(0, positions - 1)
    stock = generate_stock(StockSpec("s", span, DENSITY, seed=5))
    other = generate_stock(StockSpec("t", span, DENSITY, seed=6))
    return {
        "scan-select-project": (
            base(stock, "s")
            .select(col("volume") > lit(3000))
            .project("close", "volume")
            .query()
        ),
        "window-agg": base(stock, "s").window("avg", "close", 16, "ma16").query(),
        "previous-select": (
            base(stock, "s").select(col("volume") > lit(3000)).previous().query()
        ),
        "lockstep-join": (
            base(stock, "s")
            .compose(
                base(other, "t"),
                predicate=col("s_close") > col("t_close"),
                prefixes=("s", "t"),
            )
            .query()
        ),
    }


def _best_of(fn: Callable[[], object], repetitions: int) -> float:
    """Minimum wall-clock seconds over ``repetitions`` runs."""
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def compare_modes(positions: int, repetitions: int = 3) -> dict:
    """Time every shape in both modes; returns the BENCH_exec payload."""
    rows = []
    for name, query in _shapes(positions).items():
        result = optimize(query)
        plan = result.plan.plan
        window = result.plan.output_span

        def run(mode: str):
            return execute_plan(plan, window, ExecutionCounters(), mode=mode)

        row_output = run("row")
        batch_output = run("batch")
        assert batch_output.to_pairs() == row_output.to_pairs(), name
        row_seconds = _best_of(lambda: run("row"), repetitions)
        batch_seconds = _best_of(lambda: run("batch"), repetitions)
        rows.append(
            {
                "shape": name,
                "records": len(batch_output),
                "row_seconds": round(row_seconds, 6),
                "batch_seconds": round(batch_seconds, 6),
                "row_records_per_s": round(len(row_output) / row_seconds, 1),
                "batch_records_per_s": round(len(batch_output) / batch_seconds, 1),
                "speedup": round(speedup(row_seconds, batch_seconds), 2),
            }
        )
    return {
        "benchmark": "bench_batch_speedup",
        "config": {
            "positions": positions,
            "density": DENSITY,
            "repetitions": repetitions,
            "backend": _backend_name(),
        },
        "shapes": rows,
    }


def main(argv: Optional[list[str]] = None) -> int:
    """Script entry point: print the table, optionally write the JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI-sized run ({SMOKE_POSITIONS} positions instead of "
        f"{FULL_POSITIONS})",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write the measurements as JSON (e.g. BENCH_exec.json)",
    )
    args = parser.parse_args(argv)
    positions = SMOKE_POSITIONS if args.smoke else FULL_POSITIONS
    payload = compare_modes(positions)
    print_table(
        ["shape", "records", "row s", "batch s", "speedup"],
        [
            [s["shape"], s["records"], s["row_seconds"], s["batch_seconds"],
             f'{s["speedup"]}x']
            for s in payload["shapes"]
        ],
        title=f"Batch vs row execution, {positions} positions "
        f"(identical answers asserted)",
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    # Gate every shape against the committed-baseline floor for the
    # active backend; a vector kernel silently degrading to the scalar
    # path shows up here as a hard failure, not a quiet slowdown.
    floors = FLOORS[_backend_name()]["smoke" if args.smoke else "full"]
    failed = False
    for shape in payload["shapes"]:
        floor = floors[shape["shape"]]
        if shape["speedup"] < floor:
            print(f"FAIL: {shape['shape']} speedup {shape['speedup']}x < {floor}x")
            failed = True
    return 1 if failed else 0


# -- pytest-benchmark entry points -------------------------------------------


@pytest.fixture(scope="module")
def planned():
    """Optimized plans for every shape at smoke size."""
    plans = {}
    for name, query in _shapes(SMOKE_POSITIONS).items():
        result = optimize(query)
        plans[name] = (result.plan.plan, result.plan.output_span)
    return plans


@pytest.mark.parametrize("shape", list(FLOORS["vector"]["smoke"]))
@pytest.mark.parametrize("mode", ["row", "batch"])
def test_execution_mode(benchmark, planned, shape, mode):
    plan, window = planned[shape]
    output = benchmark(
        lambda: execute_plan(plan, window, ExecutionCounters(), mode=mode)
    )
    benchmark.extra_info["records"] = len(output)


def test_batch_speedup_report(benchmark):
    payload = compare_modes(SMOKE_POSITIONS, repetitions=2)
    by_shape = {s["shape"]: s for s in payload["shapes"]}
    floors = FLOORS[_backend_name()]["smoke"]
    for name, floor in floors.items():
        assert by_shape[name]["speedup"] >= floor, name
    benchmark(lambda: None)


if __name__ == "__main__":
    raise SystemExit(main())
