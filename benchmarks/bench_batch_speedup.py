"""E-batch — batched columnar execution vs the row-at-a-time oracle.

Four plan shapes bracket where batching pays: scan-select-project
(pure per-record interpreter overhead — the best case for compiled
fused predicates over columns), window-agg (per-position aggregator
work shared by both modes), previous-select (Cache-Strategy-B as a
rank-gather over typed buffers instead of a per-position cache), and
a lockstep join (merge alignment done per batch instead of per
record).  Both modes produce identical
answers; only the wall clock differs.

Run as a script to (re)generate the committed perf baseline (rows of
``benchmarks/baseline.py``'s one shape, at both sizes)::

    PYTHONPATH=src python benchmarks/bench_batch_speedup.py --out BENCH_exec.json
    PYTHONPATH=src python benchmarks/bench_batch_speedup.py --smoke   # CI-sized

or under pytest-benchmark like the other files here.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Optional

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1])]  # `benchmarks.*` when run as a script

from benchmarks import baseline  # noqa: E402

from repro.bench import print_table, speedup  # noqa: E402
from repro.algebra import base, col, lit  # noqa: E402
from repro.execution import ExecutionCounters, execute_plan  # noqa: E402
from repro.model import Span  # noqa: E402
from repro.optimizer import optimize  # noqa: E402
from repro.workloads import StockSpec, generate_stock  # noqa: E402

#: Positions in the generated stock walks, by size.
POSITIONS = {"full": 40_000, "smoke": 4_000}
DENSITY = 0.95
#: Speedups per row, each the ratio of two best-of-``REPETITIONS`` times.
SAMPLES = 5
REPETITIONS = 3
#: Share by which a replayed speedup may fall below the committed one.
REPLAY_BOUND = 0.5

#: Minimum acceptable batch-over-row speedups — the committed-baseline
#: gate.  Keyed by backend ("numpy" when it is importable, "python"
#: for the pure fallback path) then run size.  The numpy full-size
#: floors are the headline numbers BENCH_exec.json tracks; the others
#: are set well under current measurements so CI noise cannot trip
#: them, while still catching a real regression (e.g. a kernel
#: silently falling back).  scan-select-project's floors moved with its
#: row side alone: row chains compiled to value-tuple steps took the row
#: time from 0.255 to 0.074 s at full size and from 0.019 to 0.0036 s at
#: smoke size, while batch read 0.0063 -> 0.0065 s and 0.0009 -> 0.0007 s
#: (2-core x86-64 container, CPython 3.11, numpy 2.4), so the speedups
#: went 41x -> 11x and 22x -> 5x.  window-agg's and lockstep-join's
#: ratios fell the same way: the fused running-sum loop, the in-place
#: lock-step combine and zipped in-memory scans took window-agg's row
#: time from 0.208-0.220 to 0.116-0.144 s at full size and from 0.014-0.015
#: to 0.007-0.013 s at smoke size, lockstep-join's from 0.139-0.163 to
#: 0.111-0.141 s at full size, while batch read 0.0062-0.0065 against
#: 0.0061-0.0066 s on window-agg at full size (two parent and three
#: change runs alternated on the same host), so the committed speedups
#: went 29.6x -> 18.1x and 24.9x -> 13.6x on window-agg and 11.2x -> 9.2x
#: and 7.0x -> 5.5x on lockstep-join; no floor moved.
FLOORS = {
    "numpy": {
        "full": {
            "scan-select-project": 6.0,
            "window-agg": 3.0,
            "previous-select": 2.5,
            "lockstep-join": 3.0,
        },
        "smoke": {
            "scan-select-project": 3.0,
            "window-agg": 6.0,
            "previous-select": 1.5,
            "lockstep-join": 2.5,
        },
    },
    # Without numpy the value offset gathers per position over lists:
    # about the row executor's speed, so its floor only catches a cliff.
    "python": {
        "full": {
            "scan-select-project": 1.8,
            "window-agg": 1.2,
            "previous-select": 0.5,
            "lockstep-join": 1.2,
        },
        "smoke": {
            "scan-select-project": 1.2,
            "window-agg": 1.1,
            "previous-select": 0.5,
            "lockstep-join": 1.1,
        },
    },
}

#: The rows the perf gate expects of ``BENCH_exec.json``, per size.
KEYS = [(shape, "batch_speedup") for shape in FLOORS["numpy"]["full"]]


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


def _best_of(fn: Callable[[], object], repetitions: int = REPETITIONS) -> float:
    """Minimum wall-clock seconds over ``repetitions`` runs."""
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def compare_modes(size: str) -> list:
    """Time every shape in both modes; returns the BENCH_exec rows."""
    floors = FLOORS[baseline.backend_name()][size]
    rows = []
    for name, query in _shapes(POSITIONS[size]).items():
        result = optimize(query)
        plan = result.plan.plan
        window = result.plan.output_span

        def run(mode: str):
            return execute_plan(plan, window, ExecutionCounters(), mode=mode)

        row_output = run("row")
        batch_output = run("batch")
        assert batch_output.to_pairs() == row_output.to_pairs(), name
        timed = [
            (_best_of(lambda: run("row")), _best_of(lambda: run("batch")))
            for _ in range(SAMPLES)
        ]
        rows.append(
            baseline.row(
                name,
                "batch_speedup",
                size,
                "higher",
                [speedup(row_s, batch_s) for row_s, batch_s in timed],
                REPLAY_BOUND,
                unit="row s / batch s",
                limit=floors[name],
                records=len(batch_output),
                row_seconds=round(min(row_s for row_s, _ in timed), 6),
                batch_seconds=round(min(batch_s for _, batch_s in timed), 6),
            )
        )
    return rows


def replay() -> list:
    """What ``scripts/check_perf.py`` re-measures."""
    return compare_modes("smoke")


def main(argv: Optional[list[str]] = None) -> int:
    """Script entry point: print the table, optionally write the JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI-sized run only ({POSITIONS['smoke']} positions instead of "
        f"{POSITIONS['full']})",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write both sizes as JSON (e.g. BENCH_exec.json)",
    )
    args = parser.parse_args(argv)
    sizes = ("smoke",) if args.smoke else baseline.SIZES
    rows = [row for size in sizes for row in compare_modes(size)]
    print_table(
        ["shape", "size", "records", "row s", "batch s", "speedup", "spread", "floor"],
        [
            [r["workload"], r["size"], r["records"], r["row_seconds"], r["batch_seconds"],
             f'{r["median"]}x', f'{r["spread"]:.1%}', f'{r["limit"]}x']
            for r in rows
        ],
        title=f"Batch vs row execution, {baseline.backend_name()} backend "
        "(identical answers asserted)",
    )
    # Every shape is held to the floor for the active backend; a
    # vector kernel silently degrading to the scalar path shows up here
    # as a hard failure, not a quiet slowdown.
    return baseline.finish(
        args.out, "bench_batch_speedup", rows,
        positions=POSITIONS, density=DENSITY, samples=SAMPLES,
    )


# -- pytest-benchmark entry points -------------------------------------------


@pytest.fixture(scope="module")
def planned():
    """Optimized plans for every shape at smoke size."""
    plans = {}
    for name, query in _shapes(POSITIONS["smoke"]).items():
        result = optimize(query)
        plans[name] = (result.plan.plan, result.plan.output_span)
    return plans


@pytest.mark.parametrize("shape", list(FLOORS["numpy"]["smoke"]))
@pytest.mark.parametrize("mode", ["row", "batch"])
def test_execution_mode(benchmark, planned, shape, mode):
    plan, window = planned[shape]
    output = benchmark(
        lambda: execute_plan(plan, window, ExecutionCounters(), mode=mode)
    )
    benchmark.extra_info["records"] = len(output)


def test_batch_speedup_report(benchmark):
    assert not baseline.breaches(replay())
    benchmark(lambda: None)


if __name__ == "__main__":
    raise SystemExit(main())
