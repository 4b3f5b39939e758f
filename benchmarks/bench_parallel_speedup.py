"""E-parallel — what the parallel partitioned runtime buys and costs.

Two gated quantities (DESIGN §14's acceptance numbers), measured on the
partition-friendly shapes:

* **modeled critical-path speedup at 4 workers** — the supervisor's
  serial phases (partition preparation and the position-order merge)
  plus the longest worker lane under an LPT assignment of the measured
  per-partition execution times.  This is the wall-clock a 4-lane
  machine sees; it is *modeled* from measured component times because
  CI containers pin this suite to one CPU (and the GIL serializes
  pure-Python workers anyway), where a literal 4-thread wall clock
  measures scheduler noise, not the runtime.  The floor applies to the
  row-path rows: per-record interpreter work is what partitioning
  parallelizes.  Batch-mode rows are reported for visibility — a
  vectorized lane runs in 1–2 ms, so the serial merge and the
  dispatch are a large share of so little work (prepare is a window
  over the leaf's buffers and costs well under a millisecond).
* **supervisor overhead at ``workers=1``** — wall-clock of
  :func:`~repro.execution.parallel.execute_parallel` on a 1-partition
  certificate over plain :func:`~repro.execution.engine.execute_plan`.
  The inline path must stay within 5%: that is the price every query
  pays when the engine routes through the supervisor and parallelism
  buys nothing.

Run as a script to (re)generate the committed perf baseline (rows of
``benchmarks/baseline.py``'s one shape, at both sizes)::

    PYTHONPATH=src python benchmarks/bench_parallel_speedup.py --out BENCH_parallel.json
    PYTHONPATH=src python benchmarks/bench_parallel_speedup.py --smoke   # CI-sized

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

from repro.algebra import base, col, lit  # noqa: E402
from repro.analysis.base import plan_paths  # noqa: E402
from repro.analysis.partition import certify  # noqa: E402
from repro.bench import print_table  # noqa: E402
from repro.execution import (  # noqa: E402
    ExecutionCounters,
    execute_parallel,
    execute_plan,
    merge_partitions,
    partition_plan,
)
from repro.model import Span  # noqa: E402
from repro.optimizer import optimize  # noqa: E402
from repro.workloads import StockSpec, generate_stock  # noqa: E402

#: Positions in the generated stock walks, by size.
POSITIONS = {"full": 40_000, "smoke": 4_000}
DENSITY = 0.95

#: Repetitions per measurement; the best (minimum) time is kept.
REPETITIONS = 3
#: Readings per row.
SAMPLES = 5

#: Partition count for the speedup model and worker counts modeled.
PARTS = 4
MODEL_WORKERS = (2, 4)

#: The committed-baseline gates: modeled critical-path speedup at 4
#: workers on the row-path rows, and supervisor overhead at workers=1
#: (held at full size only: a smoke batch lane runs in well under a
#: millisecond, where scheduler noise alone moves the ratio by points).
SPEEDUP_FLOOR = 1.5
OVERHEAD_BUDGET = 0.05
#: Metric -> (better, share by which a replay may read worse, the
#: row-path rows' limit by size).
METRICS = {
    "modeled_speedup_w4": ("higher", 0.25, {"full": SPEEDUP_FLOOR, "smoke": SPEEDUP_FLOOR}),
    "workers1_over_sequential": ("lower", 0.10, {"full": 1.0 + OVERHEAD_BUDGET}),
}
SHAPES = ("scan-select-project", "window-agg")
#: The rows the perf gate expects of ``BENCH_parallel.json``, per size.
KEYS = [
    (f"{shape}/{mode}", metric)
    for shape in SHAPES
    for mode in ("row", "batch")
    for metric in METRICS
]


def _shapes(positions: int) -> dict:
    """The partition-friendly benchmark queries over a fresh walk."""
    span = Span(0, positions - 1)
    stock = generate_stock(StockSpec("s", span, DENSITY, seed=5))
    return {
        "scan-select-project": (
            base(stock, "s")
            .select(col("volume") > lit(3000))
            .project("close", "volume")
            .query()
        ),
        "window-agg": base(stock, "s").window("avg", "close", 16, "ma16").query(),
    }


def _best_of(fn: Callable[[], object], repetitions: int = REPETITIONS) -> float:
    """Minimum wall-clock seconds over ``repetitions`` runs."""
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _makespan(times: list[float], lanes: int) -> float:
    """Longest lane under longest-processing-time-first assignment."""
    loads = [0.0] * lanes
    for seconds in sorted(times, reverse=True):
        loads[loads.index(min(loads))] += seconds
    return max(loads)


def measure_shape(plan, mode: str) -> dict:
    """Component times and modeled speedups for one (shape, mode) row."""
    root, window = plan.plan, plan.output_span
    certificate = certify(plan, PARTS)
    single = certify(plan, 1)
    paths = plan_paths(root)

    def sequential():
        return execute_plan(root, window, ExecutionCounters(), mode=mode)

    def inline_supervisor():
        return execute_parallel(plan, single, workers=1, mode=mode, verify=False)

    # Warm caches before any timing, then measure the overhead pair in
    # alternation: best-of minima from interleaved runs cancel the
    # drift that sequential-then-supervisor ordering would bake in.
    sequential()
    seq_seconds = par1_seconds = float("inf")
    for _ in range(max(REPETITIONS, 5)):
        started = time.perf_counter()
        sequential()
        seq_seconds = min(seq_seconds, time.perf_counter() - started)
        started = time.perf_counter()
        inline_supervisor()
        par1_seconds = min(par1_seconds, time.perf_counter() - started)

    # Serial phases of the supervisor, timed per partition.
    prepare_seconds = 0.0
    partition_seconds = []
    outputs = []
    for partition in certificate.partitions:
        started = time.perf_counter()
        subplan = partition_plan(root, partition, paths)
        prepare_seconds += time.perf_counter() - started
        partition_seconds.append(
            _best_of(
                lambda: execute_plan(
                    subplan, partition.window, ExecutionCounters(), mode=mode
                )
            )
        )
        outputs.append(
            execute_plan(subplan, partition.window, ExecutionCounters(), mode=mode)
        )
    merge_seconds = _best_of(lambda: merge_partitions(outputs, certificate))

    modeled = {}
    for lanes in MODEL_WORKERS:
        lane_seconds = _makespan(partition_seconds, lanes)
        modeled[str(lanes)] = round(
            seq_seconds / (prepare_seconds + merge_seconds + lane_seconds), 2
        )

    # Literal 4-thread wall clock, for visibility only (see docstring).
    wall4_seconds = _best_of(
        lambda: execute_parallel(
            plan, certificate, workers=4, mode=mode, verify=False
        )
    )

    answer = execute_parallel(plan, certificate, workers=2, mode=mode, verify=False)
    assert answer.to_pairs() == sequential().to_pairs()

    return {
        "records": len(answer),
        "seq_seconds": round(seq_seconds, 6),
        "prepare_seconds": round(prepare_seconds, 6),
        "merge_seconds": round(merge_seconds, 6),
        "partition_seconds": [round(s, 6) for s in partition_seconds],
        "modeled_speedup": modeled,
        "workers1_seconds": round(par1_seconds, 6),
        "wall_workers4_seconds": round(wall4_seconds, 6),
    }


def compare_modes(size: str) -> list:
    """Measure every shape in both modes; returns the BENCH_parallel rows.

    Two rows per shape and mode, each over ``SAMPLES`` readings; the
    component times of the last reading ride on the speedup row.  Only
    the row-path rows carry a ``limit`` (see the module docstring).
    """
    rows = []
    for name, query in _shapes(POSITIONS[size]).items():
        plan = optimize(query).plan
        for mode in ("row", "batch"):
            readings = [measure_shape(plan, mode) for _ in range(SAMPLES)]
            values = {
                "modeled_speedup_w4": [r["modeled_speedup"]["4"] for r in readings],
                "workers1_over_sequential": [
                    r["workers1_seconds"] / r["seq_seconds"] for r in readings
                ],
            }
            for metric, (better, bound, limits) in METRICS.items():
                extra = dict(readings[-1]) if metric == "modeled_speedup_w4" else {}
                if mode == "row" and size in limits:
                    extra["limit"] = limits[size]
                rows.append(
                    baseline.row(
                        f"{name}/{mode}", metric, size, better, values[metric], bound, **extra
                    )
                )
    return rows


def replay() -> list:
    """What ``scripts/check_perf.py`` re-measures."""
    return compare_modes("smoke")


def main(argv: Optional[list[str]] = None) -> int:
    """Script entry point: print the table, gate, optionally write JSON."""
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
        help="write both sizes as JSON (e.g. BENCH_parallel.json)",
    )
    args = parser.parse_args(argv)
    sizes = ("smoke",) if args.smoke else baseline.SIZES
    rows = [row for size in sizes for row in compare_modes(size)]
    print_table(
        ["shape/mode", "size", "metric", "median", "spread", "limit"],
        [
            [r["workload"], r["size"], r["metric"], r["median"], f'{r["spread"]:.1%}',
             r.get("limit", "")]
            for r in rows
        ],
        title=f"Parallel partitioned runtime ({PARTS} partitions, "
        "modeled critical path; see module docstring)",
    )
    return baseline.finish(
        args.out, "bench_parallel_speedup", rows,
        positions=POSITIONS, density=DENSITY, parts=PARTS, samples=SAMPLES,
    )


# -- pytest-benchmark entry points -------------------------------------------


@pytest.fixture(scope="module")
def certified_shape():
    """The scan shape, optimized and certified for PARTS partitions."""
    query = _shapes(POSITIONS["smoke"])["scan-select-project"]
    plan = optimize(query).plan
    return plan, certify(plan, PARTS)


@pytest.mark.parametrize("workers", (1, 2, 4))
def test_parallel_execution(benchmark, certified_shape, workers):
    plan, certificate = certified_shape
    answer = benchmark(
        lambda: execute_parallel(plan, certificate, workers=workers, verify=False)
    )
    benchmark.extra_info["records"] = len(answer)


def test_parallel_speedup_report(benchmark):
    assert not baseline.breaches(replay())
    benchmark(lambda: None)


if __name__ == "__main__":
    raise SystemExit(main())
