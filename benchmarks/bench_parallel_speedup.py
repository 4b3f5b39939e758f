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

Run as a script to (re)generate the committed perf baseline::

    PYTHONPATH=src python benchmarks/bench_parallel_speedup.py --out BENCH_parallel.json
    PYTHONPATH=src python benchmarks/bench_parallel_speedup.py --smoke   # CI-sized

or under pytest-benchmark like the other files here.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Callable, Optional

import pytest

from repro.algebra import base, col, lit
from repro.analysis.base import plan_paths
from repro.analysis.partition import certify
from repro.bench import print_table
from repro.execution import (
    ExecutionCounters,
    execute_parallel,
    execute_plan,
    merge_partitions,
    partition_plan,
)
from repro.model import Span
from repro.optimizer import optimize
from repro.workloads import StockSpec, generate_stock

#: Positions in the generated stock walks (full vs --smoke runs).
FULL_POSITIONS = 40_000
SMOKE_POSITIONS = 4_000
DENSITY = 0.95

#: Repetitions per measurement; the best (minimum) time is kept.
REPETITIONS = 3

#: Partition count for the speedup model and worker counts modeled.
PARTS = 4
MODEL_WORKERS = (2, 4)

#: The committed-baseline gates: modeled critical-path speedup at 4
#: workers on the row-path rows, and supervisor overhead at workers=1.
SPEEDUP_FLOOR = 1.5
OVERHEAD_BUDGET = 0.05


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
        "mode": mode,
        "records": len(answer),
        "seq_seconds": round(seq_seconds, 6),
        "prepare_seconds": round(prepare_seconds, 6),
        "merge_seconds": round(merge_seconds, 6),
        "partition_seconds": [round(s, 6) for s in partition_seconds],
        "modeled_speedup": modeled,
        "workers1_seconds": round(par1_seconds, 6),
        "workers1_overhead": round(par1_seconds / seq_seconds - 1.0, 4),
        "wall_workers4_seconds": round(wall4_seconds, 6),
        "gated": mode == "row",
    }


def compare_modes(positions: int) -> dict:
    """Measure every shape in both modes; returns the BENCH payload."""
    rows = []
    for name, query in _shapes(positions).items():
        plan = optimize(query).plan
        for mode in ("row", "batch"):
            row = measure_shape(plan, mode)
            row["shape"] = name
            rows.append(row)
    gated = [r for r in rows if r["gated"]]
    return {
        "benchmark": "bench_parallel_speedup",
        "config": {
            "positions": positions,
            "density": DENSITY,
            "repetitions": REPETITIONS,
            "parts": PARTS,
            "speedup_floor": SPEEDUP_FLOOR,
            "overhead_budget": OVERHEAD_BUDGET,
        },
        "shapes": rows,
        "min_gated_modeled_speedup_w4": min(
            r["modeled_speedup"]["4"] for r in gated
        ),
        "max_gated_workers1_overhead": max(r["workers1_overhead"] for r in gated),
    }


def main(argv: Optional[list[str]] = None) -> int:
    """Script entry point: print the table, gate, optionally write JSON."""
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
        help="write the measurements as JSON (e.g. BENCH_parallel.json)",
    )
    args = parser.parse_args(argv)
    positions = SMOKE_POSITIONS if args.smoke else FULL_POSITIONS
    payload = compare_modes(positions)
    print_table(
        ["shape", "mode", "seq ms", "w1 ovh", "model x2", "model x4", "gated"],
        [
            [
                r["shape"],
                r["mode"],
                f'{r["seq_seconds"] * 1e3:.1f}',
                f'{r["workers1_overhead"] * 100:+.1f}%',
                f'{r["modeled_speedup"]["2"]:.2f}x',
                f'{r["modeled_speedup"]["4"]:.2f}x',
                "yes" if r["gated"] else "",
            ]
            for r in payload["shapes"]
        ],
        title=f"Parallel partitioned runtime ({PARTS} partitions, "
        "modeled critical path; see module docstring)",
    )
    floor = payload["min_gated_modeled_speedup_w4"]
    overhead = payload["max_gated_workers1_overhead"]
    print(
        f"gated rows: modeled x4 speedup >= {floor:.2f} "
        f"(floor {SPEEDUP_FLOOR}), workers=1 overhead <= "
        f"{overhead * 100:.1f}% (budget {OVERHEAD_BUDGET * 100:.0f}%)"
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    failed = False
    if floor < SPEEDUP_FLOOR:
        print(f"FAIL: modeled x4 speedup {floor:.2f} under floor {SPEEDUP_FLOOR}")
        failed = True
    if overhead > OVERHEAD_BUDGET:
        print(
            f"FAIL: workers=1 overhead {overhead * 100:.1f}% over budget "
            f"{OVERHEAD_BUDGET * 100:.0f}%"
        )
        failed = True
    return 1 if failed else 0


# -- pytest-benchmark entry points -------------------------------------------


@pytest.fixture(scope="module")
def certified_shape():
    """The scan shape, optimized and certified for PARTS partitions."""
    query = _shapes(SMOKE_POSITIONS)["scan-select-project"]
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
    payload = compare_modes(SMOKE_POSITIONS)
    assert payload["min_gated_modeled_speedup_w4"] >= SPEEDUP_FLOOR
    assert payload["max_gated_workers1_overhead"] <= OVERHEAD_BUDGET
    benchmark(lambda: None)


if __name__ == "__main__":
    raise SystemExit(main())
