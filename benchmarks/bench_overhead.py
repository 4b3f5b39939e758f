"""E-overhead — what each always-available feature costs, on vs off.

Every feature a caller can switch on without changing the answer is a
row of :data:`FEATURES`: how it is switched on, and the share of the
off time the docs promise it stays within (:data:`NOTHING`, the null
with both sides off, is measured ahead of them in every cell).  Each is measured over the
end-to-end benchmark's ``dense_batch`` and ``dense_row`` workloads (same
data, same five query texts, built by ``benchmarks/e2e/harness.set_up``),
text in to drained answer out — ``compile_query`` →
``run_query_detailed`` → a full ``iter_nonnull`` drain — with every
answer checked against the workload's naive oracle.

A cell is ``PAIRS`` off/on pairs, alternating which side goes first.
Within a pair each side runs the workload's round ``ROUNDS`` times, the
two sides' rounds interleaved, and is the sum, over the round's queries,
of each query's undisturbed (lower-decile) time.  The row's values are
the per-pair on/off ratios, and its ``verdict`` is ``compare.judge`` of
them against the ratios of the ``nothing`` feature (both sides off) with
the feature's budget as the bound: ``same`` (inside the budget),
``worse`` (over it), ``better``, or ``unresolved`` when the spread is
wider than the budget — an overhead below the noise floor is reported as
such, not asserted.

Run as a script to (re)generate the committed baseline (both sizes)::

    PYTHONPATH=src python benchmarks/bench_overhead.py --out BENCH_overhead.json
    PYTHONPATH=src python benchmarks/bench_overhead.py --smoke   # what the perf gate replays
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional
from unittest import mock

sys.path[:0] = [str(Path(__file__).resolve().parents[1])]  # `benchmarks.*` when run as a script

from benchmarks import baseline  # noqa: E402  (also puts benchmarks/e2e on the path)

import harness  # noqa: E402  (benchmarks/e2e)

from repro.bench import print_table  # noqa: E402
from repro.execution import QueryGuard, run_query_detailed  # noqa: E402
from repro.lang import compile_query  # noqa: E402
from repro.obs import FlightRecorder, Tracer  # noqa: E402

WORKLOADS = ("dense_batch", "dense_row")
SEED = 1994
#: Alternating off/on pairs per cell and rounds per side: of a committed
#: row (either size), and of the perf gate's quicker replay.
PAIRS, ROUNDS = 10, 5
REPLAY_PAIRS, REPLAY_ROUNDS = 5, 4
#: Share by which a replayed on/off ratio may exceed the committed one.
REPLAY_BOUND = 0.10


def _loose_guard() -> QueryGuard:
    """A guard attached but never tripping: pure bookkeeping."""
    return QueryGuard(
        timeout=3600.0, max_pages=10**9, max_records=10**9, max_cache_entries=10**9
    )


@dataclass(frozen=True)
class Feature:
    """One switchable feature.

    Attributes:
        name: the row's ``metric``.
        budget: share of the off time the docs promise it stays within.
        on: the ``run_query_detailed`` keywords of one query, given the
            cell's long-lived recorder (a guard and a tracer are
            per-query state, a flight recorder is a service's).
        env: environment variables set while the feature is on.
    """

    name: str
    budget: float
    on: Callable[[FlightRecorder], dict] = lambda recorder: {}
    env: dict = field(default_factory=dict)


#: Both sides off.  Its ratios are the noise floor: every other feature's
#: ratios are judged against them, so pairing cancels the host's drift
#: and an overhead the null's own spread could produce stays unresolved.
NOTHING = Feature("nothing", 0.0)
FEATURES = (
    Feature("guard", 0.05, lambda recorder: {"guard": _loose_guard()}),
    Feature("tracer-disabled", 0.02, lambda recorder: {"tracer": Tracer(enabled=False)}),
    Feature("tracer", 0.10, lambda recorder: {"tracer": Tracer()}),
    Feature("recorder", 0.02, lambda recorder: {"recorder": recorder}),
    Feature("recorder+tracer", 0.10, lambda recorder: {"recorder": recorder, "tracer": Tracer()}),
    Feature("REPRO_VERIFY", 0.10, env={"REPRO_VERIFY": "1"}),
)
#: The rows the perf gate expects of ``BENCH_overhead.json``, per size.
KEYS = [(workload, feature.name) for workload in WORKLOADS for feature in (NOTHING, *FEATURES)]


def round_ms(workload, feature: Feature, recorder: FlightRecorder) -> list:
    """One round with ``feature`` on: milliseconds per query, answers checked."""
    timings = []
    gc.collect()
    with mock.patch.dict(os.environ, feature.env):
        for item in workload.items:
            started = time.perf_counter()
            query = compile_query(item.text, workload.env)
            result = run_query_detailed(query, **item.exec_kwargs, **feature.on(recorder))
            pairs = list(result.output.iter_nonnull())
            timings.append((time.perf_counter() - started) * 1e3)
            if harness.flatten(pairs) != item.oracle:
                raise RuntimeError(
                    f"{workload.name}/{item.cls} with {feature.name} on: wrong answer"
                )
    return timings


def pair_ms(workload, feature: Feature, recorder: FlightRecorder, rounds: int, on_first: bool):
    """One off/on pair: (off, on) milliseconds of the workload's round.

    The two sides' rounds interleave, so a neighbour's burst of a few
    seconds lands on both; a side is the sum over the round's queries of
    each query's undisturbed time over its ``rounds`` repetitions.
    """
    rounds_of: dict = {False: [], True: []}
    for turn in range(2 * rounds):
        on = (turn % 2 == 0) == on_first
        rounds_of[on].append(round_ms(workload, feature if on else NOTHING, recorder))
    return tuple(
        sum(harness.undisturbed(list(samples)) for samples in zip(*rounds_of[on]))
        for on in (False, True)
    )


def measure(size: str, features=FEATURES, workloads=WORKLOADS, pairs=PAIRS, rounds=ROUNDS) -> list:
    """Every workload x feature cell at ``size``, as baseline rows."""
    rows = []
    for name in workloads:
        workload, _seconds = harness.set_up(name, SEED, smoke=size == "smoke")
        for feature in (NOTHING, *features):  # warm-up: caches, lazy imports
            round_ms(workload, feature, FlightRecorder(64))
        null: list = []
        for feature in (NOTHING, *features):
            recorder = FlightRecorder(64)
            sides = [
                pair_ms(workload, feature, recorder, rounds, on_first=pair % 2 == 1)
                for pair in range(pairs)
            ]
            ratios = [on_ms / off_ms for off_ms, on_ms in sides]
            null = null or ratios
            _worse_by, _widest, verdict = baseline.judge(null, ratios, "lower", feature.budget)
            rows.append(
                baseline.row(
                    name,
                    feature.name,
                    size,
                    "lower",
                    ratios,
                    REPLAY_BOUND,
                    unit="on/off",
                    budget=feature.budget,
                    verdict=verdict,
                    off_ms=round(statistics.median(off for off, _ in sides), 3),
                    on_ms=round(statistics.median(on for _, on in sides), 3),
                )
            )
    return rows


def replay() -> list:
    """What ``scripts/check_perf.py`` re-measures."""
    return measure("smoke", pairs=REPLAY_PAIRS, rounds=REPLAY_ROUNDS)


def main(argv: Optional[list[str]] = None) -> int:
    """Script entry point: print the cells, optionally write the baseline."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="only the gate's replay (data / 10)")
    parser.add_argument("--out", metavar="FILE", help="write both sizes (e.g. BENCH_overhead.json)")
    args = parser.parse_args(argv)
    rows = replay() if args.smoke else [row for size in baseline.SIZES for row in measure(size)]
    print_table(
        ["workload", "feature", "size", "off ms", "on ms", "on/off", "spread", "budget", "verdict"],
        [
            [r["workload"], r["metric"], r["size"], r["off_ms"], r["on_ms"],
             f'{r["median"] - 1:+.1%}', f'{r["spread"]:.1%}', f'{r["budget"]:.0%}', r["verdict"]]
            for r in rows
        ],
        title="Feature on vs off, text in to drained answer out (oracle-checked)",
    )
    return baseline.finish(
        args.out, "bench_overhead", rows, seed=SEED, pairs=PAIRS, rounds=ROUNDS
    )


if __name__ == "__main__":
    raise SystemExit(main())
