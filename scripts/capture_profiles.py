"""Capture a flight-recorder profile artifact from the bench workload.

Replays the exec-benchmark plan shapes through
``run_query_detailed(recorder=...)`` — both execution modes, several
repeats, operator sampling on — and writes the retained profiles as
the validated JSON Lines artifact (``repro.obs.profiles_to_jsonl``).
CI uploads the file so a triage session can inspect per-run durations,
work counters, and sampled operator self-times for a commit without
re-running anything.

The artifact is parsed back before the script exits, so an upload is
always schema-valid.

Usage::

    PYTHONPATH=src python scripts/capture_profiles.py --out ci-profiles.jsonl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_batch_speedup import POSITIONS, _shapes  # noqa: E402

from repro.execution import run_query_detailed  # noqa: E402
from repro.obs import FlightRecorder, parse_profiles, profiles_to_jsonl  # noqa: E402

#: Runs per shape/mode: enough for percentiles to mean something and
#: for the every-4th operator sample to fire a few times.
REPEATS = 8


def capture(repeats: int = REPEATS) -> FlightRecorder:
    """Run every bench shape in both modes under one recorder."""
    recorder = FlightRecorder(256, op_sample=4)
    for query in _shapes(POSITIONS["smoke"]).values():
        for mode in ("batch", "row"):
            for _ in range(repeats):
                run_query_detailed(query, mode=mode, recorder=recorder)
    return recorder


def main(argv=None) -> int:
    """Script entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        required=True,
        metavar="FILE",
        help="write the profiles artifact (JSON Lines) to this file",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=REPEATS,
        metavar="N",
        help=f"runs per shape/mode (default {REPEATS})",
    )
    args = parser.parse_args(argv)
    recorder = capture(args.repeats)
    text = profiles_to_jsonl(recorder.profiles())
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    parsed = parse_profiles(text)
    traced = sum(1 for p in parsed if p.traced)
    summary = recorder.summary()["duration_us"]
    print(
        f"captured {len(parsed)} profile(s) ({traced} traced) -> {args.out}; "
        f"duration p50 {summary['p50'] / 1000.0:.3f}ms "
        f"p99 {summary['p99'] / 1000.0:.3f}ms"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
