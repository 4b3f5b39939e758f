"""Perf-regression gate: replay workloads against the committed baselines.

Every performance claim this repo ships is a row of a committed
``BENCH_*.json`` (the one shape of ``benchmarks/baseline.py``, written
by a benchmark's ``--out`` run).  :data:`BASELINES` names the gated
files and the benchmark behind each; one loop holds every file to the
same three rules:

* **the file is whole** — it parses, every row has the fixed fields,
  and every row its benchmark declares (``KEYS``, at both sizes) is
  there;
* **a committed row keeps its contract** — a row with a ``limit`` (the
  batch speedup floors, the parallel modeled-speedup floor and
  workers=1 ceiling) has its median on the right side of it, so a
  regressed baseline cannot be committed quietly.  An overhead row has
  a ``budget`` and a ``verdict`` instead: one that reads ``worse`` is
  printed as over budget, not failed — it reads so on an unchanged
  tree, and closing it is an engine change, not this gate's;
* **a replay reads no worse** — the benchmark's ``replay()`` re-measures
  the smoke-size rows, each is held to its own ``limit`` and judged
  (``benchmarks/e2e/compare.judge``) against the committed smoke row of
  the same cell: ``worse`` fails, ``unresolved`` is printed and passes.
  Rows are ratios (speedups, on/off times), never seconds, so the
  verdict survives a different host; when the active vector backend is
  not the baseline's the ratios do not compare, and the replay is held
  to its limits only.

Exit code 0 when every rule holds, 1 with a ``FAIL:`` line per
violation, 2 for a baseline file that is missing, corrupt or short of a
declared row.

Usage::

    PYTHONPATH=src python scripts/check_perf.py
    PYTHONPATH=src python scripts/check_perf.py --baseline-only   # no replay
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from benchmarks import (  # noqa: E402
    baseline,
    bench_batch_speedup,
    bench_overhead,
    bench_parallel_speedup,
)

#: Committed file -> the benchmark that writes it (``KEYS``, ``replay``).
BASELINES = (
    ("BENCH_exec.json", bench_batch_speedup),
    ("BENCH_parallel.json", bench_parallel_speedup),
    ("BENCH_overhead.json", bench_overhead),
)


def check(name: str, bench, replay: bool) -> list[str]:
    """The violations of one baseline file; raises ``BaselineError`` for a broken one."""
    rows, backend = baseline.load(REPO_ROOT / name)
    missing = [
        (*key, size) for key in bench.KEYS for size in baseline.SIZES if (*key, size) not in rows
    ]
    if missing:
        raise baseline.BaselineError(f"baseline {name} lacks the rows {missing}")
    failures = [f"{name}: {line}" for line in baseline.breaches(rows.values())]
    for row in rows.values():
        if row["size"] == "full" and row.get("verdict") == "worse":
            print(
                f"  {name}: {row['workload']} {row['metric']} is over budget: "
                f"{row['median'] - 1:+.1%} against {row['budget']:.0%}"
            )
    if not replay:
        return failures
    comparable = backend == baseline.backend_name()
    if not comparable:
        print(
            f"  {name}: active backend {baseline.backend_name()!r} is not the "
            f"baseline's {backend!r}; replay held to its limits only"
        )
    for row in bench.replay():
        cell = f"{row['workload']} {row['metric']}"
        failures += [f"replay: {line}" for line in baseline.breaches([row])]
        if not comparable:
            print(f"  {name}: {cell} replay {row['median']}")
            continue
        reference = rows[row["workload"], row["metric"], "smoke"]
        worse_by, widest, verdict = baseline.judge(
            reference["values"], row["values"], row["better"], reference["bound"]
        )
        print(
            f"  {name}: {cell} committed {reference['median']} replay {row['median']} "
            f"(worse by {worse_by:+.1%}, bound {reference['bound']:.0%}, "
            f"spread {widest:.1%}): {verdict}"
        )
        if verdict == "worse":
            failures.append(
                f"replay: {cell} reads {row['median']} against the committed "
                f"{reference['median']}: worse by {worse_by:.1%}, over the "
                f"{reference['bound']:.0%} bound"
            )
    return failures


def main(argv=None) -> int:
    """Check every baseline; exit 1 on any violation, 2 on a broken file."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-only",
        action="store_true",
        help="validate the committed baselines without re-measuring",
    )
    args = parser.parse_args(argv)
    failures: list[str] = []
    print("perf gate:")
    try:
        for name, bench in BASELINES:
            failures += check(name, bench, replay=not args.baseline_only)
    except baseline.BaselineError as error:
        print(f"error: {error}")
        return 2
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        print(f"{len(failures)} perf gate violation(s)")
        return 1
    print("perf gate: all committed baselines hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
