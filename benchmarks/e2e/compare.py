"""Compare two reports of ``run.py --out``: ``compare.py A.json B.json``.

For every workload × end-to-end metric it prints A's and B's median
over their runs, how much worse B is as a share of A (the base of every
ratio is A's median), the metric's bound from ``BENCHMARK.json``, the
wider of the two sides' run-to-run spreads (first to third quartile, as
a share of the median — what ``run.py --runs 10`` makes measurable) and
a verdict:

* ``unresolved`` — the spread is wider than the bound, unless every run
  of one side reads better than every run of the other;
* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``same`` — otherwise.

``failed_share`` has no tolerance: any increase is ``worse``.  Exits 1
when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

DECLARATION = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: list) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def judge(a: list, b: list, better: str, bound: float) -> tuple[float, float, str]:
    """(share by which B is worse than A, widest spread, verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    widest = max(spread(a), spread(b))
    if widest > bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return worse_by, widest, "better"
        if min(sign * v for v in b) > max(sign * v for v in a):
            return worse_by, widest, "worse"
        return worse_by, widest, "unresolved"
    if worse_by > bound:
        return worse_by, widest, "worse"
    if worse_by < -bound:
        return worse_by, widest, "better"
    return worse_by, widest, "same"


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    with open(DECLARATION, encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    reports = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    a, b = (report["workloads"] for report in reports)
    for side, report in zip("AB", reports):
        origin = report["provenance"]
        print(f"{side}: commit {origin['commit'][:12]} seed {origin['seed']} runs {origin['runs']}")
    header = f"{'workload':15s} {'metric':14s} {'A':>12s} {'B':>12s} {'B worse by':>11s}"
    print(f"{header} {'bound':>6s} {'spread':>7s}  verdict")
    bad = 0
    for workload in a:
        if workload not in b:
            continue
        for metric in declared:
            name = metric["name"]
            left = a[workload]["end_to_end"][name]["values"]
            right = b[workload]["end_to_end"][name]["values"]
            worse_by, widest, verdict = judge(left, right, metric["better"], metric["bound"])
            bad += verdict in ("worse", "unresolved")
            print(
                f"{workload:15s} {name:14s} {statistics.median(left):12.4f} "
                f"{statistics.median(right):12.4f} {worse_by:+10.1%}A {metric['bound']:6.0%} "
                f"{widest:7.1%}  {verdict}"
            )
        left, right = a[workload]["failed_share"], b[workload]["failed_share"]
        verdict = "worse" if right > left else "better" if right < left else "same"
        bad += verdict == "worse"
        print(f"{workload:15s} {'failed_share':14s} {left:12.4f} {right:12.4f} {'':>11s} {'0%':>6s} {'':>7s}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
