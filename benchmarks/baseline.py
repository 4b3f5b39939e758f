"""The one shape of a committed ``BENCH_*.json`` baseline.

A baseline is ``{"benchmark", "provenance", "rows"}``; every row is one
``workload`` x ``metric`` cell at one ``size`` ("full" is what the docs
quote, "smoke" is what ``scripts/check_perf.py`` replays like for like)::

    workload, metric, size, better, median, spread, bound, values

``values`` are dimensionless ratios (a speedup, an on/off time), one per
repetition, so a row compares across hosts; ``median`` and ``spread``
(first to third quartile as a share of the median) summarize them, and
``bound`` is the share by which a replay's median may read worse before
:func:`judge` (``benchmarks/e2e/compare.judge``) calls it ``worse``.  A row may carry
``limit``, the value its median may never be worse than, and whatever
else its benchmark reports (``budget``/``verdict``, component times).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import compare  # noqa: E402

from repro.model.batch import vector_backend  # noqa: E402

ROW_FIELDS = ("workload", "metric", "size", "better", "median", "spread", "bound", "values")
SIZES = ("full", "smoke")


class BaselineError(Exception):
    """A baseline file that is missing, unreadable or not of the one shape."""


def row(
    workload: str, metric: str, size: str, better: str, values: list, bound: float, **extra
) -> dict:
    """One row; ``extra`` keys ride along after the fixed fields."""
    return {
        "workload": workload,
        "metric": metric,
        "size": size,
        "better": better,
        "median": round(statistics.median(values), 4),
        "spread": round(compare.spread(values), 4),
        "bound": bound,
        "values": [round(v, 4) for v in values],
        **extra,
    }


def judge(a: list, b: list, better: str, bound: float) -> tuple:
    """``compare.judge``, with ``worse``/``better`` held to the bound as well.

    Where the spread is wider than the bound, ``compare.judge`` reads two
    sides that do not overlap as a verdict on direction alone.  A gate
    and a budget are about size: three replayed values all a little
    above five committed ones is not a regression past the bound, so
    that case stays ``unresolved``.
    """
    worse_by, widest, verdict = compare.judge(a, b, better, bound)
    if (verdict == "worse" and worse_by <= bound) or (verdict == "better" and worse_by >= -bound):
        verdict = "unresolved"
    return worse_by, widest, verdict


def breaches(rows) -> list:
    """A line for every row whose median is on the wrong side of its ``limit``."""
    lines = []
    for r in rows:
        limit = r.get("limit")
        if limit is not None and (
            r["median"] > limit if r["better"] == "lower" else r["median"] < limit
        ):
            lines.append(
                f"{r['workload']} {r['metric']} ({r['size']}): "
                f"median {r['median']} is worse than its limit {limit}"
            )
    return lines


def backend_name() -> str:
    """Which batch backend this process runs under."""
    return "numpy" if vector_backend() is not None else "python"


def provenance(**settings) -> dict:
    """Where and how a baseline was captured (``run.py``'s block, plus settings)."""

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=False)

    try:
        commit = git("rev-parse", "HEAD").stdout.strip() or "unknown"
        # The engine measured is the commit's own when src/ has no local edit.
        src_clean = git("diff", "--quiet", "HEAD", "--", "src").returncode == 0
    except OSError:  # no git
        commit, src_clean = "unknown", False
    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    return {
        "commit": commit,
        "src_clean": src_clean,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "vector_backend": backend_name(),
        **settings,
    }


def write(path: str, benchmark: str, rows: list, **settings) -> None:
    """Write a baseline file."""
    document = {"benchmark": benchmark, "provenance": provenance(**settings), "rows": rows}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}")


def finish(out, benchmark: str, rows: list, **settings) -> int:
    """How a benchmark script ends: write ``--out`` if given, hold the rows to their limits."""
    if out:
        write(out, benchmark, rows, **settings)
    over = breaches(rows)
    for line in over:
        print(f"FAIL: {line}")
    return 1 if over else 0


def load(path) -> tuple:
    """Read a baseline: ``{(workload, metric, size): row}`` and its vector backend."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        rows = {(r["workload"], r["metric"], r["size"]): r for r in document["rows"]}
        backend = document["provenance"]["vector_backend"]
        incomplete = [key for key, r in rows.items() if not set(ROW_FIELDS) <= set(r)]
    except FileNotFoundError:
        raise BaselineError(f"missing committed baseline {path}") from None
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise BaselineError(f"unreadable baseline {path}: {error!r}") from None
    if incomplete:
        raise BaselineError(f"baseline {path}: rows {incomplete} lack one of {ROW_FIELDS}")
    return rows, backend
