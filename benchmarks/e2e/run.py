"""The end-to-end benchmark: query text in, drained answer out.

One workload, one process (what the benchmark driver runs)::

    python3 benchmarks/e2e/run.py --workload dense_batch --seed 7 --seconds 10 --trace 0

prints the workload's metrics by name with their units and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0`` (tracing off),
the per-layer metrics with ``--trace 1``.

The whole report (every workload, each in its own processes)::

    python3 benchmarks/e2e/run.py [--seed N] [--runs K] [--smoke] [--out FILE] [--trace-out FILE]

runs, per workload, K untraced processes (seeds N .. N+K-1) and one
traced process (seed N), prints everything and writes ``--out``.
``--check-counts A.json B.json`` compares the exact counts of two
reports.  The metric and workload names, units, directions and bounds
are declared in ``BENCHMARK.json`` at the root of the repository; see
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARATION = ROOT / "BENCHMARK.json"
#: Units whose values must repeat exactly for a fixed seed.
EXACT_UNITS = ("count", "ratio")
#: Shares of ``--seconds`` a ``--trace 1`` run spends untraced and traced.
UNTRACED_SHARE, TRACED_SHARE = 0.4, 0.6
SMOKE_ROUNDS = 2
#: Per-layer metrics that read 0 on every workload while nothing goes
#: wrong (fallbacks, retries) or while no shipped plan has that operator.
#: ``probe-stream`` has rows but no self time: the engine's tracer parents
#: both probe-side operators to it, so together they cover it twice.
ZERO_WHEN_HEALTHY = {
    "execution.op.probe-stream.self_ms",
    "execution.exprs_interpreted",
    "execution.fallbacks_taken",
    "execution.parallel_fallbacks",
    "execution.partition_retries",
    "execution.stragglers_redispatched",
    "execution.op.probe-join.self_ms",
    "execution.op.probe-join.rows",
    "execution.op.materialize.self_ms",
    "execution.op.materialize.rows",
    "execution.op.stream-probe.self_ms",
    "execution.op.stream-probe.rows",
}


def load_declaration() -> dict:
    with open(DECLARATION, encoding="utf-8") as handle:
        return json.load(handle)


def _import_engine() -> None:
    """Put the checkout's own ``src/`` (and this directory) on the path."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no engine to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


# -- one workload, in this process --------------------------------------------


def run_workload(args: argparse.Namespace, declaration: dict) -> int:
    _import_engine()
    import harness

    seconds = args.seconds if args.seconds is not None else declaration["run_seconds"]
    rounds = SMOKE_ROUNDS if args.smoke else None
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        declared = declaration["end_to_end"]
        workload, setup_s = harness.repeated_set_up(args.workload, args.seed, args.smoke)
        harness.measure(workload, rounds=1)  # warm-up, untimed
        samples = harness.measure(workload, seconds, rounds)
        metrics = harness.end_to_end(samples, setup_s)
        tallies = [samples.tally]
    else:
        declared = declaration["per_layer"]
        workload, _setup_s = harness.set_up(args.workload, args.seed, args.smoke)
        harness.measure(workload, rounds=1)  # warm-up, untimed
        samples = harness.measure(workload, seconds * UNTRACED_SHARE, rounds)
        trace, recorder = harness.trace_pass(
            workload, args.seed, args.smoke, seconds * TRACED_SHARE, rounds
        )
        metrics = harness.per_layer(workload, samples, trace)
        tallies = [samples.tally, trace.tally]
        details["traced_queries"] = trace.queries
        details["spans"] = len(recorder.spans)
        if args.trace_out:
            recorder.write(args.trace_out)
    details["sizes"] = workload.sizes
    details["rounds"] = len(samples.round_qps)
    details["samples"] = len(samples.pooled_ms())
    details["failures"] = [reason for tally in tallies for reason in tally.reasons]

    names = {entry["name"] for entry in declared}
    undeclared = sorted(set(metrics) - names)
    if undeclared:
        sys.exit(f"run.py: measured but not declared in BENCHMARK.json: {undeclared}")
    reported = {}
    for entry in declared:
        # A per-layer metric this workload never touches reads 0.
        value = metrics.get(entry["name"], 0.0)
        reported[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{args.workload:15s} {entry['name']:44s} {value:16.6f} {entry['unit']}")
    print(f"{args.workload:15s} samples={details['samples']} rounds={details['rounds']}")
    for reason in details["failures"]:
        print(f"{args.workload:15s} FAILED {reason}")
    attempted = sum(tally.attempted for tally in tallies)
    failed = sum(tally.failed for tally in tallies)
    print("run-details " + json.dumps(details))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 1 if args.smoke and failed else 0


# -- the whole report, one process per workload run ---------------------------


def _child(args: argparse.Namespace, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Run one workload process; returns its result line and its details."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--trace", str(trace)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if trace and args.trace_out:
        command += ["--trace-out", args.trace_out]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.splitlines()
    sys.stderr.write(done.stderr)
    if done.returncode not in (0, 1) or len(lines) < 2:
        sys.exit(f"run.py: {' '.join(command)} exited with {done.returncode}")
    print("\n".join(lines[:-2]), flush=True)
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("run-details "))


def _provenance(args: argparse.Namespace, declaration: dict) -> dict:
    _import_engine()
    from repro.model.batch import vector_backend

    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # not a git checkout, or no git
    return {
        "commit": commit,
        "seed": args.seed,
        "runs": args.runs,
        "smoke": args.smoke,
        "run_seconds": args.seconds if args.seconds is not None else declaration["run_seconds"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "vector_backend": "numpy" if vector_backend() is not None else "python",
    }


def report(args: argparse.Namespace, declaration: dict) -> int:
    started = time.perf_counter()
    if args.out and Path(args.out).resolve() == DECLARATION:
        sys.exit("run.py: BENCHMARK.json is the declaration; write results elsewhere")
    if args.trace_out:
        open(args.trace_out, "w", encoding="utf-8").close()
    provenance = _provenance(args, declaration)
    workloads = {}
    failed_total = 0
    for entry in declaration["workloads"]:
        name = entry["name"]
        if args.workload not in (None, name):
            continue
        runs = [_child(args, name, args.seed + k, trace=0) for k in range(args.runs)]
        traced, traced_details = _child(args, name, args.seed, trace=1)
        end_to_end = {}
        for metric in declaration["end_to_end"]:
            values = [result["metrics"][metric["name"]]["value"] for result, _ in runs]
            end_to_end[metric["name"]] = {
                "unit": metric["unit"],
                "values": values,
                "median": statistics.median(values),
            }
        results = [result for result, _ in runs] + [traced]
        attempted = sum(result["attempted"] for result in results)
        failed = sum(result["failed"] for result in results)
        failed_total += failed
        workloads[name] = {
            "why": entry["why"],
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "untraced_runs": [details for _, details in runs],
            "traced_run": traced_details,
        }
    provenance["wall_s"] = time.perf_counter() - started
    document = {"provenance": provenance, "workloads": workloads}
    print("provenance " + json.dumps(provenance))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    # A workload reports 0 for a layer it never touches, so a metric the
    # harness stopped producing shows as 0 on all of them.
    missing = [
        metric["name"]
        for metric in declaration["per_layer"]
        if args.workload is None
        and metric["name"] not in ZERO_WHEN_HEALTHY
        and not any(w["per_layer"][metric["name"]]["value"] for w in workloads.values())
    ]
    for name in missing:
        print(f"MISSING {name}: 0 on every workload")
    if failed_total:
        print(f"FAILED {failed_total} queries")
    return 1 if missing or failed_total else 0


# -- exact counts -------------------------------------------------------------


def check_counts(first: str, second: str) -> int:
    """Print every exact-unit per-layer metric that differs; 1 if any does."""
    with open(first, encoding="utf-8") as a, open(second, encoding="utf-8") as b:
        left, right = json.load(a)["workloads"], json.load(b)["workloads"]
    differing = 0
    compared = 0
    for workload in left:
        for name, metric in left[workload]["per_layer"].items():
            if metric["unit"] not in EXACT_UNITS:
                continue
            compared += 1
            other = right[workload]["per_layer"][name]["value"]
            if metric["value"] != other:
                differing += 1
                print(f"{workload:15s} {name:44s} {metric['value']!r} != {other!r}")
    print(f"{compared} counts compared, {differing} differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one run, in this process")
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--smoke", action="store_true", help="data / 10, two rounds")
    parser.add_argument("--out", help="write the report here")
    parser.add_argument("--trace-out", help="write the traced pass's spans here (JSONL)")
    parser.add_argument("--check-counts", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.check_counts:
        return check_counts(*args.check_counts)
    declaration = load_declaration()
    known = [entry["name"] for entry in declaration["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; declared: {known}")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_workload(args, declaration)
    return report(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
