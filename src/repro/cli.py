"""Command-line interface: run sequence queries over CSV files.

Examples (a leading ``run`` is accepted and ignored)::

    python -m repro --load prices=prices.csv \\
        "window(select(prices, volume > 4000), avg, close, 3)"

    python -m repro run --load v=volcanos.csv --load e=quakes.csv --analyze \\
        "project(select(compose(v as v, previous(e) as e), e_strength > 7.0), v_name)"

``--analyze`` runs the query with the span tracer on and prints the
EXPLAIN ANALYZE tree: each operator's estimated cost next to its actual
time, rows, and pages, plus the estimate/actual error factor.

Tracing subcommand::

    python -m repro trace --load prices=prices.csv --out t.json \\
        "window(prices, avg, close, 6)"

writes a Chrome ``trace_event`` file loadable in Perfetto
(https://ui.perfetto.dev) or ``about://tracing``; ``--format jsonl``
writes the JSON Lines span format instead; ``--with-metrics`` embeds
the run's execution counters in the exported trace.

Profiling subcommands::

    python -m repro profile --load prices=prices.csv --repeat 20 \\
        --slow-threshold-ms 5 "window(prices, avg, close, 6)"
    python -m repro stats --load prices=prices.csv --repeat 20 \\
        "window(prices, avg, close, 6)"

``profile`` runs the query under the flight recorder and reports the
captured per-run profiles (``--json`` for the machine-readable form,
``--out`` for a JSON Lines artifact); ``stats`` renders the metrics
block with histogram percentiles (p50/p90/p99) folded in.

Static-analysis subcommands::

    python -m repro check --load prices=prices.csv "select(prices, close > 100)"
    python -m repro lint --load prices=prices.csv "next(select(prices, close > 100))"
    python -m repro verify-plan --json --load prices=prices.csv "window(prices, avg, close, 6)"

All three share one exit-code contract and one JSON report shape:

* ``0`` — analysis ran and produced no error-severity findings;
* ``1`` — error-severity findings (parse errors are reported as a
  ``parse-error`` diagnostic, semantic errors under their SEM* codes);
* ``2`` — usage errors: bad ``--load``/``--span`` syntax or an
  unreadable input file (argparse uses 2 for bad flags as well).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Optional, Sequence as PySequence

from repro.errors import ParseError, ReproError, SemanticError, StorageError
from repro.analysis import (
    Severity,
    SourceDiagnostic,
    VerificationReport,
    verify_optimization,
    verify_query,
)
from repro.catalog import Catalog
from repro.execution import ExecOptions, QueryGuard, run_query_detailed
from repro.analysis.partition import PartitionCounters, analyze_partition
from repro.io import read_csv
from repro.lang import compile_query
from repro.model import Span
from repro.obs import (
    PROFILE_FORMAT_VERSION,
    TRACE_FORMATS,
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    profiles_to_jsonl,
    validate_profile_record,
    write_trace,
)
from repro.obs.profile import DEFAULT_CAPACITY as PROFILE_CAPACITY
from repro.optimizer import optimize
from repro.storage import FAULT_KINDS, FaultPlan, StoredSequence

#: --help epilog shared by every static-analysis subcommand.
_EXIT_CODE_HELP = (
    "exit status: 0 = no error-severity findings; 1 = error findings "
    "(including parse errors); 2 = usage errors (bad --load/--span or "
    "unreadable file)."
)


#: The ``ExecOptions`` fields that have a command-line flag (a field
#: declared without help text is an API-only knob).
_EXEC_FLAGS = [spec for spec in fields(ExecOptions) if spec.metadata["help"] is not None]


def add_exec_options(parser: argparse.ArgumentParser) -> None:
    """Add the execution flags: one per CLI-visible ``ExecOptions`` field.

    Every run-style subcommand (``run``, ``trace``, ``profile``,
    ``stats``) calls this, so they accept the identical set; choices and
    defaults come from the field declarations.
    """
    for spec in _EXEC_FLAGS:
        rule = spec.metadata
        flag = "--" + spec.name.replace("_", "-")
        if rule["kind"] is bool:
            parser.add_argument(flag, action="store_true", help=rule["help"])
            continue
        text = rule["help"]
        if spec.default is not None:
            text += f" (default {spec.default})"
        if rule["choices"]:
            parser.add_argument(
                flag, choices=rule["choices"], default=spec.default, help=text
            )
        else:
            parser.add_argument(
                flag, type=rule["kind"], default=spec.default, metavar="N", help=text
            )


def exec_options(args: argparse.Namespace) -> dict:
    """The parsed execution flags, as ``run_query_detailed`` keywords."""
    return {spec.name: getattr(args, spec.name) for spec in _EXEC_FLAGS}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run a sequence query (SIGMOD '94 style) over CSV data.",
        epilog=(
            "exit status: 0 = success; 1 = any error (bad query, missing "
            "file); 2 = answer mismatch against --naive. "
            "Subcommands check/lint/verify-plan have their own contract: "
            + _EXIT_CODE_HELP
        ),
    )
    parser.add_argument(
        "query",
        help="query text, e.g. \"window(prices, avg, close, 6)\"",
    )
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=FILE[:POSCOL]",
        help="register a CSV file as a base sequence (repeatable); "
        "POSCOL defaults to 'position'",
    )
    parser.add_argument(
        "--span",
        metavar="START:END",
        help="evaluation span, e.g. 200:350 (default: the query's own)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the optimizer's plan and the full metrics block "
        "before the answer",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="trace the run and print the EXPLAIN ANALYZE tree: "
        "estimated cost vs actual time/rows/pages per operator",
    )
    parser.add_argument(
        "--naive",
        action="store_true",
        help="also run the naive reference evaluator and verify agreement",
    )
    add_exec_options(parser)
    parser.add_argument(
        "--limit",
        type=int,
        default=20,
        help="print at most this many answer rows (default 20; 0 = all)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="abort the query after this much wall-clock time",
    )
    parser.add_argument(
        "--max-pages",
        type=int,
        metavar="N",
        help="abort the query after reading more than N disk pages",
    )
    parser.add_argument(
        "--max-records",
        type=int,
        metavar="N",
        help="abort the query after emitting more than N records",
    )
    parser.add_argument(
        "--fault-plan",
        metavar="SPEC",
        help="store loaded sequences on a fault-injecting disk, e.g. "
        "'seed=7,transient=0.05,corrupt=0.01' "
        f"(rates for {', '.join(FAULT_KINDS)}; plus latency_ticks)",
    )
    return parser


class _UsageError(ReproError):
    """A bad command-line argument (exit code 2)."""


def _parse_load(spec: str) -> tuple[str, str, str]:
    if "=" not in spec:
        raise _UsageError(f"--load needs NAME=FILE, got {spec!r}")
    name, _, rest = spec.partition("=")
    path, _, poscol = rest.partition(":")
    if not name or not path:
        raise _UsageError(f"--load needs NAME=FILE, got {spec!r}")
    return name, path, poscol or "position"


def _parse_span(spec: Optional[str]) -> Optional[Span]:
    if spec is None:
        return None
    start_text, _, end_text = spec.partition(":")
    try:
        return Span(int(start_text), int(end_text))
    except ValueError:
        raise _UsageError(
            f"--span needs START:END integers, got {spec!r}"
        ) from None


def _load_catalog(specs: PySequence[str]) -> Catalog:
    """Build a catalog from ``--load`` specs; failures are usage errors."""
    catalog = Catalog()
    for spec in specs:
        name, path, poscol = _parse_load(spec)
        try:
            catalog.register(name, read_csv(path, position_column=poscol))
        except (ReproError, OSError) as error:
            raise _UsageError(f"--load {spec}: {error}") from error
    return catalog


def _emit_report(report: VerificationReport, as_json: bool, out) -> int:
    """Shared report emitter: JSON or text, exit 0/1 by ``report.ok``."""
    print(report.render_json() if as_json else report.render_text(), file=out)
    return 0 if report.ok else 1


def _parse_error_report(error: ParseError) -> VerificationReport:
    """Wrap a :class:`ParseError` as a one-finding source report."""
    report = VerificationReport(subject="source", rules_run=["parse-error"])
    message = str(error).splitlines()[0]
    location = f" (line {error.line}, column {error.column})"
    if error.line and message.endswith(location):
        message = message[: -len(location)]
    report.add(
        SourceDiagnostic(
            rule="parse-error",
            severity=Severity.ERROR,
            path="root",
            message=message,
            line=error.line,
            column=error.column,
            excerpt=error.excerpt,
        )
    )
    return report


def build_verify_parser(command: str) -> argparse.ArgumentParser:
    """The argument parser for the static-analysis subcommands."""
    if command == "check":
        description = (
            "Semantically analyze a query text without running it: name "
            "resolution, schema/type inference, operator signatures, and "
            "span/scope lints, each finding a stable SEM* code with "
            "line:col and a caret excerpt."
        )
    elif command == "lint":
        description = (
            "Statically verify a query graph: scope closure (Prop 2.1), "
            "span propagation (Sec 3.2 Step 2) and schema flow (Sec 2.2)."
        )
    else:
        description = (
            "Optimize a query and verify the full pipeline: the query "
            "rules plus rewrite legality (Prop 3.1), cache finiteness "
            "(Thm 3.1) and cost sanity (Sec 4.1) of the chosen plan."
        )
    parser = argparse.ArgumentParser(
        prog=f"repro {command}",
        description=description,
        epilog=_EXIT_CODE_HELP,
    )
    parser.add_argument("query", help="query text to analyze")
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=FILE[:POSCOL]",
        help="register a CSV file as a base sequence (repeatable)",
    )
    if command != "check":
        parser.add_argument(
            "--span",
            metavar="START:END",
            help="evaluation span (default: the query's own)",
        )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    return parser


def build_partition_check_parser() -> argparse.ArgumentParser:
    """The argument parser for ``repro partition-check``."""
    parser = argparse.ArgumentParser(
        prog="repro partition-check",
        description=(
            "Certify a query's plan as parallel-decomposable: derive its "
            "partitioning contract (pointwise / windowed / order-sensitive "
            "/ blocking), compute exact halo widths per cut, and verify "
            "the resulting certificate through the independent checker. "
            "Uncertifiable plans are rejected with typed PART* findings."
        ),
        epilog=_EXIT_CODE_HELP,
    )
    parser.add_argument("query", help="query text to certify")
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=FILE[:POSCOL]",
        help="register a CSV file as a base sequence (repeatable)",
    )
    parser.add_argument(
        "--span",
        metavar="START:END",
        help="evaluation span (default: the query's own)",
    )
    parser.add_argument(
        "--parts",
        default="2,3,8",
        metavar="N[,N...]",
        help="partition counts to certify (default 2,3,8)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report (plus contract and certificates) as JSON",
    )
    parser.add_argument(
        "--cert-out",
        metavar="FILE",
        help="write the issued certificates to this file as a JSON array",
    )
    return parser


def _parse_parts(spec: str) -> list[int]:
    """Parse the ``--parts`` comma list; failures are usage errors."""
    try:
        parts = [int(piece) for piece in spec.split(",") if piece.strip()]
    except ValueError:
        raise _UsageError(
            f"--parts needs comma-separated integers, got {spec!r}"
        ) from None
    if not parts or any(count < 1 for count in parts):
        raise _UsageError(
            f"--parts needs positive partition counts, got {spec!r}"
        )
    return parts


def _partition_check_main(argv: PySequence[str], out) -> int:
    """Run ``repro partition-check``: prove a plan parallel-decomposable."""
    from repro.analysis.partition import check_certificate, derive_contract

    args = build_partition_check_parser().parse_args(argv)
    try:
        catalog = _load_catalog(args.load)
        span = _parse_span(args.span)
        parts_list = _parse_parts(args.parts)
    except _UsageError as error:
        print(f"error: {error}", file=out)
        return 2
    try:
        query = compile_query(args.query, catalog)
    except SemanticError as error:
        report = VerificationReport(
            subject="source", rules_run=["semantic-analysis"]
        )
        report.diagnostics.extend(error.diagnostics)
        return _emit_report(report, args.json, out)
    except ParseError as error:
        return _emit_report(_parse_error_report(error), args.json, out)
    try:
        optimized = optimize(query, catalog=catalog, span=span).plan
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1

    counters = PartitionCounters()
    contract = derive_contract(optimized)
    report = VerificationReport(subject="partition")
    certificates = []
    for parts in parts_list:
        certificate, part_report = analyze_partition(
            optimized, parts, counters=counters
        )
        for rule in part_report.rules_run:
            if rule not in report.rules_run:
                report.rules_run.append(rule)
        for diagnostic in part_report.diagnostics:
            if diagnostic not in report.diagnostics:
                report.add(diagnostic)
        if certificate is not None:
            # The prover's output is only trusted after the independent
            # checker re-verifies it — the same discipline the future
            # parallel engine will follow.
            check = check_certificate(optimized, certificate, counters=counters)
            for diagnostic in check.diagnostics:
                if diagnostic not in report.diagnostics:
                    report.add(diagnostic)
            certificates.append(certificate)

    if args.cert_out:
        try:
            with open(args.cert_out, "w", encoding="utf-8") as handle:
                json.dump(
                    [certificate.to_dict() for certificate in certificates],
                    handle,
                    indent=2,
                )
        except OSError as error:
            print(f"error: --cert-out {args.cert_out}: {error}", file=out)
            return 2

    if args.json:
        payload = report.to_dict()
        payload["contract"] = contract.to_dict()
        payload["certificates"] = [
            certificate.to_dict() for certificate in certificates
        ]
        print(json.dumps(payload, indent=2), file=out)
        return 0 if report.ok else 1

    print(report.render_text(), file=out)
    halo = f"halo(below={contract.halo_below}, above={contract.halo_above})"
    print(f"contract: {contract.kind} {halo}", file=out)
    for certificate in certificates:
        cuts = ", ".join(str(cut) for cut in certificate.cut_points)
        print(
            f"certified parts={certificate.parts} over "
            f"{certificate.root_span}: cuts [{cuts}]",
            file=out,
        )
    registry = MetricsRegistry()
    registry.attach("partition", counters)
    print("metrics:", file=out)
    print(registry.render(indent="  "), file=out)
    return 0 if report.ok else 1


def build_effects_check_parser() -> argparse.ArgumentParser:
    """The argument parser for ``repro effects-check``."""
    parser = argparse.ArgumentParser(
        prog="repro effects-check",
        description=(
            "Certify a query's plan expressions as effect-safe: derive a "
            "per-expression EffectSpec (purity, determinism, escaping "
            "exceptions, null-strictness, value domain), emit an "
            "EffectCertificate, and re-verify it through the independent "
            "checker. Plans containing expressions outside the modeled "
            "language are refused with typed EFX* findings."
        ),
        epilog=_EXIT_CODE_HELP,
    )
    parser.add_argument("query", help="query text to certify")
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=FILE[:POSCOL]",
        help="register a CSV file as a base sequence (repeatable)",
    )
    parser.add_argument(
        "--span",
        metavar="START:END",
        help="evaluation span (default: the query's own)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report (plus the certificate) as JSON",
    )
    parser.add_argument(
        "--cert-out",
        metavar="FILE",
        help="write the issued certificate to this file as JSON",
    )
    return parser


def _effects_check_main(argv: PySequence[str], out) -> int:
    """Run ``repro effects-check``: certify a plan's expression effects."""
    from repro.analysis.effects import (
        EffectCounters,
        analyze_effects,
        check_effect_certificate,
    )

    args = build_effects_check_parser().parse_args(argv)
    try:
        catalog = _load_catalog(args.load)
        span = _parse_span(args.span)
    except _UsageError as error:
        print(f"error: {error}", file=out)
        return 2
    try:
        query = compile_query(args.query, catalog)
    except SemanticError as error:
        report = VerificationReport(
            subject="source", rules_run=["semantic-analysis"]
        )
        report.diagnostics.extend(error.diagnostics)
        return _emit_report(report, args.json, out)
    except ParseError as error:
        return _emit_report(_parse_error_report(error), args.json, out)
    try:
        optimized = optimize(query, catalog=catalog, span=span).plan
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1

    counters = EffectCounters()
    certificate, report = analyze_effects(optimized, counters=counters)
    if certificate is not None:
        # The prover's output is only trusted after the independent
        # checker re-verifies it — the same discipline the batch
        # codegen's metadata consumers follow.
        check = check_effect_certificate(optimized, certificate, counters=counters)
        for diagnostic in check.diagnostics:
            if diagnostic not in report.diagnostics:
                report.add(diagnostic)

    if args.cert_out:
        if certificate is None:
            print(
                f"error: --cert-out {args.cert_out}: no certificate was "
                "issued (the plan was refused)",
                file=out,
            )
            return 1
        try:
            with open(args.cert_out, "w", encoding="utf-8") as handle:
                handle.write(certificate.to_json())
        except OSError as error:
            print(f"error: --cert-out {args.cert_out}: {error}", file=out)
            return 2

    if args.json:
        payload = report.to_dict()
        payload["certificate"] = (
            certificate.to_dict() if certificate is not None else None
        )
        print(json.dumps(payload, indent=2), file=out)
        return 0 if report.ok else 1

    print(report.render_text(), file=out)
    if certificate is not None:
        safe = len(certificate.vectorization_safe_sites)
        print(
            f"certified {len(certificate.sites)} expression site(s); "
            f"{safe} vectorization-safe",
            file=out,
        )
        for site in certificate.sites:
            print(f"  {site.path}: {site.expression} -> {site.spec.describe()}", file=out)
    registry = MetricsRegistry()
    registry.attach("effects", counters)
    print("metrics:", file=out)
    print(registry.render(indent="  "), file=out)
    return 0 if report.ok else 1


def build_trace_parser() -> argparse.ArgumentParser:
    """The argument parser for ``repro trace``."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Run a query with the span tracer on and export the trace: "
            "optimizer steps, one span per physical operator with "
            "attributed rows/time/pages, and fault/retry/guard events."
        ),
        epilog=(
            "The chrome format loads directly in Perfetto "
            "(https://ui.perfetto.dev) or about://tracing; jsonl is the "
            "line-oriented span format for scripts."
        ),
    )
    parser.add_argument("query", help="query text to run under the tracer")
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=FILE[:POSCOL]",
        help="register a CSV file as a base sequence (repeatable)",
    )
    parser.add_argument(
        "--span",
        metavar="START:END",
        help="evaluation span (default: the query's own)",
    )
    add_exec_options(parser)
    parser.add_argument(
        "--out",
        required=True,
        metavar="FILE",
        help="write the trace to this file",
    )
    parser.add_argument(
        "--format",
        choices=TRACE_FORMATS,
        default="chrome",
        help="trace serialization (default chrome)",
    )
    parser.add_argument(
        "--with-metrics",
        action="store_true",
        help="embed the run's execution counters in the exported trace "
        "(a 'metrics' record in jsonl, otherData.metrics in chrome)",
    )
    return parser


def _trace_main(argv: PySequence[str], out) -> int:
    """Run ``repro trace``: execute under the tracer and export."""
    args = build_trace_parser().parse_args(argv)
    try:
        catalog = _load_catalog(args.load)
        span = _parse_span(args.span)
    except _UsageError as error:
        print(f"error: {error}", file=out)
        return 2
    try:
        query = compile_query(args.query, catalog)
        tracer = Tracer()
        result = run_query_detailed(
            query,
            span=span,
            catalog=catalog,
            tracer=tracer,
            **exec_options(args),
        )
        metrics = None
        if args.with_metrics:
            registry = MetricsRegistry()
            registry.attach("execution", result.counters)
            metrics = registry.collect()
        write_trace(tracer, args.out, fmt=args.format, metrics=metrics)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1
    operators = len(tracer.operator_spans())
    with_metrics = " +metrics" if args.with_metrics else ""
    print(
        f"traced {len(result.output)} records: {len(tracer.spans)} spans "
        f"({operators} operator spans) -> {args.out} "
        f"[{args.format}{with_metrics}]",
        file=out,
    )
    if args.format == "chrome":
        print(
            "load it in Perfetto (https://ui.perfetto.dev) or about://tracing",
            file=out,
        )
    return 0


def _add_profile_run_options(parser: argparse.ArgumentParser) -> None:
    """Run-shape knobs shared by ``repro profile`` and ``repro stats``."""
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=FILE[:POSCOL]",
        help="register a CSV file as a base sequence (repeatable)",
    )
    parser.add_argument(
        "--span",
        metavar="START:END",
        help="evaluation span (default: the query's own)",
    )
    add_exec_options(parser)
    parser.add_argument(
        "--repeat",
        type=int,
        default=8,
        metavar="N",
        help="run the query this many times (default 8)",
    )
    parser.add_argument(
        "--op-sample",
        type=int,
        default=0,
        metavar="N",
        help="trace every Nth run for per-operator self-times "
        "(default 0: never)",
    )


def build_profile_parser() -> argparse.ArgumentParser:
    """The argument parser for ``repro profile``."""
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description=(
            "Run a query repeatedly under the flight recorder and report "
            "the captured per-run profiles: duration percentiles from the "
            "log-scale histograms, rows/pages/retry/fallback counters, "
            "and — for traced runs — top operator self-times."
        ),
        epilog=(
            "exit status: 0 = at least one run completed; 1 = every run "
            "failed (failures are still profiled); 2 = usage errors."
        ),
    )
    parser.add_argument("query", help="query text to profile")
    _add_profile_run_options(parser)
    parser.add_argument(
        "--capacity",
        type=int,
        default=PROFILE_CAPACITY,
        metavar="N",
        help=f"flight-recorder ring capacity (default {PROFILE_CAPACITY})",
    )
    parser.add_argument(
        "--slow-threshold-ms",
        type=float,
        metavar="MS",
        help="mark runs over this duration slow and promote the query's "
        "next run to full span capture",
    )
    parser.add_argument(
        "--slow",
        type=int,
        default=3,
        metavar="N",
        help="list the N slowest profiled runs (default 3; 0 = none)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit summary, profiles, and histograms as one JSON object",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also write the retained profiles to FILE as JSON Lines",
    )
    return parser


def _format_profile_row(profile) -> str:
    """One table row for the ``repro profile`` slowest listing."""
    flags = "".join(
        label
        for label, on in (
            ("[slow]", profile.slow),
            ("[traced]", profile.traced),
        )
        if on
    )
    line = (
        f"{profile.fingerprint}  {profile.duration_us / 1000.0:>10.3f}ms  "
        f"{profile.records_emitted:>8} rows  {profile.pages_read:>6} pages"
    )
    if flags:
        line += f"  {flags}"
    if profile.error is not None:
        line += f"  error={profile.error}"
    return line


def _profile_main(argv: PySequence[str], out) -> int:
    """Run ``repro profile``: repeated runs through the flight recorder."""
    args = build_profile_parser().parse_args(argv)
    try:
        catalog = _load_catalog(args.load)
        span = _parse_span(args.span)
        if args.repeat < 1:
            raise _UsageError(f"--repeat must be >= 1, got {args.repeat}")
        try:
            recorder = FlightRecorder(
                args.capacity,
                slow_threshold_us=(
                    args.slow_threshold_ms * 1000.0
                    if args.slow_threshold_ms is not None
                    else None
                ),
                op_sample=args.op_sample,
            )
        except ReproError as error:
            raise _UsageError(str(error)) from error
    except _UsageError as error:
        print(f"error: {error}", file=out)
        return 2
    try:
        query = compile_query(args.query, catalog)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1

    failures = 0
    last_error: Optional[ReproError] = None
    for _ in range(args.repeat):
        try:
            run_query_detailed(
                query,
                span=span,
                catalog=catalog,
                recorder=recorder,
                **exec_options(args),
            )
        except ReproError as error:
            # Typed failures are profiled by the engine before the raise;
            # keep going so the error rate shows up in the summary.
            failures += 1
            last_error = error

    profiles = recorder.profiles()
    records = [profile.to_dict() for profile in profiles]
    for record in records:
        validate_profile_record(record)

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(profiles_to_jsonl(profiles))
        except OSError as error:
            print(f"error: --out {args.out}: {error}", file=out)
            return 2

    if args.json:
        payload = {
            "version": PROFILE_FORMAT_VERSION,
            "summary": recorder.summary(),
            "profiles": records,
            "histograms": recorder.hists.as_dict(),
        }
        print(json.dumps(payload, indent=2), file=out)
        return 1 if failures == args.repeat else 0

    summary = recorder.summary()
    print(
        f"profiled {summary['recorded']} run(s): "
        f"{summary['errors']} error(s), {summary['slow']} slow, "
        f"{summary['traced']} traced, {summary['evicted']} evicted",
        file=out,
    )
    duration = summary["duration_us"]
    if duration["count"]:
        print(
            "duration: "
            + "  ".join(
                f"{key} {duration[key] / 1000.0:.3f}ms"
                for key in ("p50", "p90", "p99", "max")
            ),
            file=out,
        )
    if args.slow and profiles:
        print(f"slowest {min(args.slow, len(profiles))}:", file=out)
        for profile in recorder.slowest(args.slow):
            print(f"  {_format_profile_row(profile)}", file=out)
    if args.out:
        print(f"wrote {len(profiles)} profile(s) -> {args.out}", file=out)
    if failures == args.repeat:
        assert last_error is not None
        print(f"error: every run failed: {last_error}", file=out)
        return 1
    return 0


def build_stats_parser() -> argparse.ArgumentParser:
    """The argument parser for ``repro stats``."""
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description=(
            "Run a query repeatedly and render the full metrics block: "
            "execution counters plus the flight recorder's log-scale "
            "histograms (count/mean/min/max and p50/p90/p99) for query "
            "durations, rows, pages, and per-partition lane times."
        ),
        epilog=(
            "exit status: 0 = at least one run completed; 1 = every run "
            "failed; 2 = usage errors."
        ),
    )
    parser.add_argument("query", help="query text to measure")
    _add_profile_run_options(parser)
    return parser


def _stats_main(argv: PySequence[str], out) -> int:
    """Run ``repro stats``: histogram-backed percentile rendering."""
    args = build_stats_parser().parse_args(argv)
    try:
        catalog = _load_catalog(args.load)
        span = _parse_span(args.span)
        if args.repeat < 1:
            raise _UsageError(f"--repeat must be >= 1, got {args.repeat}")
        try:
            recorder = FlightRecorder(op_sample=args.op_sample)
        except ReproError as error:
            raise _UsageError(str(error)) from error
    except _UsageError as error:
        print(f"error: {error}", file=out)
        return 2
    try:
        query = compile_query(args.query, catalog)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1

    failures = 0
    last_error: Optional[ReproError] = None
    result = None
    for _ in range(args.repeat):
        try:
            result = run_query_detailed(
                query,
                span=span,
                catalog=catalog,
                recorder=recorder,
                **exec_options(args),
            )
        except ReproError as error:
            failures += 1
            last_error = error
    if result is None:
        assert last_error is not None
        print(f"error: every run failed: {last_error}", file=out)
        return 1

    registry = MetricsRegistry()
    registry.attach("execution", result.counters)
    registry.attach_histograms("flight", recorder.hists)
    print(
        f"stats over {args.repeat} run(s) "
        f"({len(result.output)} records per run):",
        file=out,
    )
    print(registry.render(indent="  "), file=out)
    return 0


def _check_main(argv: PySequence[str], out) -> int:
    """Run ``repro check``: the front-end semantic analyzer."""
    from repro.lang import analyze, render_diagnostics

    args = build_verify_parser("check").parse_args(argv)
    try:
        catalog = _load_catalog(args.load)
    except _UsageError as error:
        print(f"error: {error}", file=out)
        return 2
    try:
        result = analyze(args.query, catalog)
    except ParseError as error:
        return _emit_report(_parse_error_report(error), args.json, out)
    report = result.report
    if args.json:
        return _emit_report(report, True, out)
    header = (
        f"checked source: {len(report.rules_run)} rule(s), "
        f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)"
    )
    print(header, file=out)
    if report.diagnostics:
        print(render_diagnostics(args.query, report), file=out)
    if result.root is not None:
        stream = "yes" if result.sequential else "no"
        print(
            f"schema: {result.schema!r}  span: {result.span!r}  "
            f"stream-friendly: {stream}",
            file=out,
        )
    return 0 if report.ok else 1


def _verify_main(command: str, argv: PySequence[str], out) -> int:
    """Run ``repro lint`` or ``repro verify-plan``."""
    args = build_verify_parser(command).parse_args(argv)
    try:
        catalog = _load_catalog(args.load)
        span = _parse_span(args.span)
    except _UsageError as error:
        print(f"error: {error}", file=out)
        return 2
    try:
        query = compile_query(args.query, catalog)
    except SemanticError as error:
        report = VerificationReport(
            subject="source", rules_run=["semantic-analysis"]
        )
        report.diagnostics.extend(error.diagnostics)
        return _emit_report(report, args.json, out)
    except ParseError as error:
        return _emit_report(_parse_error_report(error), args.json, out)
    try:
        if command == "verify-plan":
            report = verify_optimization(optimize(query, catalog=catalog, span=span))
        else:
            report = verify_query(query, catalog=catalog, span=span)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1
    return _emit_report(report, args.json, out)


def main(argv: Optional[PySequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "check":
        return _check_main(arguments[1:], out)
    if arguments and arguments[0] in ("lint", "verify-plan"):
        return _verify_main(arguments[0], arguments[1:], out)
    if arguments and arguments[0] == "trace":
        return _trace_main(arguments[1:], out)
    if arguments and arguments[0] == "profile":
        return _profile_main(arguments[1:], out)
    if arguments and arguments[0] == "stats":
        return _stats_main(arguments[1:], out)
    if arguments and arguments[0] == "partition-check":
        return _partition_check_main(arguments[1:], out)
    if arguments and arguments[0] == "effects-check":
        return _effects_check_main(arguments[1:], out)
    if arguments and arguments[0] == "run":
        # "repro run ..." is an explicit alias for the default command.
        arguments = arguments[1:]
    parser = build_parser()
    args = parser.parse_args(arguments)

    try:
        catalog = Catalog()
        stored: list[StoredSequence] = []
        for spec in args.load:
            name, path, poscol = _parse_load(spec)
            sequence = read_csv(path, position_column=poscol)
            if args.fault_plan is not None:
                # Every sequence gets its own plan so fault traces stay
                # per-disk; the shared spec keeps them one-seed-reproducible.
                try:
                    plan = FaultPlan.parse(args.fault_plan)
                except StorageError as error:
                    raise _UsageError(f"--fault-plan: {error}") from error
                faulty = StoredSequence.from_sequence(
                    name, sequence, fault_plan=plan
                )
                stored.append(faulty)
                sequence = faulty
            catalog.register(name, sequence)
            info = catalog.get(name).info
            print(
                f"loaded {name}: span {info.span}, density {info.density:.3f}",
                file=out,
            )

        guard = None
        if (
            args.timeout is not None
            or args.max_pages is not None
            or args.max_records is not None
        ):
            guard = QueryGuard(
                timeout=args.timeout,
                max_pages=args.max_pages,
                max_records=args.max_records,
            )

        query = compile_query(args.query, catalog)
        span = _parse_span(args.span)
        result = run_query_detailed(
            query,
            span=span,
            catalog=catalog,
            guard=guard,
            analyze=args.analyze,
            **exec_options(args),
        )

        if args.analyze:
            print("\n" + result.render_analyze(), file=out)
        elif args.explain:
            print("\n" + result.optimization.explain(), file=out)
        if args.explain:
            if args.mode == "batch":
                mode_line = (
                    f"execution mode: batch (columnar, "
                    f"{args.batch_size} positions/batch, "
                    f"{result.counters.batches_built} batches built)"
                )
            else:
                mode_line = "execution mode: row (record-at-a-time)"
            print(mode_line, file=out)
            if args.parallel != "off":
                lanes = ExecOptions(workers=args.workers).lanes
                print(
                    f"parallel: {args.parallel} ({lanes} {args.pool} worker(s), "
                    f"{result.counters.partitions_executed} partition(s) "
                    f"executed, {result.counters.parallel_fallbacks} "
                    f"fallback(s))",
                    file=out,
                )
            if guard is not None:
                print(f"guard: {guard!r}", file=out)
            # One source of truth for every counter: the metrics
            # registry renders the execution, storage, and guard numbers
            # as a stable-ordered, golden-test-diffable block.
            registry = MetricsRegistry()
            registry.attach("execution", result.counters)
            for seq in stored:
                registry.attach(f"storage.{seq.name}", seq.counters)
            if guard is not None:
                registry.attach_gauges("guard", guard.metrics)
            print("metrics:", file=out)
            print(registry.render(indent="  "), file=out)

        if args.naive:
            reference = query.run_naive(result.optimization.plan.output_span)
            if reference.to_pairs() != result.output.to_pairs():
                print("MISMATCH against the naive reference!", file=out)
                return 2
            print("naive reference evaluation agrees.", file=out)

        names = query.schema.names
        print(f"\n{'position':>10}  " + "  ".join(names), file=out)
        shown = 0
        for position, record in result.output.iter_nonnull():
            if args.limit and shown >= args.limit:
                remaining = len(result.output) - shown
                print(f"... ({remaining} more rows)", file=out)
                break
            print(
                f"{position:>10}  "
                + "  ".join(str(value) for value in record.values),
                file=out,
            )
            shown += 1
        print(f"\n{len(result.output)} records over {result.output.span}", file=out)
        return 0
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
