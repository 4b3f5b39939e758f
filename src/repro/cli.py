"""Command-line interface: run sequence queries over CSV files.

Examples (a leading ``run`` is accepted and ignored)::

    python -m repro --load prices=prices.csv \\
        "window(select(prices, volume > 4000), avg, close, 3)"

    python -m repro run --load v=volcanos.csv --load e=quakes.csv --analyze \\
        "project(select(compose(v as v, previous(e) as e), e_strength > 7.0), v_name)"

``--analyze`` runs the query with the span tracer on and prints the
EXPLAIN ANALYZE tree: each operator's estimated cost next to its actual
time, rows, and pages, plus the estimate/actual error factor.

Every subcommand is a row of :data:`SUBCOMMANDS` — its description
there is its ``--help`` text, and ``repro --help`` lists them — over
one shared front half, :func:`_prepare`: ``--load`` specs → catalog,
``--span`` → span, query text → query → optimized plan, as far as the
subcommand needs.

Static analysis (``check``, ``lint``, ``verify-plan``,
``partition-check``, ``effects-check``) shares one JSON report shape
and one exit-code contract (:data:`_EXIT_CODE_HELP`; :func:`main` is
where failures become exit codes): a bad query text is itself a finding
— a ``parse-error`` diagnostic, or the analyzer's SEM* codes.
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence as PySequence

from repro.algebra import Query
from repro.errors import ParseError, ReproError, SemanticError, StorageError
from repro.analysis import (
    Severity,
    SourceDiagnostic,
    VerificationReport,
    verify_optimization,
    verify_query,
)
from repro.analysis.effects import (
    EffectCounters,
    analyze_effects,
    check_effect_certificate,
)
from repro.analysis.partition import (
    PartitionCounters,
    analyze_partition,
    check_certificate,
    derive_contract,
)
from repro.catalog import Catalog
from repro.execution import DEFAULT_BATCH_SIZE, ExecOptions, QueryGuard, run_query_detailed
from repro.io import read_csv
from repro.lang import analyze, compile_query, render_diagnostics
from repro.model import Span
from repro.model.batch import column_to_list
from repro.obs import (
    PROFILE_FORMAT_VERSION,
    TRACE_FORMATS,
    FlightRecorder,
    Tracer,
    metrics,
    profiles_to_jsonl,
    validate_profile_record,
    write_trace,
)
from repro.obs.profile import DEFAULT_CAPACITY as PROFILE_CAPACITY
from repro.optimizer import optimize
from repro.optimizer.optimizer import OptimizationResult
from repro.storage import FAULT_KINDS, FaultPlan, StoredSequence

#: --help epilog shared by every static-analysis subcommand.
_EXIT_CODE_HELP = (
    "exit status: 0 = no error-severity findings; 1 = error findings "
    "(including parse errors); 2 = usage errors (bad --load/--span or "
    "unreadable file)."
)

#: --help epilog shared by ``profile`` and ``stats``.
_REPEAT_EXIT_HELP = (
    "exit status: 0 = at least one run completed; 1 = every run failed "
    "(failures are still profiled); 2 = usage errors."
)


class _UsageError(ReproError):
    """A bad command-line argument (exit code 2; 1 under ``run``)."""


# -- flags declared once -------------------------------------------------------

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


def _add_inputs(
    parser: argparse.ArgumentParser, query_help: str, span: bool = True
) -> None:
    """The query text, ``--load`` and ``--span``: what :func:`_prepare` reads."""
    parser.add_argument("query", help=query_help)
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=FILE[:POSCOL]",
        help="register a CSV file as a base sequence (repeatable); "
        "POSCOL defaults to 'position'",
    )
    if span:
        parser.add_argument(
            "--span",
            metavar="START:END",
            help="evaluation span, e.g. 200:350 (default: the query's own)",
        )


def _add_json(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--json", action="store_true", help=f"emit {what}")


def _add_cert_out(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--cert-out", metavar="FILE", help=f"write the issued {what}"
    )


def _add_repeat(parser: argparse.ArgumentParser) -> None:
    """Everything ``repro stats`` takes; ``repro profile`` adds to it."""
    _add_inputs(parser, "query text to run repeatedly")
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


# -- the shared front half -----------------------------------------------------


def _parse_load(spec: str) -> tuple[str, str, str]:
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
        raise _UsageError(f"--span needs START:END integers, got {spec!r}") from None


def _load_catalog(args: argparse.Namespace, out) -> Catalog:
    """Build a catalog from ``--load`` specs; failures are usage errors.

    Under ``run`` each loaded sequence is announced, and ``--fault-plan``
    (a flag only ``run`` has) stores it on a fault-injecting disk.
    """
    fault_spec = getattr(args, "fault_plan", None)
    catalog = Catalog()
    for spec in args.load:
        name, path, poscol = _parse_load(spec)
        try:
            sequence = read_csv(path, position_column=poscol)
        except (ReproError, OSError) as error:
            raise _UsageError(f"--load {spec}: {error}") from error
        if fault_spec is not None:
            # Every sequence gets its own plan so fault traces stay
            # per-disk; the shared spec keeps them one-seed-reproducible.
            try:
                plan = FaultPlan.parse(fault_spec)
            except StorageError as error:
                raise _UsageError(f"--fault-plan: {error}") from error
            sequence = StoredSequence.from_sequence(name, sequence, fault_plan=plan)
        catalog.register(name, sequence)
        if args.command == "run":
            info = catalog.get(name).info
            print(
                f"loaded {name}: span {info.span}, density {info.density:.3f}",
                file=out,
            )
    return catalog


def _emit_report(report: VerificationReport, as_json: bool, out) -> int:
    """Shared report emitter: JSON or text, exit 0/1 by ``report.ok``."""
    print(report.render_json() if as_json else report.render_text(), file=out)
    return 0 if report.ok else 1


def _compile_error_report(error: ParseError) -> VerificationReport:
    """A compile failure as a ``source`` report.

    A :class:`SemanticError` already carries its SEM* diagnostics; a
    plain :class:`ParseError` becomes one ``parse-error`` finding.
    """
    if isinstance(error, SemanticError):
        report = VerificationReport(subject="source", rules_run=["semantic-analysis"])
        report.diagnostics.extend(error.diagnostics)
        return report
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


class _Prepared(NamedTuple):
    """What :func:`_prepare` built; later stages are ``None`` if not asked for."""

    catalog: Catalog
    span: Optional[Span]
    query: Optional[Query] = None
    optimization: Optional[OptimizationResult] = None


def _prepare(args: argparse.Namespace, out, upto: str) -> _Prepared:
    """The front half every subcommand shares, as far as ``upto``.

    ``"catalog"``: ``--load`` → catalog and ``--span`` → span;
    ``"query"``: plus query text → :class:`Query`; ``"plan"``: plus the
    optimizer.  Failures leave as exceptions that :func:`main` maps onto
    the exit-code contract: :class:`_UsageError` for bad
    ``--load``/``--span``, :class:`ParseError` (and its
    :class:`SemanticError` subclass) for a bad query text, any other
    :class:`ReproError` from the optimizer.
    """
    catalog = _load_catalog(args, out)
    span = _parse_span(getattr(args, "span", None))
    if upto == "catalog":
        return _Prepared(catalog, span)
    query = compile_query(args.query, catalog)
    if upto == "query":
        return _Prepared(catalog, span, query)
    return _Prepared(catalog, span, query, optimize(query, catalog=catalog, span=span))


def _write_file(flag: str, path: str, text: str) -> None:
    """Write an output artifact; an unwritable path is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as error:
        raise _UsageError(f"{flag} {path}: {error}") from error


def _print_metrics(out, header: str = "metrics:", **sources) -> None:
    """A metrics block: ``header``, then every counter of ``sources``, name-sorted."""
    print(header, file=out)
    print(metrics.render(metrics.collect(**sources), indent="  "), file=out)


# -- run -----------------------------------------------------------------------


#: The ``QueryGuard`` budgets ``run`` exposes: name → (type, metavar, help).
_GUARD_FLAGS = {
    "timeout": (float, "SECONDS", "this much wall-clock time"),
    "max_pages": (int, "N", "reading more than N disk pages"),
    "max_records": (int, "N", "emitting more than N records"),
}


def _run_flags(parser: argparse.ArgumentParser) -> None:
    _add_inputs(parser, "query text, e.g. \"window(prices, avg, close, 6)\"")
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
    for name, (kind, metavar, what) in _GUARD_FLAGS.items():
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=kind,
            metavar=metavar,
            help=f"abort the query after {what}",
        )
    parser.add_argument(
        "--fault-plan",
        metavar="SPEC",
        help="store loaded sequences on a fault-injecting disk, e.g. "
        "'seed=7,transient=0.05,corrupt=0.01' "
        f"(rates for {', '.join(FAULT_KINDS)}; plus latency_ticks)",
    )


def _run_main(args: argparse.Namespace, out) -> int:
    """Run ``repro [run]``: execute the query and print the answer."""
    front = _prepare(args, out, upto="query")
    limits = {name: getattr(args, name) for name in _GUARD_FLAGS}
    guard = QueryGuard(**limits) if any(v is not None for v in limits.values()) else None
    result = run_query_detailed(
        front.query,
        span=front.span,
        catalog=front.catalog,
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
        sources = {"execution": result.counters}
        for entry in front.catalog.entries():
            if isinstance(entry.sequence, StoredSequence):  # under --fault-plan
                sources[f"storage.{entry.name}"] = entry.sequence.counters
        if guard is not None:
            print(f"guard: {guard!r}", file=out)
            sources["guard"] = guard.metrics()
        _print_metrics(out, **sources)

    if args.naive:
        reference = front.query.run_naive(result.optimization.plan.output_span)
        if reference.to_pairs() != result.output.to_pairs():
            print("MISMATCH against the naive reference!", file=out)
            return 2
        print("naive reference evaluation agrees.", file=out)

    names = front.query.schema.names
    print(f"\n{'position':>10}  " + "  ".join(names), file=out)
    # Read the answer's column runs, cut to --limit before any cell is
    # boxed: printing ten rows builds no Record and converts ten cells
    # per column.
    total = len(result.output)
    limit = min(args.limit or total, total)
    shown = 0
    for positions, columns in result.output.column_runs(None, DEFAULT_BATCH_SIZE):
        take = min(len(positions), limit - shown)
        cells = [column_to_list(column[:take]) for column in columns]
        for position, *values in zip(positions[:take], *cells):
            print(f"{position:>10}  " + "  ".join(map(str, values)), file=out)
        shown += take
        if shown >= limit:  # before the source is asked for another run
            break
    if shown < total:
        print(f"... ({total - shown} more rows)", file=out)
    print(f"\n{total} records over {result.output.span}", file=out)
    return 0


# -- check / lint / verify-plan ------------------------------------------------


def _verify_flags(parser: argparse.ArgumentParser, span: bool = True) -> None:
    _add_inputs(parser, "query text to analyze", span=span)
    _add_json(parser, "the report as JSON instead of text")


def _check_main(args: argparse.Namespace, out) -> int:
    """Run ``repro check``: the front-end semantic analyzer."""
    result = analyze(args.query, _prepare(args, out, upto="catalog").catalog)
    report = result.report
    if args.json:
        return _emit_report(report, True, out)
    print(
        f"checked source: {len(report.rules_run)} rule(s), "
        f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)",
        file=out,
    )
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


def _lint_main(args: argparse.Namespace, out) -> int:
    """Run ``repro lint``: the logical-graph rules."""
    front = _prepare(args, out, upto="query")
    report = verify_query(front.query, catalog=front.catalog, span=front.span)
    return _emit_report(report, args.json, out)


def _verify_plan_main(args: argparse.Namespace, out) -> int:
    """Run ``repro verify-plan``: the query rules plus the plan rules."""
    front = _prepare(args, out, upto="plan")
    return _emit_report(verify_optimization(front.optimization), args.json, out)


# -- partition-check / effects-check -------------------------------------------


def _partition_check_flags(parser: argparse.ArgumentParser) -> None:
    _add_inputs(parser, "query text to certify")
    parser.add_argument(
        "--parts",
        default="2,3,8",
        metavar="N[,N...]",
        help="partition counts to certify (default 2,3,8)",
    )
    _add_json(parser, "the report (plus contract and certificates) as JSON")
    _add_cert_out(parser, "certificates to this file as a JSON array")


def _parse_parts(spec: str) -> list[int]:
    """Parse the ``--parts`` comma list; failures are usage errors."""
    try:
        parts = [int(piece) for piece in spec.split(",") if piece.strip()]
    except ValueError:
        raise _UsageError(
            f"--parts needs comma-separated integers, got {spec!r}"
        ) from None
    if not parts or any(count < 1 for count in parts):
        raise _UsageError(f"--parts needs positive partition counts, got {spec!r}")
    return parts


def _emit_verdict(
    args: argparse.Namespace,
    out,
    report: VerificationReport,
    extra: dict,
    lines: list[str],
    **counters,
) -> int:
    """The tail of both ``*-check`` subcommands.

    ``--json``: the report plus the ``extra`` keys; otherwise the report
    text, the summary ``lines`` and the metrics block of ``counters``.
    """
    if args.json:
        print(json.dumps({**report.to_dict(), **extra}, indent=2), file=out)
    else:
        print(report.render_text(), file=out)
        for line in lines:
            print(line, file=out)
        _print_metrics(out, **counters)
    return 0 if report.ok else 1


def _merge_report(report: VerificationReport, other: VerificationReport) -> None:
    """Fold ``other``'s rules and findings into ``report``, without repeats."""
    for rule in other.rules_run:
        if rule not in report.rules_run:
            report.rules_run.append(rule)
    for diagnostic in other.diagnostics:
        if diagnostic not in report.diagnostics:
            report.add(diagnostic)


def _partition_check_main(args: argparse.Namespace, out) -> int:
    """Run ``repro partition-check``: prove a plan parallel-decomposable."""
    parts_list = _parse_parts(args.parts)
    optimized = _prepare(args, out, upto="plan").optimization.plan

    counters = PartitionCounters()
    contract = derive_contract(optimized)
    report = VerificationReport(subject="partition")
    certificates = []
    for parts in parts_list:
        certificate, part_report = analyze_partition(
            optimized, parts, counters=counters
        )
        _merge_report(report, part_report)
        if certificate is not None:
            # The prover's output is only trusted after the independent
            # checker re-verifies it — the same discipline the parallel
            # engine follows before it runs a partitioned plan.
            _merge_report(
                report, check_certificate(optimized, certificate, counters=counters)
            )
            certificates.append(certificate)

    payloads = [certificate.to_dict() for certificate in certificates]
    if args.cert_out:
        _write_file("--cert-out", args.cert_out, json.dumps(payloads, indent=2))

    halo = f"halo(below={contract.halo_below}, above={contract.halo_above})"
    lines = [f"contract: {contract.kind} {halo}"]
    for certificate in certificates:
        cuts = ", ".join(str(cut) for cut in certificate.cut_points)
        lines.append(
            f"certified parts={certificate.parts} over "
            f"{certificate.root_span}: cuts [{cuts}]"
        )
    extra = {"contract": contract.to_dict(), "certificates": payloads}
    return _emit_verdict(args, out, report, extra, lines, partition=counters)


def _effects_check_flags(parser: argparse.ArgumentParser) -> None:
    _add_inputs(parser, "query text to certify")
    _add_json(parser, "the report (plus the certificate) as JSON")
    _add_cert_out(parser, "certificate to this file as JSON")


def _effects_check_main(args: argparse.Namespace, out) -> int:
    """Run ``repro effects-check``: certify a plan's expression effects."""
    optimized = _prepare(args, out, upto="plan").optimization.plan

    counters = EffectCounters()
    certificate, report = analyze_effects(optimized, counters=counters)
    if certificate is not None:
        # The prover's output is only trusted after the independent
        # checker re-verifies it — the same discipline the batch
        # codegen's metadata consumers follow.
        _merge_report(
            report, check_effect_certificate(optimized, certificate, counters=counters)
        )

    if args.cert_out:
        if certificate is None:
            raise ReproError(
                f"--cert-out {args.cert_out}: no certificate was issued "
                "(the plan was refused)"
            )
        _write_file("--cert-out", args.cert_out, certificate.to_json())

    lines = []
    if certificate is not None:
        safe = len(certificate.vectorization_safe_sites)
        lines.append(
            f"certified {len(certificate.sites)} expression site(s); "
            f"{safe} vectorization-safe"
        )
        for site in certificate.sites:
            lines.append(f"  {site.path}: {site.expression} -> {site.spec.describe()}")
    extra = {"certificate": certificate.to_dict() if certificate is not None else None}
    return _emit_verdict(args, out, report, extra, lines, effects=counters)


# -- trace ---------------------------------------------------------------------


def _trace_flags(parser: argparse.ArgumentParser) -> None:
    _add_inputs(parser, "query text to run under the tracer")
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


def _trace_main(args: argparse.Namespace, out) -> int:
    """Run ``repro trace``: execute under the tracer and export."""
    front = _prepare(args, out, upto="query")
    tracer = Tracer()
    result = run_query_detailed(
        front.query,
        span=front.span,
        catalog=front.catalog,
        tracer=tracer,
        **exec_options(args),
    )
    embedded = metrics.collect(execution=result.counters) if args.with_metrics else None
    write_trace(tracer, args.out, fmt=args.format, metrics=embedded)
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


# -- profile / stats -----------------------------------------------------------


def _profile_flags(parser: argparse.ArgumentParser) -> None:
    _add_repeat(parser)
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
    _add_json(parser, "summary, profiles, and histograms as one JSON object")
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also write the retained profiles to FILE as JSON Lines",
    )


def _run_repeatedly(args: argparse.Namespace, out, **recorder_options):
    """``--repeat`` runs of the query through one :class:`FlightRecorder`.

    Returns ``(recorder, result, error)``: the last successful run's
    result (``None`` when every run failed) and the last typed failure.
    Typed failures are profiled by the engine before the raise; the loop
    keeps going so the error rate shows up in the summary.
    """
    if args.repeat < 1:
        raise _UsageError(f"--repeat must be >= 1, got {args.repeat}")
    try:
        recorder = FlightRecorder(op_sample=args.op_sample, **recorder_options)
    except ReproError as error:
        raise _UsageError(str(error)) from error
    front = _prepare(args, out, upto="query")
    result = last_error = None
    for _ in range(args.repeat):
        try:
            result = run_query_detailed(
                front.query,
                span=front.span,
                catalog=front.catalog,
                recorder=recorder,
                **exec_options(args),
            )
        except ReproError as error:
            last_error = error
    return recorder, result, last_error


def _format_profile_row(profile) -> str:
    """One table row for the ``repro profile`` slowest listing."""
    flags = ("[slow]" if profile.slow else "") + ("[traced]" if profile.traced else "")
    line = (
        f"{profile.fingerprint}  {profile.duration_us / 1000.0:>10.3f}ms  "
        f"{profile.records_emitted:>8} rows  {profile.pages_read:>6} pages"
    )
    if flags:
        line += f"  {flags}"
    if profile.error is not None:
        line += f"  error={profile.error}"
    return line


def _profile_main(args: argparse.Namespace, out) -> int:
    """Run ``repro profile``: repeated runs through the flight recorder."""
    threshold = args.slow_threshold_ms
    recorder, result, last_error = _run_repeatedly(
        args,
        out,
        capacity=args.capacity,
        slow_threshold_us=threshold * 1000.0 if threshold is not None else None,
    )
    profiles = recorder.profiles()
    records = [profile.to_dict() for profile in profiles]
    for record in records:
        validate_profile_record(record)
    if args.out:
        _write_file("--out", args.out, profiles_to_jsonl(profiles))

    summary = recorder.summary()
    if args.json:
        payload = {
            "version": PROFILE_FORMAT_VERSION,
            "summary": summary,
            "profiles": records,
            "histograms": recorder.hists.as_dict(),
        }
        print(json.dumps(payload, indent=2), file=out)
        return 1 if result is None else 0

    print(
        f"profiled {summary['recorded']} run(s): "
        f"{summary['errors']} error(s), {summary['slow']} slow, "
        f"{summary['traced']} traced, {summary['evicted']} evicted",
        file=out,
    )
    # No histogram at all when every run was refused before it started.
    duration = summary["duration_us"]
    if duration is not None and duration["count"]:
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
    if result is None:
        raise ReproError(f"every run failed: {last_error}")
    return 0


def _stats_main(args: argparse.Namespace, out) -> int:
    """Run ``repro stats``: histogram-backed percentile rendering."""
    recorder, result, last_error = _run_repeatedly(args, out)
    if result is None:
        raise ReproError(f"every run failed: {last_error}")
    header = f"stats over {args.repeat} run(s) ({len(result.output)} records per run):"
    _print_metrics(out, header, execution=result.counters, flight=recorder.hists)
    return 0


# -- dispatch ------------------------------------------------------------------


@dataclass(frozen=True)
class Subcommand:
    """One row of the CLI: its ``--help`` text, its flags, what it runs."""

    description: str
    add_flags: Callable[[argparse.ArgumentParser], None]
    handler: Callable[[argparse.Namespace, object], int]
    epilog: str = _EXIT_CODE_HELP
    #: Whether a bad query text is emitted as a ``source`` report (text or
    #: ``--json``) like any other finding, or as a plain ``error:`` line.
    reports: bool = False


#: Every subcommand.  ``run`` is also what a bare ``repro QUERY`` means.
SUBCOMMANDS: dict[str, Subcommand] = {
    "run": Subcommand(
        "Run a sequence query (SIGMOD '94 style) over CSV data.",
        _run_flags,
        _run_main,
        epilog=(
            "subcommands: {subcommands} (a bare query means run; "
            "`repro NAME --help` describes each).\n\n"
            "exit status: 0 = success; 1 = any error (bad query, missing "
            "file); 2 = answer mismatch against --naive. "
            "The static-analysis subcommands have their own contract: "
            + _EXIT_CODE_HELP
        ),
    ),
    "check": Subcommand(
        "Semantically analyze a query text without running it: name "
        "resolution, schema/type inference, operator signatures, and "
        "span/scope lints, each finding a stable SEM* code with "
        "line:col and a caret excerpt.",
        partial(_verify_flags, span=False),
        _check_main,
        reports=True,
    ),
    "lint": Subcommand(
        "Statically verify a query graph: scope closure (Prop 2.1), "
        "span propagation (Sec 3.2 Step 2) and schema flow (Sec 2.2).",
        _verify_flags,
        _lint_main,
        reports=True,
    ),
    "verify-plan": Subcommand(
        "Optimize a query and verify the full pipeline: the query "
        "rules plus rewrite legality (Prop 3.1), cache finiteness "
        "(Thm 3.1) and cost sanity (Sec 4.1) of the chosen plan.",
        _verify_flags,
        _verify_plan_main,
        reports=True,
    ),
    "trace": Subcommand(
        "Run a query with the span tracer on and export the trace: "
        "optimizer steps, one span per physical operator with "
        "attributed rows/time/pages, and fault/retry/guard events.",
        _trace_flags,
        _trace_main,
        epilog=(
            "The chrome format loads directly in Perfetto "
            "(https://ui.perfetto.dev) or about://tracing; jsonl is the "
            "line-oriented span format for scripts."
        ),
    ),
    "profile": Subcommand(
        "Run a query repeatedly under the flight recorder and report "
        "the captured per-run profiles: duration percentiles from the "
        "log-scale histograms, rows/pages/retry/fallback counters, "
        "and — for traced runs — top operator self-times.",
        _profile_flags,
        _profile_main,
        epilog=_REPEAT_EXIT_HELP,
    ),
    "stats": Subcommand(
        "Run a query repeatedly and render the full metrics block: "
        "execution counters plus the flight recorder's log-scale "
        "histograms (count/mean/min/max and p50/p90/p99) for query "
        "durations, rows, pages, and per-partition lane times.",
        _add_repeat,
        _stats_main,
        epilog=_REPEAT_EXIT_HELP,
    ),
    "partition-check": Subcommand(
        "Certify a query's plan as parallel-decomposable: derive its "
        "partitioning contract (pointwise / windowed / order-sensitive "
        "/ blocking), compute exact halo widths per cut, and verify "
        "the resulting certificate through the independent checker. "
        "Uncertifiable plans are rejected with typed PART* findings.",
        _partition_check_flags,
        _partition_check_main,
        reports=True,
    ),
    "effects-check": Subcommand(
        "Certify a query's plan expressions as effect-safe: derive a "
        "per-expression EffectSpec (purity, determinism, escaping "
        "exceptions, null-strictness, value domain), emit an "
        "EffectCertificate, and re-verify it through the independent "
        "checker. Plans containing expressions outside the modeled "
        "language are refused with typed EFX* findings.",
        _effects_check_flags,
        _effects_check_main,
        reports=True,
    ),
}


def _fill(text: str) -> str:
    """Wrap help paragraphs without splitting ``partition-check`` at its hyphen."""
    return "\n\n".join(
        textwrap.fill(paragraph, width=78, break_on_hyphens=False)
        for paragraph in text.split("\n\n")
    )


def build_parser(name: str = "run") -> argparse.ArgumentParser:
    """The argument parser of one subcommand (``run``: of bare ``repro``)."""
    command = SUBCOMMANDS[name]
    parser = argparse.ArgumentParser(
        prog="repro" if name == "run" else f"repro {name}",
        description=_fill(command.description),
        epilog=_fill(command.epilog.format(subcommands=", ".join(SUBCOMMANDS))),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    command.add_flags(parser)
    return parser


def main(argv: Optional[PySequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    The one place failures become exit codes: 2 for a usage error (1
    under ``run``, whose 2 is the ``--naive`` mismatch), 1 for a bad
    query text or any other typed :class:`ReproError`.
    """
    out = out if out is not None else sys.stdout
    arguments = list(sys.argv[1:] if argv is None else argv)
    name = "run"
    if arguments and arguments[0] in SUBCOMMANDS:
        name = arguments.pop(0)
    command = SUBCOMMANDS[name]
    args = build_parser(name).parse_args(arguments)
    args.command = name
    try:
        return command.handler(args, out)
    except ReproError as error:
        if isinstance(error, ParseError) and command.reports:
            return _emit_report(_compile_error_report(error), args.json, out)
        print(f"error: {error}", file=out)
        return 2 if isinstance(error, _UsageError) and name != "run" else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
