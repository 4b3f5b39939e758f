"""The query execution engine.

``execute_plan`` plays the role of the Start operator (Figure 6): it
induces a stream access on the root of a physical plan and materializes
the answer.  ``run_query`` is the one-call entry point: optimize, then
execute, optionally returning the optimizer output and the execution
counters alongside the answer.

Robustness hooks (DESIGN §9): both entry points build one validated
:class:`~repro.execution.options.ExecOptions` from their knobs before
any work or counter mutation happens, accept a
:class:`~repro.execution.guard.QueryGuard` for per-query deadlines,
cancellation, and resource budgets, and walk one degradation ladder —
certified partitions (:mod:`repro.execution.partition`) → the
unpartitioned plan in the requested mode → row-path oracle — whose
every step down is counted (``parallel_fallbacks`` /
``fallbacks_taken``) and traced.  Every rung runs on the calling
thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

from repro.errors import (
    ExecutionError,
    PartitionSoundnessError,
    QueryGuardError,
    ReproError,
    StorageError,
)
from repro.model.base import BaseSequence
from repro.model.span import Span
from repro.algebra.graph import Query
from repro.analysis.base import root_plan
from repro.analysis.partition import certify
from repro.catalog.catalog import Catalog
from repro.optimizer.costmodel import CostParams
from repro.optimizer.optimizer import OptimizationResult, optimize
from repro.optimizer.plans import OptimizedPlan, PhysicalPlan
from repro.execution.counters import ExecutionCounters
from repro.execution.guard import QueryGuard
from repro.execution.lane import materialize, started
from repro.execution.options import ExecOptions
from repro.execution.partition import run_partitions
from repro.obs.analyze import render_analyze
from repro.obs.hist import HistogramSet
from repro.obs.instrument import stored_leaf_counters
from repro.obs.metrics import counters_restore, counters_snapshot
from repro.obs.profile import FlightRecorder, QueryProfile, fingerprint_query
from repro.obs.tracer import Tracer, active, trace_summary


class _Rung(NamedTuple):
    """One rung of the degradation ladder (DESIGN §9).

    ``recoverable`` are the failures that move the ladder to the next
    rung; leaving the rung charges the ``charge`` counter once and
    records the ``event`` on the root span.  The last rung of a ladder
    is never left, so it uses none of the three.
    """

    name: str
    run: Callable[[], BaseSequence]
    recoverable: tuple = ()
    charge: str = ""
    event: str = ""


#: Failures the parallel rung degrades on: a refused or rejected
#: certificate, internal execution errors — never a typed storage
#: fault, which is an answer.
_PARALLEL_RECOVERABLE = (PartitionSoundnessError, ExecutionError)

#: Failures a batch-mode run degrades to the row oracle on.
_BATCH_RECOVERABLE = (ExecutionError, StorageError)


def _start(
    plan: PhysicalPlan,
    span: Optional[Span],
    counters: Optional[ExecutionCounters],
    options: ExecOptions,
    guard: Optional[QueryGuard],
    tracer: Optional[Tracer],
    hists: Optional[HistogramSet],
) -> BaseSequence:
    """The Start operator over already-validated ``options``.

    Builds the ordered rung list the options ask for —

    * ``parallel`` (iff ``parallel != "off"``): certify the plan into
      ``options.partitions`` ranges and run them one after another
      (:func:`~repro.execution.partition.run_partitions`); ``force``
      makes nothing recoverable, so the typed refusal or failure
      escapes;
    * ``single-thread``: the requested ``mode`` on the calling thread;
    * ``row-oracle`` (iff batch mode with ``fallback``)

    — and walks it with one body: for every rung with one left below,
    snapshot the counters and the guard's record count, try the rung,
    and on one of *its* recoverable errors rewind both, charge the
    rung's counter once, record its event naming the rung moved to, and
    go on; the last rung's error is the query's error.  The snapshot
    is re-taken per rung, so a later rewind never erases an earlier
    rung's fallback charge.  Guard verdicts are never recoverable — a
    timeout is a timeout, not a reason to try again slower — storage
    counters keep their real I/O, the guard's clock keeps running, and
    histograms are never rewound.
    """
    counters = counters if counters is not None else ExecutionCounters()
    with started(plan, span, counters, options, guard, tracer) as (
        window,
        ctx,
        root_span,
    ):
        tracer = ctx.tracer
        rungs: list[_Rung] = []
        if options.parallel != "off":
            rungs.append(
                _Rung(
                    "parallel",
                    lambda: run_partitions(
                        plan,
                        certify(plan, options.partitions, window, tracer=tracer),
                        options,
                        counters,
                        guard,
                        tracer,
                        hists,
                    ),
                    () if options.parallel == "force" else _PARALLEL_RECOVERABLE,
                    "parallel_fallbacks",
                    "parallel:fallback",
                )
            )

        def drain(mode: str) -> Callable[[], BaseSequence]:
            return lambda: materialize(ctx, plan, window, mode)

        rungs.append(
            _Rung(
                "single-thread",
                drain(options.mode),
                _BATCH_RECOVERABLE,
                "fallbacks_taken",
                "fallback",
            )
        )
        if options.mode == "batch" and options.fallback:
            rungs.append(_Rung("row-oracle", drain("row")))
        for rung, below in zip(rungs, rungs[1:]):
            snapshot = counters_snapshot(counters)
            guard_records = guard.records_emitted if guard is not None else 0
            try:
                return rung.run()
            except QueryGuardError:
                raise
            except rung.recoverable as error:
                counters_restore(counters, snapshot)
                if guard is not None:
                    guard.rewind_records(guard_records)
                setattr(counters, rung.charge, getattr(counters, rung.charge) + 1)
                if tracer is not None:
                    tracer.event(
                        root_span,
                        rung.event,
                        rung=below.name,
                        error=type(error).__name__,
                        message=str(error)[:200],
                    )
        # The last rung's error is the query's error.
        return rungs[-1].run()


def execute_plan(
    plan: PhysicalPlan | OptimizedPlan,
    span: Optional[Span] = None,
    counters: Optional[ExecutionCounters] = None,
    *,
    guard: Optional[QueryGuard] = None,
    tracer: Optional[Tracer] = None,
    hists: Optional[HistogramSet] = None,
    **options: Any,
) -> BaseSequence:
    """Run a stream-mode plan and materialize its output.

    Args:
        plan: the root physical plan (stream mode), or the
            :class:`~repro.optimizer.plans.OptimizedPlan` around it.
        span: output window; defaults to the plan's own span.
        counters: counters to charge (a fresh set if omitted).
        guard: per-query governor (deadline, cancellation, budgets);
            checked at batch boundaries and row-loop checkpoints.  Its
            verdicts are never swallowed by the degradation ladder, and
            its clock keeps running across a degraded rerun.
        tracer: optional span tracer.  When active the run is wrapped
            in an ``execute`` span, every operator gets its own span
            (:mod:`repro.obs.instrument`), every rung the ladder leaves
            is recorded as a ``parallel:fallback`` / ``fallback``
            event, and the tracer is finalized when the run ends so
            probe-side spans close.
        hists: optional :class:`~repro.obs.hist.HistogramSet` that
            receives one ``partition.*`` observation per partition the
            parallel rung executes.  Histograms are observational —
            they record work actually performed and are *not* rewound
            when the degradation ladder forgets a failed rung's
            counters.
        **options: the execution knobs —
            ``mode``, ``batch_size``, ``fallback``, ``parallel``,
            ``workers``, ``pool`` — declared, defaulted and documented on
            :class:`~repro.execution.options.ExecOptions`.

    Raises:
        ExecutionError: for an invalid or unknown knob or a guard with
            nonsensical budgets — before any work, counter mutation or
            storage access — or for an unbounded window.
    """
    return _start(
        root_plan(plan),
        span,
        counters,
        ExecOptions.of(options, guard),
        guard,
        tracer,
        hists,
    )


@dataclass
class RunResult:
    """A query answer together with how it was obtained.

    Attributes:
        output: the materialized answer sequence.
        optimization: the full optimizer output (plan, annotations,
            Property 4.1 counters, rewrite trace).
        counters: execution-side work counters.
        tracer: the span tracer the run recorded into, when one was
            active (``analyze=True`` or an explicit ``tracer=``);
            None otherwise.
    """

    output: BaseSequence
    optimization: OptimizationResult
    counters: ExecutionCounters
    tracer: Optional[Tracer] = None

    def render_analyze(self) -> str:
        """The EXPLAIN ANALYZE text (requires a recorded trace).

        Raises:
            ExecutionError: when the run was not traced.
        """
        if self.tracer is None or not self.tracer.spans:
            raise ExecutionError(
                "no trace recorded: run the query with analyze=True "
                "(or pass an enabled tracer) before rendering"
            )
        return render_analyze(self.optimization.plan, self.tracer)


def _build_profile(
    *,
    fingerprint: str,
    query: Query,
    options: ExecOptions,
    duration_us: float,
    counters: ExecutionCounters,
    pages_read: int,
    guard: Optional[QueryGuard],
    tracer: Optional[Tracer],
    error: Optional[BaseException],
) -> QueryProfile:
    """Assemble the flight-recorder record for one finished run."""
    traced = active(tracer)
    top_operators: list = []
    if traced:
        assert tracer is not None
        top_operators = trace_summary(tracer)["top_operators"]
    return QueryProfile(
        fingerprint=fingerprint,
        query=repr(query)[:200],
        mode=options.mode,
        parallel=options.parallel,
        workers=options.partitions if options.parallel != "off" else None,
        batch_size=options.batch_size,
        duration_us=duration_us,
        records_emitted=counters.records_emitted,
        pages_read=pages_read,
        cache_ops=counters.cache_ops,
        partition_retries=counters.partition_retries,
        fallbacks_taken=counters.fallbacks_taken,
        parallel_fallbacks=counters.parallel_fallbacks,
        kernels_fallback=counters.kernels_fallback,
        guard_verdict=guard.verdict if guard is not None else None,
        error=type(error).__name__ if error is not None else None,
        top_operators=top_operators,
        traced=traced,
    )


def run_query_detailed(
    query: Query,
    span: Optional[Span] = None,
    catalog: Optional[Catalog] = None,
    params: Optional[CostParams] = None,
    rewrite: bool = True,
    restrict_spans: bool = True,
    *,
    guard: Optional[QueryGuard] = None,
    tracer: Optional[Tracer] = None,
    analyze: bool = False,
    recorder: Optional[FlightRecorder] = None,
    **options: Any,
) -> RunResult:
    """Optimize and execute ``query``, returning answer + diagnostics.

    ``**options`` are the execution knobs of
    :class:`~repro.execution.options.ExecOptions` (``mode``,
    ``batch_size``, ``fallback``, ``parallel``, ``workers``, ``pool``;
    see :func:`execute_plan`); a bad one raises
    :class:`~repro.errors.ExecutionError` before the optimizer runs, so
    no plan, no counters and no storage access happen for a query that
    could never execute.

    ``analyze=True`` records a full trace (creating a
    :class:`~repro.obs.tracer.Tracer` if none was passed) so the result
    supports :meth:`RunResult.render_analyze`.

    ``recorder`` attaches the flight recorder: the run is timed,
    fingerprinted, and recorded as a compact
    :class:`~repro.obs.profile.QueryProfile` — on success *and* on any
    typed :class:`~repro.errors.ReproError` (which is re-raised
    unchanged).  The recorder also decides tracing for this run: a
    query promoted by a previous slow run, or the every-Nth
    operator-sampling hit, executes with full span capture even when
    the caller passed no tracer.
    """
    checked = ExecOptions.of(options, guard)
    fingerprint = None
    if recorder is not None:
        fingerprint = fingerprint_query(query)
        if tracer is None and not analyze:
            if recorder.wants_trace(fingerprint) or recorder.sample_operators():
                tracer = Tracer()
    if analyze and tracer is None:
        tracer = Tracer()
    clock = recorder.clock if recorder is not None else time.perf_counter
    started_at = clock()
    counters = ExecutionCounters()
    query_hists = HistogramSet() if recorder is not None else None
    storage_watch: list = []
    failure: Optional[ReproError] = None
    try:
        optimization = optimize(
            query,
            catalog=catalog,
            span=span,
            params=params,
            rewrite=rewrite,
            restrict_spans=restrict_spans,
            tracer=tracer,
        )
        if recorder is not None:
            storage_watch = [
                (disk, disk.page_reads)
                for disk in stored_leaf_counters(optimization.plan.plan)
            ]
        output = _start(
            optimization.plan.plan,
            optimization.plan.output_span,
            counters,
            checked,
            guard,
            tracer,
            query_hists,
        )
    except ReproError as error:
        failure = error
    if recorder is not None:
        assert fingerprint is not None
        recorder.record(
            _build_profile(
                fingerprint=fingerprint,
                query=query,
                options=checked,
                duration_us=max((clock() - started_at) * 1e6, 0.0),
                counters=counters,
                pages_read=sum(
                    max(disk.page_reads - baseline, 0)
                    for disk, baseline in storage_watch
                ),
                guard=guard,
                tracer=tracer,
                error=failure,
            ),
            hists=query_hists,
        )
    if failure is not None:
        raise failure
    return RunResult(
        output=output,
        optimization=optimization,
        counters=counters,
        tracer=tracer if active(tracer) else None,
    )


def run_query(query: Query, *args: Any, analyze: bool = False, **kwargs: Any):
    """Optimize and execute ``query``, returning just the answer.

    Takes exactly the arguments of :func:`run_query_detailed`.  With
    ``analyze=True`` the run is traced and the full :class:`RunResult`
    is returned instead, so the caller can render the EXPLAIN ANALYZE
    tree (:meth:`RunResult.render_analyze`) or export the trace
    alongside the answer (``result.output``).
    """
    result = run_query_detailed(query, *args, analyze=analyze, **kwargs)
    return result if analyze else result.output
