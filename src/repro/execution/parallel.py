"""Fault-tolerant parallel partitioned execution (DESIGN §14).

The supervisor half of the partitioned runtime: the partition analysis
issues a :class:`~repro.analysis.partition.PartitionCertificate`,
:mod:`repro.execution.partition` narrows the plan to each certified
range, and :func:`execute_parallel` executes those subplans on a pool
of thread lanes — the calling thread itself for one lane — and merges
the outputs in position order with :func:`merge_partitions`.
:func:`execute_partitioned`, the differential harness's sequential
form, is the same call with one lane.

Under any fault the supervisor returns either the exact answer or a
typed error:

* **fault containment** — partitions are prepared serially, in
  partition order, on the calling thread, before any lane starts.
  Preparing drains every stored leaf, so it is the only phase that
  reads a page — which is what makes a seeded
  :class:`~repro.storage.faults.FaultPlan` inject the identical fault
  trace at any lane count.  A :class:`~repro.errors.TransientStorageError`
  that escaped the buffer pool's own read-level retries rebuilds just
  that partition (``partition_retries``); permanent and corrupt-page
  faults fail the query fast.  A lane runs its partition once, and its
  typed error is the query's;
* **cancellation fan-out** — lanes observe a child
  :class:`~repro.execution.guard.CancellationToken` linked to the
  caller's, so the first failed partition cancels its siblings without
  ever marking the caller's token, while a caller-initiated cancel
  still reaches every lane through the parent link;
* **shared budget** — all lanes charge one (thread-safe)
  :class:`~repro.execution.guard.QueryGuard`, so ``max_records`` /
  ``max_pages`` / the deadline bound the *query*, not each partition;
* **typed infrastructure failures** — a pool that cannot spawn and
  worker death outside the typed hierarchy surface as
  :class:`~repro.errors.ParallelExecutionError`, the class the engine's
  degradation ladder leaves its parallel rung on.

Every lane charges private :class:`~repro.execution.counters.ExecutionCounters`
and records into a forked tracer; once every lane has answered, the
supervisor merges the counters (:meth:`ExecutionCounters.merge_from`),
lane histograms and forked spans (:meth:`~repro.obs.tracer.Tracer.adopt`,
under each partition's ``partition`` span) in partition order, so
``--explain`` metrics and EXPLAIN ANALYZE see one coherent query.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import FIRST_EXCEPTION, Executor, Future, ThreadPoolExecutor, wait
from typing import Any, Optional

from repro.analysis.base import plan_paths
from repro.analysis.partition import (
    PartitionCertificate,
    PartitionCounters,
    require_certificate,
)
from repro.errors import ParallelExecutionError, ReproError, TransientStorageError
from repro.execution.counters import ExecutionCounters
from repro.execution.guard import CancellationToken, QueryGuard
from repro.execution.lane import materialize, started
from repro.execution.options import ExecOptions
from repro.execution.partition import merge_partitions, partition_plan
from repro.model.base import BaseSequence
from repro.model.span import Span
from repro.obs.hist import HistogramSet
from repro.obs.instrument import stored_leaf_counters
from repro.obs.tracer import CATEGORY_ENGINE, Tracer, TraceSpan, active
from repro.optimizer.plans import OptimizedPlan, PhysicalPlan

#: Builds of one partition before a transient fault escapes: the first
#: plus one rebuild.  Read-level transient faults are already retried
#: inside the buffer pool, so this is a second line of defence.
PREPARE_ATTEMPTS = 2

#: What one lane hands back: its output, its private counters and its
#: own execution time in microseconds.
LaneResult = tuple[BaseSequence, ExecutionCounters, float]


def _execute_partition(
    subplan: PhysicalPlan,
    window: Span,
    options: ExecOptions,
    guard: Optional[QueryGuard],
    tracer: Optional[Tracer],
) -> LaneResult:
    """One lane's unit of work: execute a prepared partition subplan.

    Runs with private counters under the already-validated lane
    ``options``, the shared guard and a forked tracer, and times
    itself, so a partition that queued for a free lane reports its own
    work, not the wait.  Module-level so tests can intercept it.
    """
    began = time.perf_counter()
    counters = ExecutionCounters()
    with started(subplan, window, counters, options, guard, tracer) as (
        window,
        ctx,
        _root_span,
    ):
        output = materialize(ctx, subplan, window, options.mode)
    return output, counters, (time.perf_counter() - began) * 1e6


class _InlineExecutor(Executor):
    """The one-lane pool: runs each submission on the calling thread.

    A single lane needs no thread, but it needs everything else the
    supervisor does with a future — failure typing, counter absorb,
    span adoption, lane histograms — so it hands back a future that is
    already resolved and the one partition loop serves every lane count.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:
            future.set_exception(error)
        return future


class _Supervisor:
    """One partitioned run: serial prepare, lanes, absorb, merge.

    Lane bodies touch nothing but their private counters, their forked
    tracer and the (thread-safe) shared guard; every other mutation
    happens on the calling thread.
    """

    def __init__(
        self,
        root: PhysicalPlan,
        certificate: PartitionCertificate,
        options: ExecOptions,
        counters: ExecutionCounters,
        guard: Optional[QueryGuard],
        tracer: Optional[Tracer],
        hists: Optional[HistogramSet],
    ):
        self.root = root
        self.certificate = certificate
        self.partitions = certificate.partitions
        self.options = options
        # What each lane runs: the requested mode, single-threaded, with
        # no ladder of its own (a lane's failure is the supervisor's).
        self.lane_options = dataclasses.replace(options, parallel="off", fallback=False)
        self.lanes = min(options.lanes, len(self.partitions))
        self.counters = counters
        self.guard = guard
        self.tracer = tracer if active(tracer) else None
        self.hists = hists
        self.paths = plan_paths(root)
        self.parallel_span: Optional[TraceSpan] = None

    def prepare(self, index: int) -> PhysicalPlan:
        """Build one partition's subplan, rebuilding once on a transient fault.

        Raises:
            TransientStorageError: the rebuild failed too.
            PermanentStorageError: never retried; fails the query fast.
            CorruptPageError: never retried; fails the query fast.
        """
        partition = self.partitions[index]
        for attempt in range(2, PREPARE_ATTEMPTS + 1):
            try:
                return partition_plan(self.root, partition, self.paths)
            except TransientStorageError:
                self.counters.partition_retries += 1
                if self.tracer is not None and self.parallel_span is not None:
                    self.tracer.event(
                        self.parallel_span, "parallel:retry", partition=index, attempt=attempt
                    )
        return partition_plan(self.root, partition, self.paths)

    def run(self) -> BaseSequence:
        """Prepare, execute, absorb and merge every certified partition.

        With more than one lane the lanes' guard carries a sibling
        token linked under the caller's; the caller's own token is
        restored however the run ends.

        Raises:
            ParallelExecutionError: pool spawn/submit failure or worker
                death outside the typed hierarchy (the ladder's cue).
            ReproError: any typed verdict a lane raised (guard
                verdicts and storage faults pass through untouched).
        """
        if self.tracer is not None:
            self.parallel_span = self.tracer.begin(
                "parallel",
                CATEGORY_ENGINE,
                attrs={
                    "workers": self.options.lanes,
                    "parts": len(self.partitions),
                    "mode": self.options.mode,
                },
            )
        caller_guard = self.guard
        siblings = CancellationToken(
            parent=caller_guard.cancellation if caller_guard is not None else None
        )
        try:
            subplans = [self.prepare(index) for index in range(len(self.partitions))]
            if self.lanes > 1:
                if caller_guard is None:
                    self.guard = QueryGuard(cancellation=siblings)
                    self.guard.start()
                else:
                    caller_guard.cancellation = siblings
            outputs = [
                self._absorb(index, *lane)
                for index, lane in enumerate(self._execute(subplans, siblings))
            ]
        finally:
            if caller_guard is not None:
                caller_guard.cancellation = siblings.parent
            if self.tracer is not None and self.parallel_span is not None:
                self.parallel_span.attrs["partitions_executed"] = (
                    self.counters.partitions_executed
                )
                self.tracer.end(self.parallel_span)
        # For one partition the certificate's cover proof makes its
        # window the root span, so the output *is* the answer —
        # skipping the re-copy is what holds the one-lane path inside
        # the benchmark's overhead budget.
        if len(outputs) == 1:
            return outputs[0]
        return merge_partitions(outputs, self.certificate)

    def _execute(
        self, subplans: list[PhysicalPlan], siblings: CancellationToken
    ) -> list[tuple[LaneResult, Optional[Tracer]]]:
        """Run every subplan once on the lanes; each result with its fork.

        Every partition is handed to the pool at once and queues for a
        free lane; one lane has already run a submission when it
        returns, so it stops submitting at the first failure.  The
        first failure seen (lowest partition first) cancels the
        siblings and is raised typed: a :class:`ReproError` unchanged,
        anything else as worker death.

        Raises:
            ParallelExecutionError: the pool could not spawn or refused
                a submission, or a lane died untyped.
            ReproError: the first typed verdict a lane raised.
        """
        try:
            executor: Executor = (
                _InlineExecutor()
                if self.lanes == 1
                else ThreadPoolExecutor(self.lanes, thread_name_prefix="repro-partition")
            )
        except (OSError, RuntimeError, ValueError) as error:
            raise ParallelExecutionError(
                f"could not spawn the worker pool ({self.lanes} lanes): {error}"
            ) from error
        forks: list[Optional[Tracer]] = []
        futures: list[Future] = []
        try:
            for index, subplan in enumerate(subplans):
                forks.append(self.tracer.fork() if self.tracer is not None else None)
                window = self.partitions[index].window
                try:
                    futures.append(
                        executor.submit(
                            _execute_partition,
                            subplan,
                            window,
                            self.lane_options,
                            self.guard,
                            forks[-1],
                        )
                    )
                except RuntimeError as error:
                    raise ParallelExecutionError(
                        f"worker pool rejected partition {index}: {error}",
                        partition_index=index,
                    ) from error
                if futures[-1].done() and futures[-1].exception() is not None:
                    break
            wait(futures, return_when=FIRST_EXCEPTION)
            for index, future in enumerate(futures):
                error = future.exception() if future.done() else None
                if isinstance(error, ReproError):
                    raise error
                if error is not None:
                    raise ParallelExecutionError(
                        f"partition {index} worker died with untyped "
                        f"{type(error).__name__}: {error}",
                        partition_index=index,
                    ) from error
            return [(future.result(), fork) for future, fork in zip(futures, forks)]
        except BaseException:
            # Fan-out: what is in flight stops at its next guard
            # checkpoint, and the shutdown drops what still queues.
            # Threads cannot be killed, so the shutdown does not wait on
            # them; they die with a QueryCancelledError nobody reads.
            siblings.cancel()
            raise
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _absorb(self, index: int, lane: LaneResult, fork: Optional[Tracer]) -> BaseSequence:
        """Fold one partition's lane into the run; returns its output.

        The lane wrote private counters and a private fork; they merge
        here, on the calling thread, with one private histogram set per
        lane.  The ``partition`` span covers the lane's own ``execute``
        frame (the fork shares the tracer's clock and epoch).
        """
        output, lane_counters, duration_us = lane
        self.counters.merge_from(lane_counters)
        self.counters.partitions_executed += 1
        if self.hists is not None:
            observed = HistogramSet()
            observed.observe("partition.duration_us", duration_us)
            observed.observe("partition.records", lane_counters.records_emitted)
            observed.observe("partition.batches", lane_counters.batches_built)
            self.hists.merge_from(observed)
        if self.tracer is not None and fork is not None:
            span = self.tracer.begin(
                "partition",
                CATEGORY_ENGINE,
                attrs={
                    "index": index,
                    "window": str(self.partitions[index].window),
                    "records": lane_counters.records_emitted,
                },
                parent=self.parallel_span,
            )
            self.tracer.end(span)
            if fork.spans:
                frame = fork.spans[0]
                span.start_us, span.end_us, span.busy_us = (
                    frame.start_us,
                    frame.end_us,
                    frame.busy_us,
                )
            self.tracer.adopt(fork, under=span)
        return output


def supervise(
    root: PhysicalPlan,
    certificate: PartitionCertificate,
    options: ExecOptions,
    counters: ExecutionCounters,
    guard: Optional[QueryGuard] = None,
    tracer: Optional[Tracer] = None,
    hists: Optional[HistogramSet] = None,
) -> BaseSequence:
    """Run a checked certificate's partitions under already-validated options.

    What :func:`execute_parallel` and the engine's parallel rung share:
    the caller has validated ``options``, vouches for the
    (plan, certificate) pair, and has armed the guard.
    """
    return _Supervisor(root, certificate, options, counters, guard, tracer, hists).run()


def execute_parallel(
    plan: "PhysicalPlan | OptimizedPlan",
    certificate: PartitionCertificate,
    *,
    counters: Optional[ExecutionCounters] = None,
    partition_counters: Optional[PartitionCounters] = None,
    guard: Optional[QueryGuard] = None,
    tracer: Optional[Tracer] = None,
    verify: bool = True,
    hists: Optional[HistogramSet] = None,
    **options: Any,
) -> BaseSequence:
    """Execute a certified plan across thread lanes, merging in order.

    Unchecked certificates are re-verified first; the run then follows
    the module docstring's contract.

    Args:
        plan: the stream-mode physical plan (or optimizer output) the
            certificate was issued for.
        certificate: a checked :class:`PartitionCertificate`; its
            partition count is independent of the lane count (more
            partitions than lanes queue onto free lanes).
        counters: execution counters; lanes merge into them.
        partition_counters: partition-analysis counters charged by the
            certificate re-verification.
        guard: shared query governor, observed by every lane; for the
            parallel section its cancellation token is *linked*, not
            replaced, so caller cancellation reaches lanes while
            sibling fan-out never marks the caller's token.
        tracer: optional span tracer; the run records a ``parallel``
            span with one ``partition`` child span per partition and a
            ``parallel:retry`` event per prepare rebuild.
        verify: re-verify the certificate first (default).  Disable
            only when the caller just checked this exact pair.
        hists: optional :class:`~repro.obs.hist.HistogramSet` that
            receives ``partition.duration_us`` / ``partition.records``
            / ``partition.batches``, one observation per partition.
        **options: the execution knobs of
            :class:`~repro.execution.options.ExecOptions`.  ``mode`` and
            ``batch_size`` apply per partition; ``workers`` lanes (one
            lane executes on the calling thread).

    Raises:
        ExecutionError: for an invalid or unknown knob, before the
            certificate is checked or any page is read.
        PartitionSoundnessError: when ``verify`` finds the certificate
            unsound — never silently partitioned.
        ParallelExecutionError: pool-spawn failure or untyped worker
            death (the degradation ladder catches exactly this).
        ReproError: any typed verdict from a lane, unchanged.
    """
    checked = ExecOptions.of(options, guard)
    root = plan.plan if isinstance(plan, OptimizedPlan) else plan
    if verify:
        require_certificate(root, certificate, counters=partition_counters)
    counters = counters if counters is not None else ExecutionCounters()
    if guard is not None:
        guard.start()
        for disk in stored_leaf_counters(root):
            guard.watch_storage(disk)
    return supervise(root, certificate, checked, counters, guard, tracer, hists)


def execute_partitioned(
    plan: "PhysicalPlan | OptimizedPlan",
    certificate: PartitionCertificate,
    **kwargs: Any,
) -> BaseSequence:
    """Execute a certified plan partition by partition on one lane.

    The differential harness's engine half: :func:`execute_parallel`
    with ``workers`` defaulting to 1, so the partitions run strictly in
    sequence on the calling thread.  It is deliberately hostile to
    unsound certificates — the certificate is re-verified before
    anything opens, every subplan node is narrowed to its certified
    span and every leaf is sliced to its certified window
    (:func:`~repro.execution.partition.partition_plan`), so an
    understated halo shows up as a wrong boundary answer instead of
    silently reading the neighbour partition's data.
    """
    kwargs.setdefault("workers", 1)
    return execute_parallel(plan, certificate, **kwargs)
