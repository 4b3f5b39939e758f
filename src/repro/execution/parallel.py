"""Fault-tolerant parallel partitioned execution (DESIGN §14).

The supervisor half of the partitioned runtime: PR 6's analysis issues
a :class:`~repro.analysis.partition.PartitionCertificate`,
:mod:`repro.execution.partition` narrows the plan to each certified
range, and :func:`execute_parallel` executes those subplans across a
worker pool — threads by default, processes opt-in, the calling thread
itself for one lane — and merges the outputs in position order with
:func:`merge_partitions`.  :func:`execute_partitioned`, the
differential harness's sequential form, is the same call with one lane.

Robustness is the headline contract, not a bolt-on.  Under any fault
the supervisor returns either the exact answer or a typed error:

* **fault containment** — each partition is prepared and executed
  under a bounded retry: a :class:`~repro.errors.TransientStorageError`
  that escaped the buffer pool's own read-level retries re-runs just
  that partition (``partition_retries``), while permanent and
  corrupt-page faults fail the query fast with their typed error;
* **cancellation fan-out** — thread workers observe a child
  :class:`~repro.execution.guard.CancellationToken` linked to the
  caller's, so the first failed partition cancels its siblings instead
  of letting them run to completion, while a caller-initiated cancel
  still reaches every worker through the parent link;
* **shared budget** — all thread workers charge one (thread-safe)
  :class:`~repro.execution.guard.QueryGuard`, so ``max_records`` /
  ``max_pages`` / the deadline bound the *query*, not each partition;
  process workers are charged by the supervisor at partition
  completion (partition-granular enforcement).  Failed attempts and
  discarded speculative duplicates keep their guard charges: the
  budget is a safety ceiling, and over-counting aborts marginally
  early rather than ever under-enforcing;
* **straggler handling** — a partition whose youngest attempt exceeds
  the soft ``straggler_timeout`` is speculatively re-dispatched once
  (``stragglers_redispatched``); if the partition is still unanswered
  one soft timeout after that, the supervisor declares a typed
  :class:`~repro.errors.QueryTimeoutError`;
* **typed infrastructure failures** — pool-spawn failures, worker
  death outside the typed hierarchy, and broken process pools surface
  as :class:`~repro.errors.ParallelExecutionError`, the class the
  engine's degradation ladder leaves its parallel rung on.

Determinism under faults is load-bearing for the chaos suite: partition
*preparation* — the only phase that touches the shared simulated disk —
runs serially in partition order on the supervisor thread, so a seeded
:class:`~repro.storage.faults.FaultPlan` injects the identical fault
trace regardless of worker count or thread interleaving.  (A single
simulated disk serializes page reads anyway; the parallel win is
operator execution over the in-memory slices, which is also why worker
execution cannot race the buffer pool.)  Speculative duplicates and
per-partition execution retries re-run pure in-memory subplans, so
containment never perturbs the faults other partitions see.

Counter and trace accounting: every worker charges a private
:class:`~repro.execution.counters.ExecutionCounters` and records into a
forked tracer; the supervisor merges the winning attempt's counters
into the query totals (:meth:`ExecutionCounters.merge_from`) and grafts
the fork's spans under that partition's ``partition`` span
(:meth:`~repro.obs.tracer.Tracer.adopt`), so ``--explain`` metrics and
EXPLAIN ANALYZE see one coherent query.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.analysis.base import plan_paths
from repro.analysis.partition import (
    PartitionCertificate,
    PartitionCounters,
    PartitionRange,
    require_certificate,
)
from repro.errors import (
    ParallelExecutionError,
    QueryGuardError,
    QueryTimeoutError,
    ReproError,
    StorageError,
    TransientStorageError,
)
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
from repro.storage.faults import RetryPolicy

#: Per-partition containment budget: the first dispatch plus one retry.
#: Read-level transient faults are already retried inside the buffer
#: pool, so a partition-level retry is a second line of defence, not
#: the primary one.
DEFAULT_PARTITION_RETRY = RetryPolicy(max_attempts=2)

#: Supervisor poll interval while waiting on worker futures, seconds.
#: Bounds how stale the straggler clock and the guard checkpoint can
#: get between worker completions without busy-waiting.
_WAIT_TICK = 0.02


def _execute_partition(
    subplan: PhysicalPlan,
    window: Span,
    options: ExecOptions,
    guard: Optional[QueryGuard],
    tracer: Optional[Tracer],
) -> tuple[BaseSequence, ExecutionCounters]:
    """One lane's unit of work: execute a prepared partition subplan.

    Runs with private counters (merged by the supervisor on success)
    under the supervisor's already-validated lane ``options`` and —
    except in a process pool, whose children can share neither — the
    thread-safe query guard plus a forked tracer.  Module-level so the
    chaos tests can intercept it and so the process pool can import it
    by reference.
    """
    counters = ExecutionCounters()
    with started(subplan, window, counters, options, guard, tracer) as (
        window,
        ctx,
        _root_span,
    ):
        output = materialize(ctx, subplan, window, options.mode)
    return output, counters


@dataclass
class _Attempt:
    """One dispatched execution attempt of one partition."""

    index: int
    number: int
    dispatched_at: float
    span: Optional[TraceSpan]
    fork: Optional[Tracer]


class _InlineExecutor(Executor):
    """The one-lane pool: runs each submission on the calling thread.

    A single lane needs no thread, but it needs everything else the
    supervisor does with a future — retry containment, counter absorb,
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


def _spawn_pool(pool: str, lanes: int) -> Executor:
    """Create the executor for ``lanes`` lanes, or raise the typed error.

    One lane runs in the calling thread; more spawn the requested pool.

    Raises:
        ParallelExecutionError: the pool could not be created (e.g. the
            platform refuses new threads/processes) — the degradation
            ladder's cue to leave the parallel rung.
    """
    if lanes == 1:
        return _InlineExecutor()
    try:
        if pool == "process":
            return ProcessPoolExecutor(max_workers=lanes)
        return ThreadPoolExecutor(
            max_workers=lanes, thread_name_prefix="repro-partition"
        )
    except (OSError, RuntimeError, ValueError) as error:
        raise ParallelExecutionError(
            f"could not spawn the {pool} worker pool ({lanes} lanes): {error}"
        ) from error


class _Supervisor:
    """State machine for one partitioned run.

    Single-threaded by construction: only lane bodies run on pool
    threads, and they touch nothing but their private counters, their
    forked tracer, and the (thread-safe) shared guard.  Every other
    mutation — dispatch, retry, straggler re-dispatch, counter merge,
    span adoption — happens on the supervising thread.
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
        retry: RetryPolicy,
        clock: Callable[[], float],
    ):
        self.root = root
        self.certificate = certificate
        self.partitions = certificate.partitions
        self.options = options
        # What each lane runs: the requested mode, single-threaded, with
        # no ladder of its own (a lane's failure is the supervisor's).
        self.lane_options = dataclasses.replace(options, parallel="off", fallback=False)
        self.lanes = min(options.lanes, len(self.partitions))
        # Process lanes share no object with the supervisor: they get
        # leaf slices pickled as their own windows, no guard, no tracer.
        self.in_process = options.pool == "process" and self.lanes > 1
        self.counters = counters
        self.guard = guard
        self.tracer = tracer if active(tracer) else None
        self.hists = hists
        self.retry = retry
        self.clock = clock
        self.paths = plan_paths(root)
        self.subplans: dict[int, PhysicalPlan] = {}
        self.parallel_span: Optional[TraceSpan] = None

    # -- tracing helpers -----------------------------------------------------

    def _event(self, name: str, **attrs: object) -> None:
        """Record a point event on the run's ``parallel`` span."""
        if self.tracer is not None and self.parallel_span is not None:
            self.tracer.event(self.parallel_span, name, **attrs)

    def _begin_partition_span(
        self, partition: PartitionRange, attempt: int
    ) -> Optional[TraceSpan]:
        """Open the ``partition`` span for one dispatch attempt."""
        if self.tracer is None:
            return None
        return self.tracer.begin(
            "partition",
            CATEGORY_ENGINE,
            attrs={
                "index": partition.index,
                "window": str(partition.window),
                "attempt": attempt,
            },
            parent=self.parallel_span,
        )

    def _close_span(
        self, span: Optional[TraceSpan], fork: Optional[Tracer], **attrs: object
    ) -> None:
        """Adopt the attempt's forked spans and close its partition span."""
        if self.tracer is None or span is None:
            return
        if fork is not None:
            self.tracer.adopt(fork, under=span)
        span.attrs.update(attrs)
        self.tracer.end(span)

    # -- histogram accounting ------------------------------------------------

    def _observe_lane(
        self, worker_counters: ExecutionCounters, dispatched_at: float
    ) -> None:
        """Fold one winning attempt's lane histograms into the query's.

        Mirrors the counter merge exactly: a private per-attempt
        :class:`HistogramSet` is observed and then merged — never
        written concurrently — so histogram accounting follows the
        same single-owner discipline as ``counters.merge_from``.
        Called only where a winning attempt is absorbed, so discarded
        speculative losers and failed attempts contribute nothing,
        just like their counters.
        """
        if self.hists is None:
            return
        lane = HistogramSet()
        lane.observe(
            "partition.duration_us",
            max((self.clock() - dispatched_at) * 1e6, 0.0),
        )
        lane.observe("partition.records", worker_counters.records_emitted)
        lane.observe("partition.batches", worker_counters.batches_built)
        self.hists.merge_from(lane)

    # -- the serial, deterministic preparation phase -------------------------

    def prepare(self, index: int) -> PhysicalPlan:
        """Build (or rebuild) one partition's subplan, with containment.

        Slicing reads the stored leaves through the shared buffer pool,
        so this is where injected storage faults surface.  Preparation
        runs serially in partition order on the supervisor thread —
        that is what makes seeded fault traces identical across worker
        counts — and a transient fault that survived the buffer pool's
        own retries earns this partition a bounded rebuild before the
        typed error escapes to the query.

        Raises:
            TransientStorageError: the retry budget was exhausted.
            PermanentStorageError: never retried; fails the query fast.
            CorruptPageError: never retried; fails the query fast.
        """
        partition = self.partitions[index]
        last: Optional[TransientStorageError] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            if attempt > 1:
                self.counters.partition_retries += 1
                self._event(
                    "parallel:retry",
                    partition=index,
                    attempt=attempt,
                    phase="prepare",
                )
            try:
                subplan = partition_plan(self.root, partition, self.paths)
                self.subplans[index] = subplan
                return subplan
            except TransientStorageError as error:
                last = error
        assert last is not None
        raise last

    # -- the one partition loop ----------------------------------------------

    def run(self) -> BaseSequence:
        """Prepare, execute, absorb and merge every certified partition.

        With more than one lane every thread worker observes (through
        the shared guard) a child token linked under the caller's, so
        the supervisor can stop what is still in flight without ever
        marking the caller's token; the guard's own token is restored
        however the run ends.

        Raises:
            ParallelExecutionError: pool spawn/submit failure or worker
                death outside the typed hierarchy (the ladder's cue).
            QueryTimeoutError: a straggler stayed unanswered one soft
                timeout past its speculative re-dispatch, or the shared
                guard's deadline passed.
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
                    "pool": self.options.pool,
                    "mode": self.options.mode,
                },
            )
        caller_guard = self.guard
        siblings = CancellationToken(
            parent=caller_guard.cancellation if caller_guard is not None else None
        )
        try:
            for index in range(len(self.partitions)):
                self.prepare(index)
            if self.lanes > 1:
                if caller_guard is None:
                    self.guard = QueryGuard(cancellation=siblings)
                    self.guard.start()
                else:
                    caller_guard.cancellation = siblings
            outputs = self._drive(siblings)
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

    def _drive(self, siblings: CancellationToken) -> list[BaseSequence]:
        """Dispatch partitions onto the lanes until each has one answer.

        At most ``lanes`` attempts are kept in flight, topped up in
        partition order, so one lane executes the partitions strictly
        in sequence and fails at the first failure.
        """
        parts = len(self.partitions)
        executor = _spawn_pool(self.options.pool, self.lanes)
        backlog = deque(range(parts))
        pending: dict[Future, _Attempt] = {}
        results: dict[int, BaseSequence] = {}
        speculated: set[int] = set()
        failure: Optional[BaseException] = None
        try:
            while failure is None and len(results) < parts:
                while backlog and len(pending) < self.lanes:
                    self._submit(executor, backlog.popleft(), 1, pending)
                done, _ = wait(
                    set(pending), timeout=_WAIT_TICK, return_when=FIRST_COMPLETED
                )
                for future in [future for future in pending if future in done]:
                    attempt = pending.pop(future)
                    failure = self._absorb(executor, future, attempt, pending, results)
                    if failure is not None:
                        break
                if failure is None:
                    failure = self._police(executor, pending, results, speculated)
            if failure is not None:
                raise failure
        finally:
            # Fan-out: whatever is still in flight — the siblings of a
            # failed partition, or the loser of a straggler race whose
            # partition is already answered — stops at its next guard
            # checkpoint.  Threads cannot be killed, so the shutdown
            # does not wait on them; they die with a
            # QueryCancelledError nobody reads, and their forks are
            # never adopted.
            if pending:
                siblings.cancel()
            executor.shutdown(wait=False, cancel_futures=True)
            for attempt in pending.values():
                self._close_span(attempt.span, None, discarded=True)
        return [results[index] for index in range(parts)]

    def _submit(
        self,
        executor: Executor,
        index: int,
        attempt_number: int,
        pending: dict[Future, _Attempt],
    ) -> None:
        """Dispatch one attempt of one partition onto a lane.

        Raises:
            ParallelExecutionError: the pool refused the submission
                (e.g. a broken process pool) — an infrastructure
                failure, so it wears the ladder's class.
        """
        partition = self.partitions[index]
        span = self._begin_partition_span(partition, attempt_number)
        guard = fork = None
        if not self.in_process:
            guard = self.guard
            fork = self.tracer.fork() if self.tracer is not None else None
        dispatched_at = self.clock()
        try:
            future = executor.submit(
                _execute_partition,
                self.subplans[index],
                partition.window,
                self.lane_options,
                guard,
                fork,
            )
        except RuntimeError as error:
            self._close_span(span, fork, error=type(error).__name__)
            raise ParallelExecutionError(
                f"worker pool rejected partition {index}: {error}",
                partition_index=index,
            ) from error
        pending[future] = _Attempt(
            index=index,
            number=attempt_number,
            dispatched_at=dispatched_at,
            span=span,
            fork=fork,
        )

    def _absorb(
        self,
        executor: Executor,
        future: Future,
        attempt: _Attempt,
        pending: dict[Future, _Attempt],
        results: dict[int, BaseSequence],
    ) -> Optional[BaseException]:
        """Fold one completed attempt into the run; classify failures.

        Returns the query-level failure this completion causes, or
        None when the run should continue (success, a contained retry,
        or a discarded speculative loser).  Exactly one attempt per
        partition ever lands in ``results``, so counters merge once and
        the position-order merge sees no duplicates.
        """
        index = attempt.index
        if index in results:
            # The loser of a speculative straggler race: its work is
            # discarded, successful or not, so it must not double-merge
            # counters or turn an already-answered partition into an
            # error.
            self._close_span(attempt.span, attempt.fork, discarded=True)
            return None
        error = future.exception()
        if error is None:
            output, worker_counters = future.result()
            results[index] = output
            self.counters.merge_from(worker_counters)
            self.counters.partitions_executed += 1
            self._observe_lane(worker_counters, attempt.dispatched_at)
            if self.guard is not None and self.in_process:
                # Process lanes cannot share the guard object; charge
                # their emissions at the partition boundary instead.
                self.guard.note_records(worker_counters.records_emitted)
            self._close_span(
                attempt.span, attempt.fork, records=worker_counters.records_emitted
            )
            return None
        self._close_span(attempt.span, attempt.fork, error=type(error).__name__)
        if isinstance(error, TransientStorageError):
            if attempt.number < self.retry.max_attempts:
                self.counters.partition_retries += 1
                self._event(
                    "parallel:retry",
                    partition=index,
                    attempt=attempt.number + 1,
                    phase="execute",
                )
                try:
                    self.prepare(index)
                    self._submit(executor, index, attempt.number + 1, pending)
                    return None
                except (StorageError, ParallelExecutionError) as rebuild_error:
                    return rebuild_error
            return error
        if isinstance(error, ReproError):
            # A typed verdict — guard verdict, storage fault, internal
            # execution error — is the query's outcome; sibling
            # cancellation echoes never reach here because the
            # supervisor stops reading futures after the first failure.
            return error
        return ParallelExecutionError(
            f"partition {index} worker died with untyped "
            f"{type(error).__name__}: {error}",
            partition_index=index,
        )

    def _police(
        self,
        executor: Executor,
        pending: dict[Future, _Attempt],
        results: dict[int, BaseSequence],
        speculated: set[int],
    ) -> Optional[BaseException]:
        """Between completions: guard checkpoint + straggler watch.

        The straggler clock for a partition restarts at its youngest
        dispatch (retry or speculation), so a fresh attempt always
        gets a full soft-timeout window before the next escalation.
        """
        if self.guard is not None:
            try:
                self.guard.checkpoint()
            except QueryGuardError as verdict:
                return verdict
        soft_timeout = self.options.straggler_timeout
        if soft_timeout is None:
            return None
        now = self.clock()
        youngest: dict[int, float] = {}
        for attempt in pending.values():
            if attempt.index in results:
                continue
            known = youngest.get(attempt.index)
            if known is None or attempt.dispatched_at > known:
                youngest[attempt.index] = attempt.dispatched_at
        for index, dispatched_at in sorted(youngest.items()):
            if now - dispatched_at <= soft_timeout:
                continue
            if index not in speculated:
                speculated.add(index)
                self.counters.stragglers_redispatched += 1
                self._event(
                    "parallel:straggler", partition=index, soft_timeout=soft_timeout
                )
                try:
                    self._submit(executor, index, 2, pending)
                except ParallelExecutionError as error:
                    return error
            else:
                return QueryTimeoutError(
                    f"partition {index} missed its {soft_timeout:g}s "
                    "straggler deadline twice (original and speculative "
                    "re-dispatch); declaring the query timed out",
                    timeout_seconds=soft_timeout,
                    elapsed_seconds=now - dispatched_at,
                )
        return None


def supervise(
    root: PhysicalPlan,
    certificate: PartitionCertificate,
    options: ExecOptions,
    counters: ExecutionCounters,
    guard: Optional[QueryGuard] = None,
    tracer: Optional[Tracer] = None,
    hists: Optional[HistogramSet] = None,
    *,
    retry: RetryPolicy = DEFAULT_PARTITION_RETRY,
    clock: Callable[[], float] = time.monotonic,
) -> BaseSequence:
    """Run a checked certificate's partitions under already-validated options.

    What :func:`execute_parallel` and the engine's parallel rung share:
    the caller has validated ``options``, vouches for the
    (plan, certificate) pair, and has armed the guard.
    """
    return _Supervisor(
        root, certificate, options, counters, guard, tracer, hists, retry, clock
    ).run()


def execute_parallel(
    plan: "PhysicalPlan | OptimizedPlan",
    certificate: PartitionCertificate,
    *,
    counters: Optional[ExecutionCounters] = None,
    partition_counters: Optional[PartitionCounters] = None,
    guard: Optional[QueryGuard] = None,
    tracer: Optional[Tracer] = None,
    retry: RetryPolicy = DEFAULT_PARTITION_RETRY,
    clock: Callable[[], float] = time.monotonic,
    verify: bool = True,
    hists: Optional[HistogramSet] = None,
    **options: Any,
) -> BaseSequence:
    """Execute a certified plan across worker lanes, merging in order.

    Unchecked certificates are re-verified first; on top of that come
    the supervisor's fault containment, cancellation fan-out, shared
    budgets, and straggler handling (see the module docstring for the
    full contract).

    Args:
        plan: the stream-mode physical plan (or optimizer output) the
            certificate was issued for.
        certificate: a checked :class:`PartitionCertificate`; its
            partition count is independent of the lane count (more
            partitions than lanes queue onto free lanes).
        counters: execution counters; lanes merge into them through
            private per-attempt sets.
        partition_counters: partition-analysis counters charged by the
            certificate re-verification.
        guard: shared query governor.  Thread lanes observe it at
            every checkpoint (it is thread-safe); for the parallel
            section its cancellation token is *linked*, not replaced,
            so caller cancellation reaches lanes while sibling
            fan-out never marks the caller's token.  Process lanes
            cannot share it: their budgets are enforced at partition
            granularity.
        tracer: optional span tracer; the run records a ``parallel``
            span with one ``partition`` child span per attempt and
            ``parallel:retry`` / ``parallel:straggler`` events (process
            lanes' partition spans carry no operator children).
        retry: per-partition containment budget (default: the first
            dispatch plus one retry).
        clock: injectable time source for the straggler watch.
        verify: re-verify the certificate first (default).  Disable
            only when the caller just checked this exact pair.
        hists: optional :class:`~repro.obs.hist.HistogramSet` the
            supervisor folds per-partition lane observations into
            (``partition.duration_us`` / ``partition.records`` /
            ``partition.batches``), mirroring the counter merge: one
            private set per winning attempt, merged on the supervising
            thread only.
        **options: the execution knobs of
            :class:`~repro.execution.options.ExecOptions`.  ``mode`` and
            ``batch_size`` apply per partition; ``workers`` lanes
            (one lane executes on the calling thread) of the ``pool``
            kind; ``straggler_timeout`` arms the speculative
            re-dispatch, after which a partition still unanswered one
            soft timeout later raises
            :class:`~repro.errors.QueryTimeoutError`.

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
    return supervise(
        root, certificate, checked, counters, guard, tracer, hists, retry=retry, clock=clock
    )


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
