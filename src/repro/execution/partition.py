"""Certified partitioned execution (DESIGN §14).

This module consumes :class:`~repro.analysis.partition.PartitionCertificate`
artifacts: :func:`partition_plan` narrows a plan to one certified range,
:func:`run_partitions` prepares and executes every range in partition
order on the calling thread, and :func:`merge_partitions` concatenates
the answers in position order.  :func:`execute_partitioned` is the
public entry; the engine's ``parallel`` rung calls :func:`run_partitions`
with the certificate it just issued.

The subplan of one partition is deliberately hostile to unsound
certificates:

* every plan node of the per-partition subplan has its span narrowed to
  exactly the certificate's recorded input span for that node (the
  stream builders open children over the children's plan spans, so the
  narrowing bounds what is actually read); and
* every leaf sequence is replaced by a **slice** holding the certified
  leaf span and nothing else (:func:`slice_sequence`): a window over
  an in-memory leaf's own buffers and records, or a stored leaf's
  window drained once into columns.  No accessor of a slice — ``at``,
  ``iter_nonnull``, ``count_nonnull``, ``column_runs`` — can reach a
  position outside it.  Probe-mode access paths read the leaf sequence
  directly, so without the slice an understated halo could silently
  read its neighbour partition's data and mask the analysis bug the
  harness exists to catch.

If the certificate's halos are exact, the merged answer equals the
unpartitioned answer; if they are understated, boundary outputs see
nulls where records should be and the differential tests fail loudly.
Uncertified plans are never silently partitioned:
:func:`execute_partitioned` re-verifies the certificate through the
independent checker before opening anything.

Under any fault the run returns the exact answer or a typed error.
Every partition is prepared, in order, before the first one executes;
preparing drains every stored leaf, so it is the only phase that reads
a page, and a seeded :class:`~repro.storage.faults.FaultPlan` injects
the same fault trace at any partition count.  A
:class:`~repro.errors.TransientStorageError` that escaped the buffer
pool's own read-level retries rebuilds just that partition
(``partition_retries``); permanent and corrupt-page faults fail the
query fast.  Each partition then runs once, charging the caller's
counters and guard directly, so ``max_records`` / ``max_pages`` / the
deadline bound the *query*, and its typed error is the query's.
"""

from __future__ import annotations

import dataclasses
import time
from itertools import islice
from operator import lt
from typing import Any, Optional

from repro.algebra.leaves import SequenceLeaf
from repro.analysis.base import plan_paths, root_plan
from repro.analysis.partition import (
    PartitionCertificate,
    PartitionCounters,
    PartitionRange,
    require_certificate,
)
from repro.errors import ExecutionError, TransientStorageError
from repro.execution.counters import ExecutionCounters
from repro.execution.guard import QueryGuard
from repro.execution.lane import materialize, started
from repro.execution.options import ExecOptions
from repro.model.base import BaseSequence
from repro.model.span import Span
from repro.model.sequence import ColumnRun, Sequence
from repro.obs.hist import HistogramSet
from repro.obs.instrument import stored_leaf_counters
from repro.obs.tracer import CATEGORY_ENGINE, Tracer, TraceSpan, maybe_span
from repro.optimizer.plans import OptimizedPlan, PhysicalPlan

#: Builds of one partition before a transient fault escapes: the first
#: plus one rebuild.  Read-level transient faults are already retried
#: inside the buffer pool, so this is a second line of defence.
PREPARE_ATTEMPTS = 2


def slice_sequence(sequence: Sequence, span: Span) -> BaseSequence:
    """``sequence`` as a partition may see it: only the positions in ``span``.

    The slice's span is the intersection — a position outside it maps
    to Null exactly as if the rest of the sequence never existed, which
    is the contract a partition's shard of a leaf must have.  An
    in-memory leaf hands out a window over what it already holds
    (:meth:`BaseSequence.restricted`: no record is copied, no column
    re-transposed); any other leaf is read here, while the partition is
    prepared, as the one column run covering the window — the page
    reads, checksums, ``records_streamed`` and seeded faults of a stream
    scan — and boxes lazily when the partition asks for records.
    """
    if isinstance(sequence, BaseSequence):
        return sequence.restricted(span)
    window = sequence.effective_window(span)
    # A run as wide as the window is never cut: the first is all of them.
    empty: ColumnRun = ([], tuple([] for _ in sequence.schema.attributes))
    positions, columns = next(sequence.column_runs(window, max(window.length(), 1)), empty)
    return BaseSequence.unchecked(sequence.schema, window, list(positions), columns=columns)


def partition_plan(
    plan: PhysicalPlan,
    partition: PartitionRange,
    paths: Optional[dict[int, str]] = None,
) -> PhysicalPlan:
    """Clone ``plan`` narrowed to one certified partition's input spans.

    Every node's span becomes the certificate's recorded span for that
    node; every base-sequence leaf is rebuilt over a slice of its
    sequence (see the module docstring for why slicing, not just span
    narrowing, is required).

    Args:
        plan: the full physical plan the certificate covers.
        partition: the certified partition to narrow to.
        paths: precomputed :func:`plan_paths` of ``plan`` (recomputed
            when omitted).

    Raises:
        ExecutionError: when the certificate records no span for some
            plan node (a malformed or mismatched certificate).
    """
    resolved_paths = plan_paths(plan) if paths is None else paths

    def clone(node: PhysicalPlan) -> PhysicalPlan:
        path = resolved_paths[id(node)]
        narrowed = partition.node_spans.get(path)
        if narrowed is None:
            raise ExecutionError(
                f"partition {partition.index}: certificate records no input "
                f"span for plan node {path}"
            )
        children = tuple(clone(child) for child in node.children)
        operator = node.node
        if not node.children and isinstance(operator, SequenceLeaf):
            leaf_span = partition.leaf_spans.get(path, narrowed)
            operator = SequenceLeaf(
                slice_sequence(operator.sequence, leaf_span),
                alias=operator.alias,
            )
        return dataclasses.replace(
            node,
            node=operator,
            children=children,
            span=narrowed,
        )

    return clone(plan)


def merge_partitions(
    outputs: "list[BaseSequence]",
    certificate: PartitionCertificate,
) -> BaseSequence:
    """Concatenate per-partition answers in position order.

    The certificate's merge proof guarantees the partition windows are
    ascending, disjoint and contiguous, so concatenation *is* the
    position-ordered merge — of column buffers when every partition
    holds its columns, of record lists otherwise; every adjacent
    pair of the merged positions is still re-checked as a cheap runtime
    tripwire.
    """
    if len(outputs) != len(certificate.partitions):
        raise ExecutionError(
            f"expected {len(certificate.partitions)} partition outputs, "
            f"got {len(outputs)}"
        )
    if not outputs:
        raise ExecutionError("cannot merge zero partition outputs")
    merged = BaseSequence.concatenated(outputs, certificate.root_span)
    positions = merged.positions
    if not all(map(lt, positions, islice(positions, 1, None))):
        at = list(map(lt, positions, islice(positions, 1, None))).index(False)
        raise ExecutionError(
            f"partition outputs are not position-ordered: {positions[at + 1]} "
            f"after {positions[at]}"
        )
    return merged


def _prepare(
    root: PhysicalPlan,
    partition: PartitionRange,
    paths: dict[int, str],
    counters: ExecutionCounters,
    tracer: Optional[Tracer],
    span: Optional[TraceSpan],
) -> PhysicalPlan:
    """Build one partition's subplan, rebuilding once on a transient fault.

    Raises:
        TransientStorageError: the rebuild failed too.
        PermanentStorageError: never retried; fails the query fast.
        CorruptPageError: never retried; fails the query fast.
    """
    for attempt in range(2, PREPARE_ATTEMPTS + 1):
        try:
            return partition_plan(root, partition, paths)
        except TransientStorageError:
            counters.partition_retries += 1
            if tracer is not None and span is not None:
                tracer.event(span, "parallel:retry", partition=partition.index, attempt=attempt)
    return partition_plan(root, partition, paths)


def _execute_partition(
    subplan: PhysicalPlan,
    window: Span,
    options: ExecOptions,
    counters: ExecutionCounters,
    guard: Optional[QueryGuard],
    tracer: Optional[Tracer],
) -> BaseSequence:
    """Execute one prepared partition subplan in its own ``execute`` frame.

    Module-level so tests can intercept it.
    """
    with started(subplan, window, counters, options, guard, tracer) as (window, ctx, _span):
        return materialize(ctx, subplan, window, options.mode)


def run_partitions(
    root: PhysicalPlan,
    certificate: PartitionCertificate,
    options: ExecOptions,
    counters: ExecutionCounters,
    guard: Optional[QueryGuard] = None,
    tracer: Optional[Tracer] = None,
    hists: Optional[HistogramSet] = None,
) -> BaseSequence:
    """Prepare, execute and merge a checked certificate's partitions.

    The caller has validated ``options``, vouches for the (plan,
    certificate) pair and has armed the guard.  Each partition runs
    under ``options``' mode and batch size with no ladder of its own
    (its failure is the query's), in a ``partition`` span under one
    ``parallel`` span; its ``partition.duration_us`` / ``.records`` /
    ``.batches`` are observed into ``hists``.

    Raises:
        TransientStorageError: a partition's rebuild failed too.
        ReproError: any typed verdict a partition raised (guard verdicts
            and storage faults pass through untouched).
    """
    partitions = certificate.partitions
    paths = plan_paths(root)
    each = dataclasses.replace(options, parallel="off", fallback=False)
    with maybe_span(
        tracer, "parallel", CATEGORY_ENGINE, parts=len(partitions), mode=options.mode
    ) as parallel_span:
        try:
            subplans = [
                _prepare(root, partition, paths, counters, tracer, parallel_span)
                for partition in partitions
            ]
            outputs = []
            for partition, subplan in zip(partitions, subplans):
                records, batches = counters.records_emitted, counters.batches_built
                began = time.perf_counter()
                with maybe_span(
                    tracer,
                    "partition",
                    CATEGORY_ENGINE,
                    index=partition.index,
                    window=str(partition.window),
                ) as span:
                    outputs.append(
                        _execute_partition(
                            subplan, partition.window, each, counters, guard, tracer
                        )
                    )
                    if span is not None:
                        span.attrs["records"] = counters.records_emitted - records
                counters.partitions_executed += 1
                if hists is not None:
                    hists.observe("partition.duration_us", (time.perf_counter() - began) * 1e6)
                    hists.observe("partition.records", counters.records_emitted - records)
                    hists.observe("partition.batches", counters.batches_built - batches)
        finally:
            if parallel_span is not None:
                parallel_span.attrs["partitions_executed"] = counters.partitions_executed
    # For one partition the certificate's cover proof makes its window
    # the root span, so the output *is* the answer — skipping the
    # re-copy is what holds the one-partition path inside the
    # benchmark's overhead budget.
    if len(outputs) == 1:
        return outputs[0]
    return merge_partitions(outputs, certificate)


def execute_partitioned(
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
    """Execute a certified plan partition by partition, merging in order.

    The differential harness's engine half: the certificate is
    re-verified before anything opens, then :func:`run_partitions`
    follows the module docstring's contract.

    Args:
        plan: the stream-mode physical plan (or optimizer output) the
            certificate was issued for.
        certificate: a checked :class:`PartitionCertificate`; it alone
            decides how many partitions run.
        counters: execution counters every partition charges.
        partition_counters: partition-analysis counters charged by the
            certificate re-verification.
        guard: query governor every partition observes, so its budgets
            and deadline bound the whole query.
        tracer: optional span tracer; the run records a ``parallel``
            span with one ``partition`` child span per partition (each
            parenting that partition's ``execute`` frame and operator
            spans) and a ``parallel:retry`` event per prepare rebuild.
        verify: re-verify the certificate first (default).  Disable
            only when the caller just checked this exact pair.
        hists: optional :class:`~repro.obs.hist.HistogramSet` that
            receives ``partition.duration_us`` / ``partition.records``
            / ``partition.batches``, one observation per partition.
        **options: the execution knobs of
            :class:`~repro.execution.options.ExecOptions`; ``mode`` and
            ``batch_size`` apply per partition.

    Raises:
        ExecutionError: for an invalid or unknown knob, before the
            certificate is checked or any page is read.
        PartitionSoundnessError: when ``verify`` finds the certificate
            unsound — never silently partitioned.
        ReproError: any typed verdict from a partition, unchanged.
    """
    checked = ExecOptions.of(options, guard)
    root = root_plan(plan)
    if verify:
        require_certificate(root, certificate, counters=partition_counters)
    counters = counters if counters is not None else ExecutionCounters()
    if guard is not None:
        guard.start()
        for disk in stored_leaf_counters(root):
            guard.watch_storage(disk)
    return run_partitions(root, certificate, checked, counters, guard, tracer, hists)
