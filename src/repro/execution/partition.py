"""Certified partitioning: narrow a plan to one range, merge the answers.

This module consumes :class:`~repro.analysis.partition.PartitionCertificate`
artifacts: :func:`partition_plan` is the span-bounded subplan open path
the supervisor (:mod:`repro.execution.parallel`) prepares every
partition with, and :func:`merge_partitions` is its position-ordered
merge.

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
  ``iter_nonnull``, ``count_nonnull``, ``nonnull_columns``,
  ``column_runs`` — can reach a position outside it.  Probe-mode access
  paths read the leaf sequence directly, so without the slice an
  understated halo could silently read its neighbour partition's data
  and mask the analysis bug the harness exists to catch.

If the certificate's halos are exact, the merged answer equals the
unpartitioned answer; if they are understated, boundary outputs see
nulls where records should be and the differential tests fail loudly.

Uncertified plans are never silently partitioned:
:func:`~repro.execution.parallel.execute_partitioned` re-verifies the
certificate through the independent checker before opening anything.
"""

from __future__ import annotations

import dataclasses
from itertools import islice
from operator import lt
from typing import Optional

from repro.algebra.leaves import SequenceLeaf
from repro.analysis.base import plan_paths
from repro.analysis.partition import PartitionCertificate, PartitionRange
from repro.errors import ExecutionError
from repro.model.base import BaseSequence, ColumnarAnswer
from repro.model.span import Span
from repro.model.sequence import ColumnRun, Sequence
from repro.optimizer.plans import PhysicalPlan


def slice_sequence(sequence: Sequence, span: Span) -> BaseSequence:
    """``sequence`` as a partition may see it: only the positions in ``span``.

    The slice's span is the intersection — a position outside it maps
    to Null exactly as if the rest of the sequence never existed, which
    is the contract a partition's shard of a leaf must have.  An
    in-memory leaf hands out a window over what it already holds
    (:meth:`BaseSequence.restricted`: no record is copied, no column
    re-transposed); any other leaf is read here, on the calling thread,
    as the one column run covering the window — the page reads,
    checksums, ``records_streamed`` and seeded faults of a stream scan
    — and boxes lazily in whichever lane asks for records.
    """
    if isinstance(sequence, BaseSequence):
        return sequence.restricted(span)
    window = sequence.effective_window(span)
    # A run as wide as the window is never cut: the first is all of them.
    empty: ColumnRun = ([], tuple([] for _ in sequence.schema.attributes))
    positions, columns = next(sequence.column_runs(window, max(window.length(), 1)), empty)
    return ColumnarAnswer(sequence.schema, window, list(positions), columns)


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
            extras=dict(node.extras),
        )

    return clone(plan)


def merge_partitions(
    outputs: "list[BaseSequence]",
    certificate: PartitionCertificate,
) -> BaseSequence:
    """Concatenate per-partition answers in position order.

    The certificate's merge proof guarantees the partition windows are
    ascending, disjoint and contiguous, so concatenation *is* the
    position-ordered merge — of column buffers when every lane answered
    in columns, of record mappings otherwise; every adjacent pair of the
    merged positions is still re-checked as a cheap runtime tripwire.
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
