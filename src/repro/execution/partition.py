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
* every stored leaf sequence is **physically sliced** to the certified
  leaf span — positions outside it are gone, not merely out of a
  declared span.  Probe-mode access paths read the underlying sequence
  directly, so without the slice an understated halo could silently
  read its neighbour partition's data and mask the analysis bug the
  harness exists to catch.

If the certificate's halos are exact, the merged answer equals the
unpartitioned answer; if they are understated, boundary outputs see
nulls where records should be and the differential tests fail loudly.

Uncertified plans are never silently partitioned:
:func:`~repro.execution.parallel.execute_partitioned` re-verifies the
certificate through the independent checker before opening anything.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.algebra.leaves import SequenceLeaf
from repro.analysis.base import plan_paths
from repro.analysis.partition import PartitionCertificate, PartitionRange
from repro.errors import ExecutionError
from repro.model.base import BaseSequence
from repro.model.record import Record
from repro.model.span import Span
from repro.model.sequence import Sequence
from repro.optimizer.plans import PhysicalPlan


def slice_sequence(sequence: Sequence, span: Span) -> BaseSequence:
    """A physical copy of ``sequence`` holding only positions in ``span``.

    The slice's span is the intersection — a position outside it maps
    to Null exactly as if the rest of the sequence never existed, which
    is the contract a partition's shard of a stored sequence must have.
    """
    window = sequence.span.intersect(span)
    pairs: list[tuple[int, Record]] = list(sequence.iter_nonnull(window))
    return BaseSequence.unchecked(sequence.schema, pairs, span=window)


def partition_plan(
    plan: PhysicalPlan,
    partition: PartitionRange,
    paths: Optional[dict[int, str]] = None,
    *,
    copy_leaves: bool = True,
) -> PhysicalPlan:
    """Clone ``plan`` narrowed to one certified partition's input spans.

    Every node's span becomes the certificate's recorded span for that
    node; every base-sequence leaf is rebuilt over a physical slice of
    its stored sequence (see the module docstring for why slicing, not
    just span narrowing, is required).

    Args:
        plan: the full physical plan the certificate covers.
        partition: the certified partition to narrow to.
        paths: precomputed :func:`plan_paths` of ``plan`` (recomputed
            when omitted).
        copy_leaves: physically slice leaf sequences (the default, and
            the only sound choice when partitions execute
            concurrently).  ``False`` keeps the original leaf
            sequences and only narrows spans — valid solely for a
            single-partition plan executed in one thread, where the
            slice would be a full copy of the input for no isolation
            gain.

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
        if not node.children and isinstance(operator, SequenceLeaf) and copy_leaves:
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
    position-ordered merge; this function still re-checks ascending
    positions as a cheap runtime tripwire.
    """
    if len(outputs) != len(certificate.partitions):
        raise ExecutionError(
            f"expected {len(certificate.partitions)} partition outputs, "
            f"got {len(outputs)}"
        )
    pairs: list[tuple[int, Record]] = []
    last: Optional[int] = None
    schema = outputs[0].schema if outputs else None
    for output in outputs:
        for position, record in output.iter_nonnull():
            if last is not None and position <= last:
                raise ExecutionError(
                    f"partition outputs are not position-ordered: {position} "
                    f"after {last}"
                )
            pairs.append((position, record))
            last = position
    if schema is None:
        raise ExecutionError("cannot merge zero partition outputs")
    return BaseSequence.unchecked(schema, pairs, span=certificate.root_span)
