"""Disk-resident sequences.

A :class:`StoredSequence` is a base sequence whose records live on the
simulated disk under one of the physical organizations.  It implements
the full :class:`~repro.model.sequence.Sequence` interface (probed
``at`` and streaming ``iter_nonnull``) while counting every access, and
exposes the :class:`~repro.storage.organizations.AccessProfile` the
optimizer's cost model consumes (paper Section 4.1.1).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import StorageError
from repro.model.record import NULL, Record, RecordOrNull
from repro.model.schema import RecordSchema
from repro.model.sequence import ColumnRun, Sequence, column_runs_of
from repro.model.span import Span
from repro.storage.buffer import BufferPool
from repro.storage.counters import StorageCounters
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, FaultyDisk, RetryPolicy
from repro.storage.organizations import (
    AccessProfile,
    PhysicalOrganization,
    make_organization,
)


class StoredSequence(Sequence):
    """A base sequence stored on the simulated disk."""

    def __init__(
        self,
        name: str,
        schema: RecordSchema,
        organization: PhysicalOrganization,
        span: Span,
        counters: StorageCounters,
        pool: BufferPool,
        disk: Optional[SimulatedDisk] = None,
    ):
        self._name = name
        self._schema = schema
        self._organization = organization
        self._span = span
        self._counters = counters
        self._pool = pool
        self._disk = disk

    # -- construction -------------------------------------------------------

    @classmethod
    def create(
        cls,
        name: str,
        schema: RecordSchema,
        items: Iterable[tuple[int, Record]],
        *,
        span: Optional[Span] = None,
        organization: str = "clustered",
        page_capacity: int = 32,
        buffer_pages: int = 16,
        index_fanout: int = 64,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> "StoredSequence":
        """Bulk-load a stored sequence.

        Args:
            name: catalog name of the sequence.
            schema: record schema; all records must conform.
            items: ``(position, record)`` pairs in any order.
            span: declared valid range (defaults to the tight hull).
            organization: one of ``clustered``, ``indexed``, ``log``.
            page_capacity: records per data page.
            buffer_pages: LRU buffer pool size in pages.
            index_fanout: B-tree fanout for the indexed organization.
            seed: shuffle seed for the indexed organization's placement.
            fault_plan: when given, back the sequence with a
                :class:`~repro.storage.faults.FaultyDisk` injecting the
                plan's faults on every page read (loading is fault-free).
            retry_policy: transient-fault retry policy for the buffer
                pool (defaults to the pool's bounded-backoff default).
        """
        for knob, size, least in (
            ("page_capacity", page_capacity, 1),
            ("buffer_pages", buffer_pages, 1),
            ("index_fanout", index_fanout, 2),
        ):
            if not isinstance(size, int) or isinstance(size, bool) or size < least:
                raise StorageError(f"{knob} must be an int >= {least}, got {size!r}")
        records: dict[int, Record] = {}
        for position, record in items:
            if not isinstance(position, int) or isinstance(position, bool):
                raise StorageError(f"position must be an int, got {position!r}")
            if record is NULL:
                continue  # explicit Nulls are simply empty positions
            if not isinstance(record, Record) or record.schema != schema:
                raise StorageError(
                    f"record at {position} does not match schema {schema!r}"
                )
            if position in records:
                raise StorageError(f"duplicate position {position} in load")
            records[position] = record
        pairs = sorted(records.items())
        if span is None:
            span = Span(pairs[0][0], pairs[-1][0]) if pairs else Span.EMPTY
        else:
            for position, _record in pairs:
                if position not in span:
                    raise StorageError(
                        f"position {position} outside declared span {span}"
                    )

        counters = StorageCounters()
        if fault_plan is not None:
            disk: SimulatedDisk = FaultyDisk(
                fault_plan,
                page_capacity=page_capacity,
                counters=counters,
                label=name,
            )
        else:
            disk = SimulatedDisk(page_capacity=page_capacity, counters=counters)
        pool = BufferPool(disk, capacity=buffer_pages, retry_policy=retry_policy)
        org = make_organization(
            organization, disk, pool, fanout=index_fanout, seed=seed
        )
        org.load((pos, rec.values) for pos, rec in pairs)
        return cls(name, schema, org, span, counters, pool, disk=disk)

    @classmethod
    def from_sequence(
        cls,
        name: str,
        source: Sequence,
        *,
        organization: str = "clustered",
        page_capacity: int = 32,
        buffer_pages: int = 16,
        index_fanout: int = 64,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> "StoredSequence":
        """Materialize any sequence onto the simulated disk."""
        return cls.create(
            name,
            source.schema,
            source.iter_nonnull(),
            span=source.span,
            organization=organization,
            page_capacity=page_capacity,
            buffer_pages=buffer_pages,
            index_fanout=index_fanout,
            seed=seed,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        )

    # -- Sequence interface ---------------------------------------------------

    @property
    def name(self) -> str:
        """The catalog name of this sequence."""
        return self._name

    @property
    def schema(self) -> RecordSchema:
        return self._schema

    @property
    def span(self) -> Span:
        return self._span

    @property
    def counters(self) -> StorageCounters:
        """The live access counters for this sequence's disk."""
        return self._counters

    @property
    def organization_kind(self) -> str:
        """The physical organization name."""
        return self._organization.kind

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """The fault plan driving this sequence's disk, if any."""
        if isinstance(self._disk, FaultyDisk):
            return self._disk.plan
        return None

    @property
    def retry_policy(self) -> RetryPolicy:
        """The buffer pool's transient-fault retry policy."""
        return self._pool.retry_policy

    def at(self, position: int) -> RecordOrNull:
        if position not in self._span:
            return NULL
        self._counters.probes += 1
        values = self._organization.probe(position)
        if values is None:
            return NULL
        return Record(self._schema, values)

    def iter_nonnull(self, within: Optional[Span] = None) -> Iterator[tuple[int, Record]]:
        window = self._span if within is None else self._span.intersect(within)
        for positions, rows in self._organization.scan_pages(window):
            for position, values in zip(positions, rows):
                self._counters.records_streamed += 1
                yield position, Record(self._schema, values)

    def column_runs(self, within: Optional[Span], width: int) -> Iterator[ColumnRun]:
        """Page chunks regrouped into one run per batch: the read streams,
        holding at most one batch (plus one page) of the window at a time."""
        window = self._span if within is None else self._span.intersect(within)
        for run in column_runs_of(self._organization.scan_pages(window), self._schema, width):
            self._counters.records_streamed += len(run[0])
            yield run

    def count_nonnull(self, within: Optional[Span] = None) -> int:
        """The load-time record count when the window covers the span
        (no page is read); a narrower window scans, like any stream access."""
        if within is None or within.covers(self._span):
            return self.record_count()
        return super().count_nonnull(within)

    def density(self) -> float:
        length = self._span.length()
        if not length:
            return 0.0
        return self._organization.record_count / length

    # -- optimizer hooks --------------------------------------------------------

    def access_profile(self) -> AccessProfile:
        """Estimated stream/probe costs (the paper's A and a)."""
        return self._organization.profile()

    def record_count(self) -> int:
        """Number of stored records (exact, from load time)."""
        return self._organization.record_count

    def reset_counters(self) -> StorageCounters:
        """Zero the counters, returning the pre-reset snapshot."""
        snap = self._counters.snapshot()
        self._counters.reset()
        return snap

    def flush_buffer(self) -> None:
        """Drop buffered pages so a fresh run starts cold."""
        self._pool.flush()

    def __repr__(self) -> str:
        return (
            f"StoredSequence({self._name!r}, org={self.organization_kind}, "
            f"span={self._span!r}, records={self.record_count()})"
        )
