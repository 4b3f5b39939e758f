"""Cost accounting for the storage substrate.

The paper argues every optimization in terms of access counts (single
scans vs repeated probes, pages touched, cache operations).  These
counters make those quantities measurable, so benchmarks can compare the
optimizer's *estimated* costs against *actual* costs in the same units.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.counters import CounterSet


@dataclass
class StorageCounters(CounterSet):
    """Mutable counters of storage-level work.

    Attributes:
        page_reads: pages fetched from the simulated disk (buffer misses).
        page_writes: pages written to the simulated disk.
        buffer_hits: page requests satisfied by the buffer pool.
        records_streamed: records delivered by stream (scan) access.
        probes: point lookups of a record at a given position.
        index_node_reads: index pages traversed during probes (subset of
            ``page_reads`` when the index misses the buffer).
        buffer_evictions: resident pages dropped by the buffer pool to
            make room for a newly read page.
        faults_injected: storage faults injected by a
            :class:`~repro.storage.faults.FaultyDisk` (transient +
            permanent errors; latency and corruption are counted by
            their own counters).
        latency_events: reads the fault plan slowed down (simulated —
            counted, not slept).
        retries_attempted: re-reads issued by the buffer pool's
            :class:`~repro.storage.faults.RetryPolicy` after a
            transient fault.
        retries_exhausted: reads that still failed after the retry
            policy's final attempt.
        corrupt_pages_detected: reads rejected because the page
            checksum no longer matched its contents.
    """

    page_reads: int = 0
    page_writes: int = 0
    buffer_hits: int = 0
    records_streamed: int = 0
    probes: int = 0
    index_node_reads: int = 0
    buffer_evictions: int = 0
    faults_injected: int = 0
    latency_events: int = 0
    retries_attempted: int = 0
    retries_exhausted: int = 0
    corrupt_pages_detected: int = 0

    def __sub__(self, other: "StorageCounters") -> "StorageCounters":
        return StorageCounters(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __add__(self, other: "StorageCounters") -> "StorageCounters":
        return StorageCounters(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def total_page_accesses(self) -> int:
        """Pages fetched from disk — the paper's primary cost unit."""
        return self.page_reads
