"""The simulated disk: a page store with access accounting.

Every page fetch and write is counted.  The disk is deliberately dumb —
placement policy lives in the physical organizations and caching in the
buffer pool — so the counters measure exactly the I/O a real disk-based
system would perform.
"""

from __future__ import annotations

from repro.errors import CorruptPageError, PermanentStorageError, StorageError
from repro.storage.counters import StorageCounters
from repro.storage.page import Page


class SimulatedDisk:
    """An accounting page store."""

    def __init__(self, page_capacity: int = 32, counters: StorageCounters | None = None):
        if page_capacity < 1:
            raise StorageError(f"page capacity must be >= 1, got {page_capacity}")
        self.page_capacity = page_capacity
        self.counters = counters if counters is not None else StorageCounters()
        self._pages: dict[int, Page] = {}
        self._next_id = 0

    def allocate(self, kind: str = Page.DATA, capacity: int | None = None) -> Page:
        """Create a fresh page (counted as one page write)."""
        page = Page(self._next_id, capacity or self.page_capacity, kind=kind)
        self._pages[page.page_id] = page
        self._next_id += 1
        self.counters.page_writes += 1
        return page

    def read(self, page_id: int) -> Page:
        """Fetch a page from disk (counted), validating its checksum.

        Raises:
            PermanentStorageError: if the page does not exist.
            CorruptPageError: if the page content no longer matches its
                checksum (corruption is detected, not returned).
        """
        try:
            page = self._pages[page_id]
        except KeyError:
            raise PermanentStorageError(f"no such page {page_id}") from None
        self.counters.page_reads += 1
        if page.kind == Page.INDEX:
            self.counters.index_node_reads += 1
        if not page.verify():
            self.counters.corrupt_pages_detected += 1
            raise CorruptPageError(
                f"page {page_id} failed its checksum", page_id=page_id
            )
        return page

    def peek(self, page_id: int) -> Page:
        """Fetch a page without counting (loader/test use only)."""
        try:
            return self._pages[page_id]
        except KeyError:
            raise StorageError(f"no such page {page_id}") from None
