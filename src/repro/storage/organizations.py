"""Physical organizations of stored sequences.

The paper (Sections 3.3, 4.1.1 and footnote 8) stresses that per-record
stream and probed access costs depend on the physical organization of
the sequence.  Three organizations are provided, spanning the
interesting cost regimes:

* ``clustered`` — records packed into pages in position order with an
  in-memory page directory.  Streams are sequential page reads; probes
  are a single page read.  (Both modes cheap.)
* ``indexed`` — records scattered across pages in arrival order, with a
  B-tree-style position index.  Probes cost ``height + 1`` page reads;
  a positional-order stream reads roughly one (random) data page per
  record, so streaming is *expensive* — the "relation with an
  unclustered index" of footnote 8.
* ``log`` — records appended in position order with no index.  Streams
  are cheap; a probe must scan from the head, so probes are *expensive*.
"""

from __future__ import annotations

import abc
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import CorruptPageError, StorageError
from repro.model.span import Span
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, Values

ORGANIZATION_KINDS = ("clustered", "indexed", "log")

#: What one data-page read delivers to a stream: the positions and the
#: value tuples of the page's in-window records, in position order.
PageChunk = tuple[Sequence[int], Sequence[Values]]

#: Data and index-leaf entries alike lead with their position.
_POSITION = itemgetter(0)


@dataclass(frozen=True)
class AccessProfile:
    """Estimated access costs of a stored sequence, in page-read units.

    Attributes:
        stream_total: estimated total cost of one full positional-order
            scan of the sequence (the paper's ``A``).
        probe_unit: estimated cost of fetching the record at one given
            position (the paper's ``a``).
    """

    stream_total: float
    probe_unit: float


class PhysicalOrganization(abc.ABC):
    """A placement + access-path strategy over the simulated disk."""

    kind: str = "abstract"

    def __init__(self, disk: SimulatedDisk, pool: BufferPool):
        self._disk = disk
        self._pool = pool
        self._count = 0

    @property
    def record_count(self) -> int:
        """Number of stored (non-Null) records."""
        return self._count

    @abc.abstractmethod
    def load(self, items: Iterable[tuple[int, Values]]) -> None:
        """Bulk-load ``(position, values)`` pairs sorted by position."""

    @abc.abstractmethod
    def scan_pages(self, window: Span) -> Iterator[PageChunk]:
        """Yield the records within ``window`` a data-page read at a time.

        Chunks are non-empty and ascending in position, and no data page
        is read ahead of the chunk being yielded: a consumer that stops
        early (a guard trip, a finished join) has read no page in vain.
        """

    @abc.abstractmethod
    def probe(self, position: int) -> Optional[Values]:
        """The values stored at ``position``, or None."""

    @abc.abstractmethod
    def profile(self) -> AccessProfile:
        """Estimated stream/probe costs for the cost model."""


class ClusteredOrganization(PhysicalOrganization):
    """Position-ordered pages with an in-memory page directory."""

    kind = "clustered"

    def __init__(self, disk: SimulatedDisk, pool: BufferPool):
        super().__init__(disk, pool)
        # directory entries: (first_position, last_position, page_id)
        self._directory: list[tuple[int, int, int]] = []

    def load(self, items: Iterable[tuple[int, Values]]) -> None:
        page: Page | None = None
        for position, values in items:
            if page is None or page.is_full:
                page = self._disk.allocate(Page.DATA)
                self._directory.append((position, position, page.page_id))
            page.append((position, values))
            first, _last, pid = self._directory[-1]
            self._directory[-1] = (first, position, pid)
            self._count += 1

    def _page_index_for(self, position: int) -> Optional[int]:
        """Directory index of the page that could hold ``position``."""
        lo, hi = 0, len(self._directory) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            first, last, _pid = self._directory[mid]
            if position < first:
                hi = mid - 1
            elif position > last:
                lo = mid + 1
            else:
                return mid
        return None

    def scan_pages(self, window: Span) -> Iterator[PageChunk]:
        if window.is_empty:
            return
        start_idx = 0
        if window.start is not None:  # the first page whose last position reaches it
            start_idx = bisect_left(self._directory, window.start, key=itemgetter(1))
        for first, _last, page_id in self._directory[start_idx:]:
            if window.end is not None and first > window.end:
                return
            slots = self._pool.get(page_id).slots
            lo, hi = window.index_range(slots, key=_POSITION)
            if lo < hi:
                positions, rows = zip(*slots[lo:hi])
                yield positions, rows

    def probe(self, position: int) -> Optional[Values]:
        idx = self._page_index_for(position)
        if idx is None:
            return None
        slots = self._pool.get(self._directory[idx][2]).slots
        at = bisect_left(slots, position, key=_POSITION)
        if at == len(slots) or slots[at][0] != position:
            return None
        values: Values = slots[at][1]
        return values

    def profile(self) -> AccessProfile:
        pages = max(1, len(self._directory))
        return AccessProfile(stream_total=float(pages), probe_unit=1.0)


class IndexedOrganization(PhysicalOrganization):
    """Unclustered data pages under a B-tree-style position index."""

    kind = "indexed"

    def __init__(
        self,
        disk: SimulatedDisk,
        pool: BufferPool,
        fanout: int = 64,
        seed: int = 0,
    ):
        super().__init__(disk, pool)
        if fanout < 2:
            raise StorageError(f"index fanout must be >= 2, got {fanout}")
        self._fanout = fanout
        self._seed = seed
        self._root_id: Optional[int] = None
        self._height = 0
        self._leaf_ids: list[int] = []
        self._data_page_count = 0

    def load(self, items: Iterable[tuple[int, Values]]) -> None:
        ordered = list(items)
        # Scatter records across data pages in a shuffled "arrival" order
        # so a positional-order scan hops across pages (unclustered).
        shuffled = list(ordered)
        random.Random(self._seed).shuffle(shuffled)
        locations: dict[int, tuple[int, int]] = {}
        page: Page | None = None
        for position, values in shuffled:
            if page is None or page.is_full:
                page = self._disk.allocate(Page.DATA)
                self._data_page_count += 1
            slot = page.append((position, values))
            locations[position] = (page.page_id, slot)
        self._count = len(locations)

        # Build index leaves in position order: entries (position, page, slot).
        level_entries: list[tuple[int, int]] = []  # (max_key, node_page_id)
        leaf: Page | None = None
        for position, _values in ordered:
            if leaf is None or leaf.is_full:
                leaf = self._disk.allocate(Page.INDEX, capacity=self._fanout)
                self._leaf_ids.append(leaf.page_id)
                level_entries.append((position, leaf.page_id))
            data_page, slot = locations[position]
            leaf.append((position, data_page, slot))
            level_entries[-1] = (position, leaf.page_id)

        self._height = 1 if level_entries else 0
        # Build internal levels bottom-up until a single root remains.
        while len(level_entries) > 1:
            parents: list[tuple[int, int]] = []
            node: Page | None = None
            for max_key, child_id in level_entries:
                if node is None or node.is_full:
                    node = self._disk.allocate(Page.INDEX, capacity=self._fanout)
                    parents.append((max_key, node.page_id))
                node.append((max_key, child_id))
                parents[-1] = (max_key, node.page_id)
            level_entries = parents
            self._height += 1
        self._root_id = level_entries[0][1] if level_entries else None

    def _descend(self, position: int) -> Optional[tuple[int, int]]:
        """Walk root→leaf; return (data_page, slot) or None."""
        if self._root_id is None:
            return None
        node = self._pool.get(self._root_id)
        while node.kind == Page.INDEX and node.slots and len(node.slots[0]) == 2:
            # internal node: entries are (max_key, child_page_id)
            child_id = None
            for max_key, candidate in node.slots:
                if position <= max_key:
                    child_id = candidate
                    break
            if child_id is None:
                return None
            node = self._pool.get(child_id)
        for entry in node.slots:
            if entry[0] == position:
                return entry[1], entry[2]
            if entry[0] > position:
                return None
        return None

    def scan_pages(self, window: Span) -> Iterator[PageChunk]:
        if window.is_empty:
            return
        for leaf_id in self._leaf_ids:
            leaf = self._pool.get(leaf_id)
            lo, hi = window.index_range(leaf.slots, key=_POSITION)
            # One chunk per run of entries on one data page (in practice
            # one record: placement is shuffled), each fetched by the pool.
            for data_page, run in groupby(leaf.slots[lo:hi], key=itemgetter(1)):
                positions: list[int] = []
                rows: list[Values] = []
                for position, _page, slot in run:
                    entry = self._pool.get(data_page).get(slot)
                    if entry is None or entry[0] != position:
                        # The index points at a slot that no longer holds
                        # this position: damage the checksum cannot see.
                        raise CorruptPageError(
                            f"index entry for position {position} does not match "
                            f"page {data_page} slot {slot}",
                            page_id=data_page,
                        )
                    positions.append(position)
                    rows.append(entry[1])
                yield positions, rows
            if hi < len(leaf.slots):
                return

    def probe(self, position: int) -> Optional[Values]:
        location = self._descend(position)
        if location is None:
            return None
        data_page, slot = location
        entry = self._pool.get(data_page).get(slot)
        if entry is None or entry[0] != position:
            return None
        values: Values = entry[1]
        return values

    def profile(self) -> AccessProfile:
        leaf_pages = max(1, len(self._leaf_ids))
        # Unclustered positional scan: every record is likely on a cold
        # page, plus the leaf walk.
        stream_total = float(self._count + leaf_pages)
        probe_unit = float(self._height + 1) if self._height else 1.0
        return AccessProfile(stream_total=stream_total, probe_unit=probe_unit)


class AppendLogOrganization(PhysicalOrganization):
    """Position-ordered append-only pages with no access path.

    Streams are sequential and cheap; probes must scan from the head
    until the position is found or passed.
    """

    kind = "log"

    def __init__(self, disk: SimulatedDisk, pool: BufferPool):
        super().__init__(disk, pool)
        self._page_ids: list[int] = []

    def load(self, items: Iterable[tuple[int, Values]]) -> None:
        page: Page | None = None
        for position, values in items:
            if page is None or page.is_full:
                page = self._disk.allocate(Page.DATA)
                self._page_ids.append(page.page_id)
            page.append((position, values))
            self._count += 1

    def scan_pages(self, window: Span) -> Iterator[PageChunk]:
        if window.is_empty:
            return
        for page_id in self._page_ids:
            slots = self._pool.get(page_id).slots
            lo, hi = window.index_range(slots, key=_POSITION)
            if lo < hi:
                positions, rows = zip(*slots[lo:hi])
                yield positions, rows
            if hi < len(slots):
                return

    def probe(self, position: int) -> Optional[Values]:
        values: Values
        for page_id in self._page_ids:
            page = self._pool.get(page_id)
            for slot_position, values in page.slots:
                if slot_position == position:
                    return values
                if slot_position > position:
                    return None
        return None

    def profile(self) -> AccessProfile:
        pages = max(1, len(self._page_ids))
        return AccessProfile(stream_total=float(pages), probe_unit=pages / 2.0)


def make_organization(
    kind: str,
    disk: SimulatedDisk,
    pool: BufferPool,
    *,
    fanout: int = 64,
    seed: int = 0,
) -> PhysicalOrganization:
    """Factory for the named organization kind.

    Raises:
        StorageError: for an unknown kind.
    """
    if kind == "clustered":
        return ClusteredOrganization(disk, pool)
    if kind == "indexed":
        return IndexedOrganization(disk, pool, fanout=fanout, seed=seed)
    if kind == "log":
        return AppendLogOrganization(disk, pool)
    raise StorageError(
        f"unknown organization {kind!r}; expected one of {ORGANIZATION_KINDS}"
    )
