"""Fixed-capacity pages of the simulated disk.

A page holds either data entries (``(position, values)`` tuples) or
index entries (``(key, payload)`` tuples); both are slot lists bounded
by the page capacity.  Pages are plain containers — all accounting
happens in the disk and buffer pool.

Every page carries a running CRC-32 checksum, maintained on append and
re-validated by the disk on every read (:meth:`Page.verify`), so page
corruption — e.g. injected by :class:`repro.storage.faults.FaultyDisk`
— is *detected* and raised as a typed
:class:`~repro.errors.CorruptPageError`, never silently returned.  The
checksummed bytes are each entry's :mod:`marshal` encoding: determined
by the values alone (format version 2 writes no reference flags), exact
(``1``/``1.0``/``True`` and ``0.0``/``-0.0`` differ, floats bit for
bit), and made total by the fallback in :func:`_entry_bytes`.  A
verify encodes the whole slot list in one call and skips the list
header (:meth:`Page.compute_checksum`): the same bytes, no per-entry
Python work.
"""

from __future__ import annotations

import marshal
import zlib
from typing import Any, Optional

from repro.errors import StorageError

#: A slot entry (``(position, values)`` on a data page, ``(key, ...)`` on
#: an index page) and the value tuple of a record inside a data entry.
Entry = Values = tuple[Any, ...]

#: Bytes of a version-2 list encoding before its first entry: the type
#: code and the 4-byte length.
_LIST_HEADER = 5


def _entry_bytes(entry: object) -> bytes:
    """The bytes one slot entry contributes to the page checksum."""
    try:
        return marshal.dumps(entry, 2)
    except ValueError:
        # Refused (a float subclass, an object left by tampering): the
        # repr bytes, behind a ``?`` that opens no marshal encoding.
        return b"?" + repr(entry).encode()


class Page:
    """A fixed-capacity slotted page."""

    __slots__ = ("page_id", "capacity", "slots", "kind", "checksum")

    DATA = "data"
    INDEX = "index"

    def __init__(self, page_id: int, capacity: int, kind: str = DATA):
        if capacity < 1:
            raise StorageError(f"page capacity must be >= 1, got {capacity}")
        self.page_id = page_id
        self.capacity = capacity
        self.kind = kind
        self.slots: list[Entry] = []
        #: Running CRC-32 of the appended entries, in order.
        self.checksum = 0

    @property
    def is_full(self) -> bool:
        """Whether the page has no free slots."""
        return len(self.slots) >= self.capacity

    def append(self, entry: Entry) -> int:
        """Add an entry, returning its slot number.

        Raises:
            StorageError: if the page is full.
        """
        if self.is_full:
            raise StorageError(f"page {self.page_id} is full")
        self.slots.append(entry)
        self.checksum = zlib.crc32(_entry_bytes(entry), self.checksum)
        return len(self.slots) - 1

    def compute_checksum(self) -> int:
        """Recompute the CRC-32 of the current slot contents.

        One encoder call: a version-2 list encoding is a 5-byte header
        followed by each entry's own encoding, so past the header its
        bytes are exactly the per-entry join that :meth:`append` fed the
        running CRC.  A slot list the encoder refuses takes that join.
        """
        try:
            encoded = marshal.dumps(self.slots, 2)
        except ValueError:
            return zlib.crc32(b"".join(map(_entry_bytes, self.slots)))
        return zlib.crc32(memoryview(encoded)[_LIST_HEADER:])

    def verify(self) -> bool:
        """Whether the slot contents still match the stored checksum."""
        return self.compute_checksum() == self.checksum

    def get(self, slot: int) -> Optional[Entry]:
        """The entry at ``slot``, or None if the slot is out of range."""
        if 0 <= slot < len(self.slots):
            return self.slots[slot]
        return None

    def __len__(self) -> int:
        return len(self.slots)

    def __repr__(self) -> str:
        return (
            f"Page(id={self.page_id}, kind={self.kind}, "
            f"used={len(self.slots)}/{self.capacity})"
        )
