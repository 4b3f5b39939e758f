"""The sequence catalog: named base sequences plus their meta-information.

The catalog plays the role of Table 1 in the paper: for every base
sequence it records the span, the density, per-column statistics, the
available access paths with their costs (via the storage layer's
:class:`~repro.storage.organizations.AccessProfile`), and pairwise
null-position correlations.  The optimizer draws all data-dependent
estimates from here.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from repro.errors import CatalogError
from repro.model.base import BaseSequence
from repro.model.info import SequenceInfo
from repro.model.record import NULL
from repro.model.sequence import Sequence
from repro.model.span import Span
from repro.storage.organizations import AccessProfile
from repro.storage.stored import StoredSequence
from repro.catalog.stats import SequenceStats, collect_stats

#: Default records-per-page assumed for in-memory sequences that have no
#: physical organization (they behave like a clustered store).
DEFAULT_PAGE_CAPACITY = 32


class LeafMeta(NamedTuple):
    """The Table 1 meta-information of one base sequence.

    Attributes:
        span: the declared span.
        count: exact number of non-Null positions (0 if unbounded).
        density: ``count / span length``; 1.0 where that is undefined
            (unbounded or empty span).
        profile: stream/probe access costs (the paper's A and a).
    """

    span: Span
    count: int
    density: float
    profile: AccessProfile


def leaf_meta(sequence: Sequence) -> LeafMeta:
    """Look up a leaf's meta-information without reading its data.

    The one place planning asks a sequence how many records it holds:
    ``count_nonnull()`` is a bisection over the sorted positions for
    in-memory sequences, the window length for constants and the
    load-time record count for stored ones, so the cost is O(log n) at
    worst and no record, page or column is touched.  In-memory
    sequences are costed like a clustered store of
    :data:`DEFAULT_PAGE_CAPACITY` records per page.
    """
    span = sequence.span
    length = span.length()
    if length:
        count = sequence.count_nonnull()
        density = count / length
    else:
        count, density = 0, 1.0
    if isinstance(sequence, StoredSequence):
        profile = sequence.access_profile()
    else:
        pages = max(1, -(-count // DEFAULT_PAGE_CAPACITY))
        profile = AccessProfile(stream_total=float(pages), probe_unit=1.0)
    return LeafMeta(span, count, density, profile)


def _nonnull_positions(sequence: Sequence, window: Span, length: int) -> Iterator[int]:
    """The non-Null positions of ``window`` (``length`` long), ascending.

    An in-memory sequence serves them from its position list, bisected
    to ``window``, so neither of its views is derived; any other
    sequence reads its column runs.
    """
    if isinstance(sequence, BaseSequence):
        lo, hi = window.index_range(sequence.positions)
        yield from sequence.positions[lo:hi]
        return
    for positions, _columns in sequence.column_runs(window, length):
        yield from positions


def correlation_strategy(sparse: Sequence, dense: Sequence, sparse_count: int) -> str:
    """The paper's join strategy for counting the positions both hold.

    ``"probe"`` (Join-Strategy-A) probes ``dense`` at each of the
    ``sparse_count`` positions of ``sparse`` when that many probes of
    cost a cost less than one stream of ``dense`` (A); ``"stream"``
    (Join-Strategy-B) intersects both position streams.
    """
    profile = leaf_meta(dense).profile
    if sparse_count * profile.probe_unit < profile.stream_total:
        return "probe"
    return "stream"


def null_correlation(first: Sequence, second: Sequence) -> float:
    """Correlation of non-Null positions between two sequences.

    Returns ``P(both non-null) / (d1 * d2)`` over the intersection of
    the two spans: 1.0 for independent placement, > 1 when the
    sequences tend to be non-null at the same positions, < 1 when they
    avoid each other.  Returns 1.0 when the intersection is empty or a
    density is zero (no evidence either way).

    The counts are exact integers whichever strategy
    :func:`correlation_strategy` picks, so the ratio is too: the two
    densities come from ``count_nonnull`` (no read when the window
    covers the span), the joint count from probes or position streams.
    """
    window = first.span.intersect(second.span)
    length = window.length()
    if length is None:
        raise CatalogError("cannot correlate over an unbounded span")
    if length == 0:
        return 1.0
    first_count = first.count_nonnull(window)
    second_count = second.count_nonnull(window)
    d1 = first_count / length
    d2 = second_count / length
    if d1 == 0.0 or d2 == 0.0:
        return 1.0
    sparse, dense = (first, second) if first_count <= second_count else (second, first)
    if correlation_strategy(sparse, dense, min(first_count, second_count)) == "probe":
        joint = sum(dense.at(p) is not NULL for p in _nonnull_positions(sparse, window, length))
    else:
        joint = len(set(_nonnull_positions(first, window, length)).intersection(
            _nonnull_positions(second, window, length)
        ))
    both = joint / length
    return both / (d1 * d2)


class CatalogEntry:
    """One registered base sequence and its meta-information."""

    def __init__(
        self,
        name: str,
        sequence: Sequence,
        stats: Optional[SequenceStats],
    ):
        self.name = name
        self.sequence = sequence
        self.stats = stats

    @property
    def info(self) -> SequenceInfo:
        """The optimizer-facing metadata (span, density, stats)."""
        if self.stats is not None:
            return SequenceInfo(
                span=self.stats.span, density=self.stats.density, stats=self.stats
            )
        meta = leaf_meta(self.sequence)
        return SequenceInfo(span=meta.span, density=meta.density, stats=None)

    @property
    def profile(self) -> AccessProfile:
        """Estimated stream/probe access costs (the paper's A and a)."""
        return leaf_meta(self.sequence).profile


class Catalog:
    """A registry of base sequences with statistics and correlations."""

    def __init__(self):
        self._entries: dict[str, CatalogEntry] = {}
        # id(sequence) -> the first entry registered for that object; the
        # entry keeps the sequence alive, so the id cannot be reused.
        self._by_sequence: dict[int, CatalogEntry] = {}
        self._correlations: dict[tuple[str, str], float] = {}

    # -- registration ------------------------------------------------------

    def register(
        self,
        name: str,
        sequence: Sequence,
        *,
        collect: bool = True,
        buckets: int = 16,
    ) -> CatalogEntry:
        """Register a base sequence under ``name``.

        Args:
            name: unique catalog name.
            sequence: the base sequence (in-memory or stored).
            collect: whether to scan the sequence and collect statistics.
            buckets: histogram buckets when collecting.

        Raises:
            CatalogError: on duplicate names.
        """
        if name in self._entries:
            raise CatalogError(f"sequence {name!r} already registered")
        stats = collect_stats(sequence, buckets=buckets) if collect else None
        entry = CatalogEntry(name, sequence, stats)
        self._entries[name] = entry
        self._by_sequence.setdefault(id(sequence), entry)
        return entry

    def analyze_correlation(self, first: str, second: str) -> float:
        """Compute, cache and return the null-position correlation of a pair."""
        value = null_correlation(self.get(first).sequence, self.get(second).sequence)
        self._correlations[self._pair_key(first, second)] = value
        return value

    def set_correlation(self, first: str, second: str, value: float) -> None:
        """Record a known correlation without scanning."""
        self._correlations[self._pair_key(first, second)] = value

    @staticmethod
    def _pair_key(first: str, second: str) -> tuple[str, str]:
        return (first, second) if first <= second else (second, first)

    # -- lookups ------------------------------------------------------------

    def get(self, name: str) -> CatalogEntry:
        """The entry named ``name``.

        Raises:
            CatalogError: if unknown.
        """
        try:
            return self._entries[name]
        except KeyError:
            raise CatalogError(
                f"unknown sequence {name!r}; registered: {sorted(self._entries)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> list[str]:
        """All registered names, sorted."""
        return sorted(self._entries)

    def entries(self) -> Iterable[CatalogEntry]:
        """All entries."""
        return self._entries.values()

    def correlation(self, first: str, second: str) -> float:
        """The recorded null-position correlation of a pair (default 1.0)."""
        return self._correlations.get(self._pair_key(first, second), 1.0)

    def entry_for_sequence(
        self, sequence: Sequence, alias: Optional[str] = None
    ) -> Optional[CatalogEntry]:
        """The entry holding exactly this sequence object, if registered.

        An object registered under several names resolves to the entry
        named ``alias`` when that is one of them, else to the first
        registered.
        """
        named = self._entries.get(alias) if alias is not None else None
        if named is not None and named.sequence is sequence:
            return named
        return self._by_sequence.get(id(sequence))

    def describe(self) -> str:
        """A Table 1-style rendering of the catalog."""
        lines = [f"{'Sequence':<12}{'Span':<16}{'Density':<10}{'Org':<12}{'A':>8}{'a':>8}"]
        for name in self.names():
            entry = self.get(name)
            info = entry.info
            profile = entry.profile
            org = getattr(entry.sequence, "organization_kind", "memory")
            span = f"{info.span.start}..{info.span.end}"
            lines.append(
                f"{name:<12}{span:<16}{info.density:<10.3f}{org:<12}"
                f"{profile.stream_total:>8.1f}{profile.probe_unit:>8.1f}"
            )
        return "\n".join(lines)
