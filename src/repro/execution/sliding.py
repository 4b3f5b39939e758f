"""Sliding-window aggregate state and the Cache-Strategy-A loop.

Each aggregator maintains the trailing window incrementally, so a
moving aggregate reads each input record once (one cache insertion and
one eviction per position): sum/avg/count keep the window's records in
a FIFO and recompute the aggregate from them — O(window) arithmetic per
position, what Cache-Strategy-A saves is input *accesses* — and min/max
keep a monotonic deque, O(1) amortized.  :func:`slide` is the one
evict / absorb / emit loop over such a cache; both executors' window
aggregates run it, and it does the paper's accounting.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import ExecutionError
from repro.execution.counters import ExecutionCounters
from repro.execution.guard import QueryGuard, checkpointed


class SlidingAggregator(abc.ABC):
    """Incremental state of an aggregate over a sliding position window."""

    @abc.abstractmethod
    def add(self, position: int, value: object) -> None:
        """Enter a value observed at ``position`` (positions ascending)."""

    @abc.abstractmethod
    def evict_below(self, position: int) -> int:
        """Drop values at positions strictly below ``position``; how many left."""

    @property
    @abc.abstractmethod
    def count(self) -> int:
        """Number of values currently in the window."""

    @abc.abstractmethod
    def result(self) -> object:
        """The aggregate of the current window.

        Raises:
            ExecutionError: if the window is empty.
        """


class RunningSumAggregator(SlidingAggregator):
    """sum / avg / count over a FIFO of cached window entries.

    The aggregate is recomputed from the cached records — exactly the
    paper's Cache-Strategy-A, which saves input *accesses*, not
    arithmetic.  (A subtract-on-evict running total would drift from
    the reference semantics under floating point.)
    """

    def __init__(self, func: str):
        if func not in ("sum", "avg", "count"):
            raise ExecutionError(f"RunningSumAggregator cannot compute {func!r}")
        self._func = func
        self._entries: deque[tuple[int, object]] = deque()

    def add(self, position: int, value: object) -> None:
        self._entries.append((position, value))

    def evict_below(self, position: int) -> int:
        evicted = 0
        while self._entries and self._entries[0][0] < position:
            self._entries.popleft()
            evicted += 1
        return evicted

    @property
    def count(self) -> int:
        return len(self._entries)

    def result(self) -> object:
        if not self._entries:
            raise ExecutionError("aggregate of an empty window")
        if self._func == "count":
            return len(self._entries)
        total = sum(value for _pos, value in self._entries)
        if self._func == "avg":
            return total / len(self._entries)
        return total


class MonotonicAggregator(SlidingAggregator):
    """min / max via a monotonic deque (O(1) amortized per position)."""

    def __init__(self, func: str):
        if func not in ("min", "max"):
            raise ExecutionError(f"MonotonicAggregator cannot compute {func!r}")
        self._keep = (lambda new, old: new <= old) if func == "min" else (
            lambda new, old: new >= old
        )
        self._window: deque[tuple[int, object]] = deque()  # all entries
        self._mono: deque[tuple[int, object]] = deque()  # candidates

    def add(self, position: int, value: object) -> None:
        self._window.append((position, value))
        while self._mono and self._keep(value, self._mono[-1][1]):
            self._mono.pop()
        self._mono.append((position, value))

    def evict_below(self, position: int) -> int:
        evicted = 0
        while self._window and self._window[0][0] < position:
            self._window.popleft()
            evicted += 1
        while self._mono and self._mono[0][0] < position:
            self._mono.popleft()
        return evicted

    @property
    def count(self) -> int:
        return len(self._window)

    def result(self) -> object:
        if not self._mono:
            raise ExecutionError("aggregate of an empty window")
        return self._mono[0][1]


class CumulativeAggregator:
    """Running aggregate over an ever-growing prefix (never evicts)."""

    def __init__(self, func: str):
        self._func = func
        self._count = 0
        self._total = 0
        self._best: Optional[object] = None

    def add(self, value: object) -> None:
        """Enter the next value."""
        self._count += 1
        if self._func in ("sum", "avg"):
            self._total += value  # type: ignore[operator]
        elif self._func == "min":
            self._best = value if self._best is None else min(self._best, value)
        elif self._func == "max":
            self._best = value if self._best is None else max(self._best, value)

    def extend(self, values: Sequence[object]) -> None:
        """Enter ``values`` in order — one :meth:`add` each, done at once.

        ``sum(values, total)`` continues the same left-to-right additions
        and the extrema keep the earlier operand on ties, so the state is
        the one the per-value fold reaches, bit for bit.
        """
        if not values:
            return
        self._count += len(values)
        if self._func in ("sum", "avg"):
            self._total = sum(values, self._total)  # type: ignore[call-overload]
        elif self._func in ("min", "max"):
            pick = min if self._func == "min" else max
            self._best = (
                pick(values) if self._best is None else pick(self._best, *values)
            )

    @classmethod
    def fold(
        cls, func: str, chunks: Iterable[Sequence[object]], as_float: bool
    ) -> Optional[object]:
        """The aggregate of every value in ``chunks``; None when there is none.

        The whole-input aggregate in O(chunk) state: what the row
        executor, the prober and the batch executor compute for a
        global aggregate, one record or one batch per chunk.
        """
        running = cls(func)
        for values in chunks:
            running.extend(values)
        if running.count == 0:
            return None
        value = running.result()
        return float(value) if as_float else value  # type: ignore[arg-type]

    @property
    def count(self) -> int:
        """Number of values aggregated so far."""
        return self._count

    @property
    def state(self) -> object:
        """The running sum (sum/avg) or extremum (min/max); None for count."""
        if self._func in ("sum", "avg"):
            return self._total
        return self._best

    def advance(self, count: int, state: object) -> None:
        """Jump to the ``count`` and :attr:`state` a prefix-scan kernel reached."""
        self._count = count
        if self._func in ("sum", "avg"):
            self._total = state  # type: ignore[assignment]
        else:
            self._best = state

    def result(self) -> object:
        """The running aggregate.

        Raises:
            ExecutionError: if no value was entered yet.
        """
        if self._count == 0:
            raise ExecutionError("aggregate of an empty prefix")
        if self._func == "count":
            return self._count
        if self._func == "avg":
            return self._total / self._count
        if self._func == "sum":
            return self._total
        return self._best


def make_sliding(func: str) -> SlidingAggregator:
    """The right sliding aggregator for ``func``."""
    if func in ("sum", "avg", "count"):
        return RunningSumAggregator(func)
    return MonotonicAggregator(func)


def slide(
    aggregator: SlidingAggregator,
    width: int,
    items: Iterator[tuple[int, object]],
    positions: Iterable[int],
    counters: ExecutionCounters,
    guard: Optional[QueryGuard] = None,
) -> Iterator[tuple[int, object]]:
    """Cache-Strategy-A: one pass over the input with a scope-sized cache.

    For each of the ascending ``positions``: evict what left the
    trailing ``width``-position window, absorb the ``(position, value)``
    ``items`` that entered it, and emit ``(position, aggregate)`` when
    the window holds a record.  ``items`` must hold nothing older than
    the first position's window beyond what ``aggregator`` already
    caches — the caller opens its input over the operator's scope — so
    the cache never exceeds ``width`` records (Theorem 3.1).  Every
    insertion and eviction is one cache op; the occupancy is observed
    after each fill.  ``guard`` is checkpointed every ``check_stride``
    positions.
    """
    pending = next(items, None)
    for position in checkpointed(positions, guard):
        moved = aggregator.evict_below(position - width + 1)
        while pending is not None and pending[0] <= position:
            aggregator.add(pending[0], pending[1])
            moved += 1
            pending = next(items, None)
        if moved:
            counters.cache_ops += moved
            counters.note_occupancy(aggregator.count)
        if aggregator.count > 0:
            yield position, aggregator.result()
