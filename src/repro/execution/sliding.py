"""Sliding-window aggregate state and the Cache-Strategy-A loop.

Each aggregator maintains the trailing window incrementally, so a
moving aggregate reads each input record once (one cache insertion and
one eviction per position): sum/avg/count keep the window's cached
values in a deque and recompute the aggregate from them — O(window)
arithmetic per position, what Cache-Strategy-A saves is input
*accesses* — and min/max keep a monotonic deque, O(1) amortized.
:meth:`SlidingAggregator.slide` is the evict / absorb / emit loop over
such a cache and does the paper's accounting; the running sum fuses it
over its own deques.  The row executor's window aggregate runs it, and
so does the batch one wherever its kernel does not.
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

    def slide(
        self,
        width: int,
        items: Iterator[tuple[int, object]],
        positions: Iterable[int],
        counters: ExecutionCounters,
        guard: Optional[QueryGuard] = None,
    ) -> Iterator[tuple[int, object]]:
        """Cache-Strategy-A: one pass over the input with a scope-sized cache.

        For each of the ascending ``positions``: evict what left the
        trailing ``width``-position window, absorb the ``(position,
        value)`` ``items`` that entered it, and emit ``(position,
        aggregate)`` when the window holds a record.  ``items`` must
        hold nothing older than the first position's window beyond what
        this aggregator already caches — the caller opens its input
        over the operator's scope — so the cache never exceeds
        ``width`` records (Theorem 3.1).  Every insertion and eviction
        is one cache op; the occupancy is observed after each fill.
        ``guard`` is checkpointed every ``check_stride`` positions.
        """
        pending = next(items, None)
        for position in checkpointed(positions, guard):
            moved = self.evict_below(position - width + 1)
            while pending is not None and pending[0] <= position:
                self.add(pending[0], pending[1])
                moved += 1
                pending = next(items, None)
            if moved:
                counters.cache_ops += moved
                counters.note_occupancy(self.count)
            if self.count > 0:
                yield position, self.result()


class RunningSumAggregator(SlidingAggregator):
    """sum / avg / count over a deque of the cached window values.

    The aggregate is recomputed from the cached values — exactly the
    paper's Cache-Strategy-A, which saves input *accesses*, not
    arithmetic.  (A subtract-on-evict running total would drift from
    the reference semantics under floating point.)  The values'
    positions sit in a parallel deque, so the recomputation is one
    ``sum()`` over the values, oldest first.
    """

    def __init__(self, func: str):
        if func not in ("sum", "avg", "count"):
            raise ExecutionError(f"RunningSumAggregator cannot compute {func!r}")
        self._func = func
        self._positions: deque[int] = deque()
        self._values: deque[object] = deque()

    def add(self, position: int, value: object) -> None:
        self._positions.append(position)
        self._values.append(value)

    def evict_below(self, position: int) -> int:
        positions = self._positions
        evicted = 0
        while positions and positions[0] < position:
            positions.popleft()
            self._values.popleft()
            evicted += 1
        return evicted

    @property
    def count(self) -> int:
        return len(self._values)

    def result(self) -> object:
        values = self._values
        if not values:
            raise ExecutionError("aggregate of an empty window")
        if self._func == "count":
            return len(values)
        if self._func == "avg":
            return sum(values) / len(values)
        return sum(values)

    def slide(
        self,
        width: int,
        items: Iterator[tuple[int, object]],
        positions: Iterable[int],
        counters: ExecutionCounters,
        guard: Optional[QueryGuard] = None,
    ) -> Iterator[tuple[int, object]]:
        """:meth:`SlidingAggregator.slide`, fused over the two deques.

        The same evictions, insertions, charges and occupancy
        observations at the same points, and the same answers bit for
        bit — with no method call per position.
        """
        cached_at = self._positions
        cached = self._values
        func = self._func
        pending = next(items, None)
        for position in checkpointed(positions, guard):
            oldest = position - width + 1
            moved = 0
            while cached_at and cached_at[0] < oldest:
                cached_at.popleft()
                cached.popleft()
                moved += 1
            while pending is not None and pending[0] <= position:
                cached_at.append(pending[0])
                cached.append(pending[1])
                moved += 1
                pending = next(items, None)
            if moved:
                counters.cache_ops += moved
                counters.note_occupancy(len(cached))
            if cached:
                if func == "sum":
                    yield position, sum(cached)
                elif func == "avg":
                    yield position, sum(cached) / len(cached)
                else:
                    yield position, len(cached)


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

