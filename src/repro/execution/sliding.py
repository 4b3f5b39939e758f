"""Sliding-window aggregate state (Cache-Strategy-A machinery).

Each aggregator maintains the trailing window incrementally, so a
moving aggregate reads each input record once (one cache insertion and
one eviction per position): sum/avg/count keep the window's records in
a FIFO and recompute the aggregate from them — O(window) arithmetic per
position, what Cache-Strategy-A saves is input *accesses* — and min/max
keep a monotonic deque, O(1) amortized.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Optional

from repro.errors import ExecutionError
from repro.execution.counters import ExecutionCounters


class SlidingAggregator(abc.ABC):
    """Incremental state of an aggregate over a sliding position window."""

    def __init__(self, counters: Optional[ExecutionCounters] = None):
        self._counters = counters

    def _charge(self, occupancy: int) -> None:
        if self._counters is not None:
            self._counters.cache_ops += 1
            self._counters.note_occupancy(occupancy)

    @abc.abstractmethod
    def add(self, position: int, value: object) -> None:
        """Enter a value observed at ``position`` (positions ascending)."""

    @abc.abstractmethod
    def evict_below(self, position: int) -> None:
        """Drop values at positions strictly below ``position``."""

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

    def __init__(self, func: str, counters: Optional[ExecutionCounters] = None):
        super().__init__(counters)
        if func not in ("sum", "avg", "count"):
            raise ExecutionError(f"RunningSumAggregator cannot compute {func!r}")
        self._func = func
        self._entries: deque[tuple[int, object]] = deque()

    def add(self, position: int, value: object) -> None:
        self._entries.append((position, value))
        self._charge(len(self._entries))

    def evict_below(self, position: int) -> None:
        while self._entries and self._entries[0][0] < position:
            self._entries.popleft()
            self._charge(len(self._entries))

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

    def __init__(self, func: str, counters: Optional[ExecutionCounters] = None):
        super().__init__(counters)
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
        self._charge(len(self._window))

    def evict_below(self, position: int) -> None:
        while self._window and self._window[0][0] < position:
            self._window.popleft()
            self._charge(len(self._window))
        while self._mono and self._mono[0][0] < position:
            self._mono.popleft()

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


def make_sliding(func: str, counters: Optional[ExecutionCounters] = None) -> SlidingAggregator:
    """The right sliding aggregator for ``func``."""
    if func in ("sum", "avg", "count"):
        return RunningSumAggregator(func, counters)
    return MonotonicAggregator(func, counters)
