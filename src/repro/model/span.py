"""Spans: the valid position ranges of sequences.

A span is a closed interval of integer positions ``[start, end]``; either
end may be unbounded (``None``).  Every position outside a sequence's
span maps to the Null record (paper Section 3).  Span arithmetic is the
workhorse of the paper's *global span optimization* (Section 3.2): spans
are propagated bottom-up through operators and then restricted top-down.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.errors import SpanError


def _max_start(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The larger of two lower bounds, where ``None`` means -infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _min_end(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The smaller of two upper bounds, where ``None`` means +infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _min_start(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The smaller of two lower bounds (hull)."""
    if a is None or b is None:
        return None
    return min(a, b)


def _max_end(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The larger of two upper bounds (hull)."""
    if a is None or b is None:
        return None
    return max(a, b)


@dataclass(frozen=True)
class Span:
    """A closed integer interval; ``None`` at either end means unbounded.

    The unique empty span is :data:`Span.EMPTY`; all empty constructions
    normalize to it so equality is well-behaved.
    """

    start: Optional[int]
    end: Optional[int]
    empty: bool = False

    EMPTY: "Span" = None  # type: ignore[assignment]  # set after class body
    ALL: "Span" = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        for bound in (self.start, self.end):
            if bound is not None and not isinstance(bound, int):
                raise SpanError(f"span bound must be int or None, got {bound!r}")
        if self.empty:
            object.__setattr__(self, "start", 0)
            object.__setattr__(self, "end", -1)
        elif (
            self.start is not None
            and self.end is not None
            and self.start > self.end
        ):
            object.__setattr__(self, "empty", True)
            object.__setattr__(self, "start", 0)
            object.__setattr__(self, "end", -1)

    # -- classification -------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """Whether this span contains no positions."""
        return self.empty

    @property
    def is_bounded(self) -> bool:
        """Whether both ends are finite (the empty span is bounded)."""
        return self.empty or (self.start is not None and self.end is not None)

    def length(self) -> Optional[int]:
        """Number of positions in the span; ``None`` if unbounded."""
        if self.empty:
            return 0
        if not self.is_bounded:
            return None
        assert self.start is not None and self.end is not None
        return self.end - self.start + 1

    # -- membership and ordering -----------------------------------------

    def contains(self, position: int) -> bool:
        """Whether ``position`` lies within the span."""
        if self.empty:
            return False
        if self.start is not None and position < self.start:
            return False
        if self.end is not None and position > self.end:
            return False
        return True

    def __contains__(self, position: int) -> bool:
        return self.contains(position)

    def covers(self, other: "Span") -> bool:
        """Whether every position of ``other`` lies within this span."""
        if other.empty:
            return True
        if self.empty:
            return False
        if self.start is not None and (other.start is None or other.start < self.start):
            return False
        if self.end is not None and (other.end is None or other.end > self.end):
            return False
        return True

    def index_range(
        self, items: Sequence[Any], key: Optional[Callable[[Any], int]] = None
    ) -> tuple[int, int]:
        """The slice ``[lo, hi)`` of position-ordered ``items`` within the span.

        ``key`` extracts an item's position (default: the item itself).
        """
        if self.empty:
            return 0, 0
        lo = 0 if self.start is None else bisect_left(items, self.start, key=key)
        hi = len(items) if self.end is None else bisect_right(items, self.end, key=key)
        return lo, hi

    # -- algebra ----------------------------------------------------------

    def intersect(self, other: "Span") -> "Span":
        """The intersection of two spans."""
        if self.empty or other.empty:
            return Span.EMPTY
        return Span(_max_start(self.start, other.start), _min_end(self.end, other.end))

    def hull(self, other: "Span") -> "Span":
        """The smallest span containing both spans."""
        if self.empty:
            return other
        if other.empty:
            return self
        return Span(_min_start(self.start, other.start), _max_end(self.end, other.end))

    def shift(self, offset: int) -> "Span":
        """The span translated by ``offset`` positions."""
        if self.empty:
            return Span.EMPTY
        start = None if self.start is None else self.start + offset
        end = None if self.end is None else self.end + offset
        return Span(start, end)

    def widen(self, below: int = 0, above: int = 0) -> "Span":
        """The span extended by ``below`` positions downward and ``above`` upward."""
        if below < 0 or above < 0:
            raise SpanError("widen amounts must be non-negative")
        if self.empty:
            return Span.EMPTY
        start = None if self.start is None else self.start - below
        end = None if self.end is None else self.end + above
        return Span(start, end)

    def unbounded_above(self) -> "Span":
        """This span with its upper end removed."""
        if self.empty:
            return Span.EMPTY
        return Span(self.start, None)

    def unbounded_below(self) -> "Span":
        """This span with its lower end removed."""
        if self.empty:
            return Span.EMPTY
        return Span(None, self.end)

    # -- iteration ----------------------------------------------------------

    def positions(self) -> Iterator[int]:
        """Iterate the positions of a bounded span in increasing order.

        Raises:
            SpanError: if the span is unbounded.
        """
        if self.empty:
            return iter(())
        if not self.is_bounded:
            raise SpanError(f"cannot iterate unbounded span {self}")
        assert self.start is not None and self.end is not None
        return iter(range(self.start, self.end + 1))

    def __repr__(self) -> str:
        if self.empty:
            return "Span.EMPTY"
        lo = "-inf" if self.start is None else str(self.start)
        hi = "+inf" if self.end is None else str(self.end)
        return f"Span[{lo}, {hi}]"


Span.EMPTY = Span(0, -1, empty=True)
Span.ALL = Span(None, None)
