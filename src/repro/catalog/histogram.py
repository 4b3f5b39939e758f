"""Equi-width histograms for selectivity estimation.

The paper (Section 3) lists "distributions of values in the columns
(used to determine the selectivity of predicates)" among the
meta-information a sequence database maintains.  We implement classic
equi-width histograms over numeric columns, with a distinct-count
fallback for non-numeric columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from math import isfinite
from operator import sub, truediv
from typing import Sequence as PySequence

from repro.errors import CatalogError


@dataclass(frozen=True)
class EquiWidthHistogram:
    """An equi-width histogram over numeric values.

    Attributes:
        low: minimum observed value.
        high: maximum observed value.
        counts: per-bucket counts, left to right.
        total: total number of observed values.
    """

    low: float
    high: float
    counts: tuple[int, ...]
    total: int

    @classmethod
    def build(cls, values: PySequence[float], buckets: int = 16) -> "EquiWidthHistogram":
        """Build a histogram from observed values.

        The tally is one chain of C-level maps over the values, taking
        ``int((float(value) - low) / width)`` per value exactly as a
        per-value loop would; a key past the last bucket (``high``
        itself) is folded into it.

        Raises:
            CatalogError: if ``values`` is empty, ``buckets`` < 1, a
                value does not convert to a finite float (NaN, ±inf, an
                int too large for a float), or the range overflows a
                float or underflows to a zero bucket width.
        """
        if buckets < 1:
            raise CatalogError(f"histogram needs >= 1 bucket, got {buckets}")
        if not values:
            raise CatalogError("cannot build a histogram from no values")
        try:
            floats = list(map(float, values))
        except (TypeError, ValueError, OverflowError) as error:
            raise CatalogError(f"histogram values must be finite numbers: {error}") from None
        if not all(map(isfinite, floats)):
            raise CatalogError("histogram values must be finite numbers, not NaN or ±inf")
        low = min(floats)
        high = max(floats)
        if low == high:
            return cls(low, high, (len(values),), len(values))
        width = (high - low) / buckets
        if not isfinite(width) or width == 0.0:
            raise CatalogError(f"histogram range {low!r}..{high!r} has no finite bucket width")
        tally = Counter(map(int, map(truediv, map(sub, floats, repeat(low)), repeat(width))))
        counts = [tally[index] for index in range(buckets)]
        counts[-1] += sum(count for index, count in tally.items() if index >= buckets)
        return cls(low, high, tuple(counts), len(values))

    @property
    def bucket_width(self) -> float:
        """Width of each bucket (0 for the degenerate single-value case)."""
        if len(self.counts) == 1:
            return 0.0
        return (self.high - self.low) / len(self.counts)

    def _fraction_below(self, value: float) -> float:
        """Estimated fraction of values strictly below ``value``."""
        if value <= self.low:
            return 0.0
        if value > self.high:
            return 1.0
        if self.bucket_width == 0.0:
            # all mass at one point `low`; value > low here
            return 1.0
        position = (value - self.low) / self.bucket_width
        full = int(position)
        below = sum(self.counts[:full])
        if full < len(self.counts):
            below += self.counts[full] * (position - full)
        return min(1.0, below / self.total)

    def selectivity(self, op: str, value: object) -> float:
        """Estimated selectivity of ``column <op> value``.

        Raises:
            CatalogError: for a non-numeric literal or unknown operator.
        """
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CatalogError(f"histogram selectivity needs a number, got {value!r}")
        v = float(value)
        below = self._fraction_below(v)
        # Mass "at" v: approximate by one bucket's share of an equality.
        at = 0.0
        if self.low <= v <= self.high:
            if self.bucket_width == 0.0:
                at = 1.0 if v == self.low else 0.0
            else:
                index = min(int((v - self.low) / self.bucket_width), len(self.counts) - 1)
                bucket_fraction = self.counts[index] / self.total
                at = bucket_fraction / max(1.0, self.bucket_width)
                at = min(at, bucket_fraction)
        if op == "<":
            return below
        if op == "<=":
            return min(1.0, below + at)
        if op == ">":
            return max(0.0, 1.0 - below - at)
        if op == ">=":
            return max(0.0, 1.0 - below)
        if op == "==":
            return at
        if op == "!=":
            return max(0.0, 1.0 - at)
        raise CatalogError(f"unknown comparison operator {op!r}")
