"""Fixed-bucket log-scale histograms — bounded-memory distributions.

The PR 5 metrics layer knows monotone counters and a streaming
min/mean/max summary; neither can answer "what is p99 latency over the
last ten thousand queries" without retaining every observation.  This
module adds the distribution half of the telemetry story:

* :class:`LogHistogram` — a histogram over *fixed*, log-spaced bucket
  boundaries (:data:`BUCKET_BOUNDS`).  Fixed boundaries are the whole
  design: every histogram in the process shares the same buckets, so
  two histograms merge by adding bucket counts — the property the
  parallel supervisor relies on when it folds per-lane histograms into
  the query totals exactly the way
  :meth:`~repro.execution.counters.ExecutionCounters.merge_from` folds
  counters.  Memory is a few hundred integers per histogram no matter
  how many observations arrive.
* Quantile estimation (:meth:`LogHistogram.quantile`) interpolates
  inside the bucket containing the target rank and clamps to the
  exact observed min/max, so p50/p90/p99 carry at most one bucket's
  relative error (:data:`BUCKETS_PER_DECADE` buckets per decade ≈
  ±15% worst case) — plenty for latency telemetry, and the estimate
  is deterministic given the observations.
* :class:`HistogramSet` — a named family of histograms with the same
  observe/merge discipline, the unit the flight recorder
  (:mod:`repro.obs.profile`) and the parallel lanes pass around.

Values are unitless; the conventions used by the built-in telemetry
are microseconds for durations (1 µs .. ~16 min fits the bucket range)
and plain counts for cardinalities.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Mapping, Optional

from repro.errors import ReproError

#: Log-scale resolution: buckets per factor-of-ten.  8 gives a bucket
#: width of 10^(1/8) ≈ 1.33x — sub-±15% quantile error.
BUCKETS_PER_DECADE = 8

#: Decades covered by the finite buckets: values in (1, 10^9].
DECADES = 9

#: The shared bucket boundaries.  Bucket ``i`` (1 <= i < len) covers
#: ``(BUCKET_BOUNDS[i-1], BUCKET_BOUNDS[i]]``; bucket 0 is the
#: underflow ``(-inf, BUCKET_BOUNDS[0]]`` and the final bucket is the
#: overflow ``(BUCKET_BOUNDS[-1], +inf)``.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    10.0 ** (i / BUCKETS_PER_DECADE)
    for i in range(DECADES * BUCKETS_PER_DECADE + 1)
)

#: Total bucket count: the bounded ranges plus the overflow bucket.
NUM_BUCKETS = len(BUCKET_BOUNDS) + 1

#: The quantiles every summary reports.
SUMMARY_QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


def bucket_index(value: float) -> int:
    """The fixed bucket a value falls into (see :data:`BUCKET_BOUNDS`)."""
    if value <= BUCKET_BOUNDS[0]:
        return 0
    if value > BUCKET_BOUNDS[-1]:
        return NUM_BUCKETS - 1
    return bisect_left(BUCKET_BOUNDS, value)


class LogHistogram:
    """A mergeable fixed-bucket log-scale histogram.

    Tracks count/sum/min/max exactly and the distribution at log-bucket
    resolution.  All instances share :data:`BUCKET_BOUNDS`, which is
    what makes :meth:`merge_from` a plain bucket-wise addition.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.buckets = [0] * NUM_BUCKETS

    def observe(self, value: float) -> None:
        """Record one observation (negative values clamp to bucket 0)."""
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self.buckets[bucket_index(value)] += 1

    @property
    def mean(self) -> float:
        """The running mean (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def merge_from(self, other: "LogHistogram") -> None:
        """Fold another histogram into this one (parallel lanes).

        Sound because every histogram shares the fixed boundaries; the
        merged histogram is exactly what one histogram observing both
        streams would hold.
        """
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (
            self.minimum is None or other.minimum < self.minimum
        ):
            self.minimum = other.minimum
        if other.maximum is not None and (
            self.maximum is None or other.maximum > self.maximum
        ):
            self.maximum = other.maximum
        for i, count in enumerate(other.buckets):
            if count:
                self.buckets[i] += count

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 <= q <= 1) of the observations.

        Linear interpolation inside the bucket containing the target
        rank, clamped to the exact observed ``[min, max]``; 0.0 for an
        empty histogram.

        Raises:
            ReproError: for q outside [0, 1].
        """
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        assert self.minimum is not None and self.maximum is not None
        target = q * self.count
        cumulative = 0
        for i, count in enumerate(self.buckets):
            if count == 0:
                continue
            if cumulative + count >= target:
                lower = BUCKET_BOUNDS[i - 1] if i >= 1 else self.minimum
                upper = (
                    BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else self.maximum
                )
                fraction = (target - cumulative) / count
                fraction = min(max(fraction, 0.0), 1.0)
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.minimum), self.maximum)
            cumulative += count
        return self.maximum

    def summary(self) -> dict[str, float]:
        """Count/sum/mean/min/max plus the standard quantiles.

        Shaped for :func:`repro.obs.metrics.collect`.
        """
        values: dict[str, float] = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
        }
        for label, q in SUMMARY_QUANTILES:
            values[label] = self.quantile(q)
        return values

    def to_dict(self) -> dict:
        """A JSON-friendly encoding (buckets stored sparsely)."""
        return {
            "name": self.name,
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": {
                str(i): count
                for i, count in enumerate(self.buckets)
                if count
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "LogHistogram":
        """Rebuild a histogram from :meth:`to_dict` output.

        Raises:
            ReproError: for a bucket index outside the fixed layout.
        """
        histogram = cls(str(payload.get("name", "")))
        histogram.count = int(payload.get("count", 0))
        histogram.total = float(payload.get("sum", 0.0))
        minimum = payload.get("min")
        maximum = payload.get("max")
        histogram.minimum = float(minimum) if minimum is not None else None
        histogram.maximum = float(maximum) if maximum is not None else None
        for key, count in dict(payload.get("buckets", {})).items():
            index = int(key)
            if not 0 <= index < NUM_BUCKETS:
                raise ReproError(
                    f"histogram bucket index {index} outside the fixed "
                    f"layout of {NUM_BUCKETS} buckets"
                )
            histogram.buckets[index] = int(count)
        return histogram

    def __repr__(self) -> str:
        return (
            f"LogHistogram({self.name!r}, count={self.count}, "
            f"p50={self.quantile(0.5):.6g})"
        )


class HistogramSet:
    """A named family of :class:`LogHistogram` with one merge discipline.

    The unit of histogram state the engine threads around: each
    parallel lane observes into a private set, the supervisor merges
    winning lanes into the query's set, and the flight recorder merges
    query sets into its process-lifetime set — the exact shape of the
    existing counter merge, so telemetry follows the same ownership
    rules as the counters it summarizes.
    """

    __slots__ = ("_histograms",)

    def __init__(self) -> None:
        self._histograms: dict[str, LogHistogram] = {}

    def histogram(self, name: str) -> LogHistogram:
        """Get or create the named histogram."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = LogHistogram(name)
        return histogram

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        self.histogram(name).observe(value)

    def get(self, name: str) -> Optional[LogHistogram]:
        """The named histogram, or None if nothing was observed."""
        return self._histograms.get(name)

    def merge_from(self, other: "HistogramSet") -> None:
        """Fold every histogram of ``other`` into this set."""
        for name, histogram in other._histograms.items():
            self.histogram(name).merge_from(histogram)

    def __iter__(self) -> Iterator[LogHistogram]:
        for name in sorted(self._histograms):
            yield self._histograms[name]

    def __len__(self) -> int:
        return len(self._histograms)

    def __bool__(self) -> bool:
        return bool(self._histograms)

    def as_dict(self) -> dict[str, dict]:
        """Every histogram's :meth:`LogHistogram.to_dict`, name-sorted."""
        return {h.name: h.to_dict() for h in self}

    def __repr__(self) -> str:
        return f"HistogramSet({len(self._histograms)} histograms)"
