"""The flight recorder: always-on, bounded-memory query profiles.

Tracing (PR 5) answers "what happened inside *this* run" but costs up
to 10% and produces an artifact per query; the counters answer "how
much work" but forget each query as soon as the next one starts.  The
flight recorder sits between them: a ring buffer of compact
:class:`QueryProfile` records — fingerprint, knobs, duration, work
counters, guard verdict, error type, and (when sampled) top operator
self-times — kept for the last N queries even when tracing is off,
plus a process-lifetime :class:`~repro.obs.hist.HistogramSet` that
turns those records into p50/p90/p99 telemetry.

Two feedback loops close over the ring:

* **slow-query promotion** — a profile whose duration exceeds the
  recorder's threshold marks its query fingerprint; the *next* run of
  that same query (:meth:`FlightRecorder.wants_trace` inside
  :func:`~repro.execution.engine.run_query_detailed`) is executed with
  full span capture, so the expensive evidence is gathered exactly
  when a query has already proven itself suspicious;
* **operator sampling** — every ``op_sample``-th query is traced
  regardless, feeding per-operator busy-time histograms at an
  amortized cost far below the tracing budget.

Eviction policy: the ring is a ``deque(maxlen=capacity)`` — strictly
FIFO, the oldest profile leaves when the (capacity+1)-th arrives, and
slow or failed profiles get no retention privilege (the histograms
already keep their distributional trace after eviction).  DESIGN §15
records the policy.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from repro.errors import ReproError, TraceFormatError
from repro.obs.hist import HistogramSet
from repro.obs.schema import PROFILE_FORMAT_VERSION, validate_profile_record

#: Default ring capacity: enough to cover a burst of traffic without
#: unbounded growth (a profile is a few hundred bytes).
DEFAULT_CAPACITY = 256

#: Default operator-sampling knob: every Nth query runs traced so the
#: per-operator histograms fill in.  0 disables sampling entirely.
DEFAULT_OP_SAMPLE = 0

#: Operator self-times kept per profile.
TOP_K_OPERATORS = 5


def fingerprint_query(query: object) -> str:
    """A stable, compact fingerprint of a query's shape.

    Hashes the query graph's canonical ``repr`` (``Query(<describe>)``),
    which is independent of catalog data and run knobs, so repeated
    runs of the same query text collide on purpose — that collision is
    what lets a slow run promote the *next* run to full tracing.
    """
    return hashlib.sha1(repr(query).encode("utf-8")).hexdigest()[:12]


@dataclass
class QueryProfile:
    """One query execution, compactly.

    Everything a "which query got slow and why" investigation needs
    before deciding to pay for a full trace: identity (fingerprint +
    describe text), the knobs it ran under, wall duration, the work
    counters that explain the duration, how governance ended it
    (guard verdict / typed error), and — when the run was traced —
    the top-K operator self-times.
    """

    fingerprint: str
    query: str
    mode: str
    parallel: str
    workers: Optional[int]
    batch_size: int
    duration_us: float
    records_emitted: int = 0
    pages_read: int = 0
    cache_ops: int = 0
    partition_retries: int = 0
    fallbacks_taken: int = 0
    parallel_fallbacks: int = 0
    kernels_fallback: int = 0
    guard_verdict: Optional[str] = None
    error: Optional[str] = None
    top_operators: list = field(default_factory=list)
    traced: bool = False
    slow: bool = False

    @property
    def ok(self) -> bool:
        """Whether the query produced an answer (no typed error)."""
        return self.error is None

    def to_dict(self) -> dict:
        """The pinned JSON shape (validates against ``PROFILE_SCHEMA``)."""
        return {
            "type": "profile",
            "fingerprint": self.fingerprint,
            "query": self.query,
            "mode": self.mode,
            "parallel": self.parallel,
            "workers": self.workers,
            "batch_size": self.batch_size,
            "duration_us": round(self.duration_us, 3),
            "records_emitted": self.records_emitted,
            "pages_read": self.pages_read,
            "cache_ops": self.cache_ops,
            "partition_retries": self.partition_retries,
            "fallbacks_taken": self.fallbacks_taken,
            "parallel_fallbacks": self.parallel_fallbacks,
            "kernels_fallback": self.kernels_fallback,
            "guard_verdict": self.guard_verdict,
            "error": self.error,
            "top_operators": list(self.top_operators),
            "traced": self.traced,
            "slow": self.slow,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QueryProfile":
        """Rebuild a profile from :meth:`to_dict` output."""
        workers = payload.get("workers")
        return cls(
            fingerprint=str(payload.get("fingerprint", "")),
            query=str(payload.get("query", "")),
            mode=str(payload.get("mode", "")),
            parallel=str(payload.get("parallel", "off")),
            workers=int(workers) if workers is not None else None,
            batch_size=int(payload.get("batch_size", 0)),
            duration_us=float(payload.get("duration_us", 0.0)),
            records_emitted=int(payload.get("records_emitted", 0)),
            pages_read=int(payload.get("pages_read", 0)),
            cache_ops=int(payload.get("cache_ops", 0)),
            partition_retries=int(payload.get("partition_retries", 0)),
            fallbacks_taken=int(payload.get("fallbacks_taken", 0)),
            parallel_fallbacks=int(payload.get("parallel_fallbacks", 0)),
            kernels_fallback=int(payload.get("kernels_fallback", 0)),
            guard_verdict=payload.get("guard_verdict"),
            error=payload.get("error"),
            top_operators=list(payload.get("top_operators", [])),
            traced=bool(payload.get("traced", False)),
            slow=bool(payload.get("slow", False)),
        )


class FlightRecorder:
    """A bounded ring of :class:`QueryProfile` plus lifetime histograms.

    Args:
        capacity: ring size; the oldest profile is evicted FIFO when
            the ring is full (no retention privilege for slow/failed
            profiles — the histograms keep their distributional trace).
        slow_threshold_us: durations above this mark the profile
            ``slow`` and promote the query's fingerprint so its *next*
            run is fully traced.  None disables promotion.
        op_sample: every Nth query is traced regardless of threshold,
            feeding the per-operator histograms (0 = never).
        clock: seconds source the engine times queries with
            (injectable for deterministic tests).

    Single-owner semantics, like the counters: one recorder belongs to
    one caller's run loop.  The engine only reads/writes it between
    queries, never from worker threads.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        slow_threshold_us: Optional[float] = None,
        op_sample: int = DEFAULT_OP_SAMPLE,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if isinstance(capacity, bool) or not isinstance(capacity, int):
            raise ReproError(f"recorder capacity must be an integer, got {capacity!r}")
        if capacity < 1:
            raise ReproError(f"recorder capacity must be >= 1, got {capacity}")
        if slow_threshold_us is not None and not slow_threshold_us > 0:
            raise ReproError(
                f"slow threshold must be > 0 microseconds, got {slow_threshold_us!r}"
            )
        if isinstance(op_sample, bool) or not isinstance(op_sample, int) or op_sample < 0:
            raise ReproError(
                f"op_sample must be a non-negative integer, got {op_sample!r}"
            )
        self.capacity = capacity
        self.slow_threshold_us = slow_threshold_us
        self.op_sample = op_sample
        self.clock = clock
        self.hists = HistogramSet()
        self.recorded = 0
        self.evicted = 0
        self._ring: deque[QueryProfile] = deque(maxlen=capacity)
        self._promote: set[str] = set()
        self._sample_tick = 0

    # -- the engine-facing hooks ---------------------------------------------

    def wants_trace(self, fingerprint: str) -> bool:
        """One-shot: was this query promoted to full capture?

        Consumes the promotion — the traced run that follows clears the
        debt, and a still-slow traced run re-promotes through
        :meth:`record`.
        """
        if fingerprint in self._promote:
            self._promote.discard(fingerprint)
            return True
        return False

    def sample_operators(self) -> bool:
        """Whether this query is the every-Nth operator-sampled one."""
        if self.op_sample <= 0:
            return False
        self._sample_tick += 1
        if self._sample_tick >= self.op_sample:
            self._sample_tick = 0
            return True
        return False

    def record(
        self, profile: QueryProfile, hists: Optional[HistogramSet] = None
    ) -> QueryProfile:
        """Fold one finished query into the ring and the histograms.

        Marks the profile ``slow`` against the threshold, promotes its
        fingerprint for next-run tracing when slow and not already
        traced, observes the query-level histograms, folds any
        per-query histogram set (e.g. the partitioned run's
        per-partition observations), and appends to the ring —
        evicting FIFO when full.
        """
        if (
            self.slow_threshold_us is not None
            and profile.duration_us > self.slow_threshold_us
        ):
            profile.slow = True
            if not profile.traced:
                self._promote.add(profile.fingerprint)
        self.recorded += 1
        if len(self._ring) == self.capacity:
            self.evicted += 1
        self._ring.append(profile)
        self.hists.observe("query.duration_us", profile.duration_us)
        self.hists.observe("query.records", profile.records_emitted)
        self.hists.observe("query.pages", profile.pages_read)
        if profile.error is not None:
            self.hists.observe("query.errors", 1)
        for entry in profile.top_operators:
            name = entry.get("name")
            busy = entry.get("busy_us")
            if name and busy is not None:
                self.hists.observe(f"operator.{name}.busy_us", float(busy))
        if hists is not None:
            self.hists.merge_from(hists)
        return profile

    # -- reading --------------------------------------------------------------

    def profiles(self) -> list[QueryProfile]:
        """The retained profiles, oldest first."""
        return list(self._ring)

    def slowest(self, n: int) -> list[QueryProfile]:
        """The ``n`` retained profiles with the longest durations."""
        ranked = sorted(
            self._ring, key=lambda p: p.duration_us, reverse=True
        )
        return ranked[: max(n, 0)]

    def errors(self) -> list[QueryProfile]:
        """The retained profiles that ended in a typed error."""
        return [profile for profile in self._ring if profile.error is not None]

    def __len__(self) -> int:
        return len(self._ring)

    def summary(self) -> dict:
        """A compact digest for CLI/JSON output."""
        duration = self.hists.get("query.duration_us")
        return {
            "recorded": self.recorded,
            "retained": len(self._ring),
            "evicted": self.evicted,
            "slow": sum(1 for p in self._ring if p.slow),
            "errors": sum(1 for p in self._ring if p.error is not None),
            "traced": sum(1 for p in self._ring if p.traced),
            "duration_us": duration.summary() if duration is not None else None,
        }

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({len(self._ring)}/{self.capacity} profiles, "
            f"{self.recorded} recorded)"
        )


# -- the profiles artifact (JSON Lines) ---------------------------------------


def profiles_to_jsonl(profiles: Iterable[QueryProfile]) -> str:
    """Serialize profiles as JSON Lines (header + one record per line).

    Every record is validated against the pinned schema before a byte
    is produced, mirroring the trace exporters' discipline.
    """
    records = [profile.to_dict() for profile in profiles]
    header = {
        "type": "profiles",
        "version": PROFILE_FORMAT_VERSION,
        "count": len(records),
    }
    validate_profile_record(header)
    lines = [json.dumps(header, sort_keys=True)]
    for record in records:
        validate_profile_record(record)
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_profiles(text: str) -> list[QueryProfile]:
    """Parse and validate a profiles JSONL artifact.

    Raises:
        TraceFormatError: for unparseable lines, a missing/invalid
            header, or any record violating the pinned schema.
    """
    records: list[dict] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceFormatError(f"line {number}: not JSON: {error}") from None
        validate_profile_record(record, line=number)
        records.append(record)
    if not records or records[0].get("type") != "profiles":
        raise TraceFormatError(
            "profiles artifact must start with a 'profiles' header record"
        )
    if records[0].get("version") != PROFILE_FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported profiles version {records[0].get('version')!r}; "
            f"this build reads version {PROFILE_FORMAT_VERSION}"
        )
    return [QueryProfile.from_dict(record) for record in records[1:]]
