"""Storage fault injection and retry policy.

The robustness substrate: a :class:`FaultPlan` deterministically decides,
per page read, whether to inject a transient error, a permanent error,
simulated latency, or page corruption; a :class:`FaultyDisk` applies
those decisions on top of the normal :class:`~repro.storage.disk
.SimulatedDisk` accounting; and a :class:`RetryPolicy` bounds how the
buffer pool retries transient faults with (virtual) backoff.

Determinism is the load-bearing property: a fault decision is a pure
function of ``(seed, page_id, nth-read-of-that-page)``, not of global
call order.  Two runs with the same seed — and the row and batch
executors, when they issue the same page-access sequence — therefore see
the *identical* fault trace, which is what makes chaos failures
reproducible and the chaos matrix assertable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, TypeVar

from repro.errors import (
    PermanentStorageError,
    StorageError,
    TransientStorageError,
)
from repro.storage.counters import StorageCounters
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page

#: Fault kinds a plan can inject, in decision precedence order.
FAULT_KINDS = ("corrupt", "permanent", "transient", "latency")

_T = TypeVar("_T")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the plan's trace.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        page_id: the page whose read was faulted.
        read_index: the 1-based per-page read count at injection time.
        label: the disk's label (e.g. the stored sequence name).
    """

    kind: str
    page_id: int
    read_index: int
    label: str = ""


class FaultPlan:
    """A seeded, deterministic schedule of storage faults.

    Args:
        seed: base seed; the full decision key is
            ``(seed, page_id, read_index)``.
        transient_rate: probability a read raises a
            :class:`~repro.errors.TransientStorageError` (retryable).
        permanent_rate: probability a read raises a
            :class:`~repro.errors.PermanentStorageError` (not retried).
        corrupt_rate: probability a read first *corrupts* the page
            (tampering a slot without updating the checksum), so the
            disk's checksum validation rejects it — and every later
            read of that page — with a
            :class:`~repro.errors.CorruptPageError`.
        latency_rate: probability a read is charged ``latency_ticks``
            of simulated latency (counted, never slept).
        latency_ticks: simulated delay units per latency event.
        scripted: explicit ``(page_id, read_index) -> kind`` overrides,
            checked before the random draw; use for targeted tests.

    The rates must sum to at most 1.  Every injection is appended to
    :attr:`trace`, so equality of traces is equality of fault schedules.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        transient_rate: float = 0.0,
        permanent_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency_ticks: int = 1,
        scripted: Optional[dict[tuple[int, int], str]] = None,
    ):
        for name, rate in (
            ("transient_rate", transient_rate),
            ("permanent_rate", permanent_rate),
            ("corrupt_rate", corrupt_rate),
            ("latency_rate", latency_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise StorageError(f"{name} must be in [0, 1], got {rate}")
        if transient_rate + permanent_rate + corrupt_rate + latency_rate > 1.0:
            raise StorageError("fault rates must sum to at most 1")
        if latency_ticks < 0:
            raise StorageError(f"latency_ticks must be >= 0, got {latency_ticks}")
        for key, kind in (scripted or {}).items():
            if kind not in FAULT_KINDS:
                raise StorageError(
                    f"scripted fault {key}: unknown kind {kind!r}; "
                    f"expected one of {FAULT_KINDS}"
                )
        self.seed = seed
        self.transient_rate = transient_rate
        self.permanent_rate = permanent_rate
        self.corrupt_rate = corrupt_rate
        self.latency_rate = latency_rate
        self.latency_ticks = latency_ticks
        self.scripted = dict(scripted or {})
        #: Every injected fault, in injection order.
        self.trace: list[FaultEvent] = []

    def decide(self, page_id: int, read_index: int) -> Optional[str]:
        """The fault kind for this read, or None for a clean read.

        Pure in ``(seed, page_id, read_index)``: independent of global
        call order, so interleaving differences between executors never
        change per-page fault schedules.
        """
        override = self.scripted.get((page_id, read_index))
        if override is not None:
            return override
        if (
            self.transient_rate == 0.0
            and self.permanent_rate == 0.0
            and self.corrupt_rate == 0.0
            and self.latency_rate == 0.0
        ):
            return None
        # Ints hash to themselves and tuple hashing is deterministic,
        # so this draw is stable across processes.
        draw = random.Random(hash((self.seed, page_id, read_index))).random()
        threshold = self.corrupt_rate
        if draw < threshold:
            return "corrupt"
        threshold += self.permanent_rate
        if draw < threshold:
            return "permanent"
        threshold += self.transient_rate
        if draw < threshold:
            return "transient"
        threshold += self.latency_rate
        if draw < threshold:
            return "latency"
        return None

    def record(self, kind: str, page_id: int, read_index: int, label: str) -> FaultEvent:
        """Append an injection to the trace."""
        event = FaultEvent(kind, page_id, read_index, label)
        self.trace.append(event)
        return event

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a CLI spec.

        The spec is a comma-separated ``key=value`` list::

            seed=7,transient=0.1,permanent=0.01,corrupt=0.005,latency=0.2

        Keys: ``seed`` (int), ``transient``/``permanent``/``corrupt``/
        ``latency`` (rates in [0, 1]) and ``latency_ticks`` (int).

        Raises:
            StorageError: for an unknown key or a malformed value.
        """
        kwargs: dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise StorageError(f"--fault-plan needs key=value, got {part!r}")
            try:
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key in ("transient", "permanent", "corrupt", "latency"):
                    kwargs[f"{key}_rate"] = float(value)
                elif key == "latency_ticks":
                    kwargs["latency_ticks"] = int(value)
                else:
                    raise StorageError(
                        f"unknown fault-plan key {key!r}; expected seed, "
                        "transient, permanent, corrupt, latency, latency_ticks"
                    )
            except ValueError:
                raise StorageError(
                    f"bad fault-plan value for {key!r}: {value!r}"
                ) from None
        return cls(kwargs.pop("seed", 0), **kwargs)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, transient={self.transient_rate}, "
            f"permanent={self.permanent_rate}, corrupt={self.corrupt_rate}, "
            f"latency={self.latency_rate}, injected={len(self.trace)})"
        )


class FaultyDisk(SimulatedDisk):
    """A :class:`SimulatedDisk` that injects faults from a plan on read.

    Writes (``allocate``) always succeed — bulk loading is fault-free —
    and ``peek`` stays an uncounted, unfaulted backdoor for loaders and
    tests.  Only :meth:`read` consults the plan:

    * ``transient`` → :class:`~repro.errors.TransientStorageError`
      (the buffer pool's retry policy re-reads, advancing the per-page
      read index so the retry gets a fresh decision);
    * ``permanent`` → :class:`~repro.errors.PermanentStorageError`;
    * ``corrupt`` → a slot is tampered in place (checksum left stale),
      then the normal read-path validation raises
      :class:`~repro.errors.CorruptPageError` — on this read and every
      later read of the page (corruption is sticky);
    * ``latency`` → ``latency_ticks`` charged to
      ``counters.latency_events`` (simulated, never slept).
    """

    def __init__(
        self,
        plan: FaultPlan,
        page_capacity: int = 32,
        counters: Optional[StorageCounters] = None,
        label: str = "",
    ):
        super().__init__(page_capacity=page_capacity, counters=counters)
        self.plan = plan
        self.label = label
        self._read_counts: dict[int, int] = {}

    def _corrupt(self, page: Page, read_index: int) -> None:
        """Tamper one slot in place, leaving the checksum stale."""
        if not page.slots:
            return
        rng = random.Random(hash((self.plan.seed, page.page_id, read_index, "slot")))
        slot = rng.randrange(len(page.slots))
        page.slots[slot] = ("__corrupt__",) + tuple(page.slots[slot][1:])

    def read(self, page_id: int) -> Page:
        """Fetch a page, injecting any fault the plan schedules.

        Raises:
            TransientStorageError: for an injected transient fault.
            PermanentStorageError: for an injected permanent fault, or
                a page that does not exist.
            CorruptPageError: when checksum validation rejects the page
                (whether corrupted by this read or a previous one).
        """
        read_index = self._read_counts.get(page_id, 0) + 1
        self._read_counts[page_id] = read_index
        kind = self.plan.decide(page_id, read_index)
        if kind == "transient":
            self.plan.record(kind, page_id, read_index, self.label)
            self.counters.faults_injected += 1
            raise TransientStorageError(
                f"injected transient fault reading page {page_id} "
                f"(read #{read_index})"
            )
        if kind == "permanent":
            self.plan.record(kind, page_id, read_index, self.label)
            self.counters.faults_injected += 1
            raise PermanentStorageError(
                f"injected permanent fault reading page {page_id} "
                f"(read #{read_index})"
            )
        if kind == "latency":
            self.plan.record(kind, page_id, read_index, self.label)
            self.counters.latency_events += self.plan.latency_ticks
        elif kind == "corrupt":
            page = self._pages.get(page_id)
            if page is not None and page.verify():
                # First corruption of this page; later reads fail the
                # checksum on their own (sticky), without a new event.
                self.plan.record(kind, page_id, read_index, self.label)
                self._corrupt(page, read_index)
        return super().read(page_id)


class RetryPolicy:
    """Bounded retry with exponential backoff for transient faults.

    Args:
        max_attempts: total read attempts (first try included); must be
            at least 1.
        backoff_base: virtual delay before the first retry, in
            arbitrary ticks.
        backoff_multiplier: growth factor between consecutive retries.
        max_backoff: cap on any single virtual delay.
        sleep: optional callable invoked with each backoff delay.  The
            default is None — backoff is *virtual* (recorded, not
            slept), keeping tests and chaos runs fast and deterministic.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        *,
        backoff_base: float = 0.001,
        backoff_multiplier: float = 2.0,
        max_backoff: float = 0.1,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        if max_attempts < 1:
            raise StorageError(f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_base < 0 or max_backoff < 0 or backoff_multiplier < 1.0:
            raise StorageError(
                "backoff must be non-negative with multiplier >= 1.0"
            )
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_multiplier = backoff_multiplier
        self.max_backoff = max_backoff
        self._sleep = sleep

    def backoff_delays(self) -> list[float]:
        """The virtual delay before each retry, in order."""
        delays = []
        delay = self.backoff_base
        for _ in range(self.max_attempts - 1):
            delays.append(min(delay, self.max_backoff))
            delay *= self.backoff_multiplier
        return delays

    def run(self, fn: Callable[[], _T], counters: Optional[StorageCounters] = None) -> _T:
        """Call ``fn``, retrying transient faults up to the bound.

        Each retry increments ``counters.retries_attempted``; if the
        final attempt still fails, ``counters.retries_exhausted`` is
        incremented and the last :class:`TransientStorageError` is
        re-raised.  Permanent and corrupt-page errors pass through
        untouched on the first occurrence.
        """
        delay = self.backoff_base
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except TransientStorageError:
                if attempt >= self.max_attempts:
                    if counters is not None:
                        counters.retries_exhausted += 1
                    raise
                if counters is not None:
                    counters.retries_attempted += 1
                if self._sleep is not None:
                    self._sleep(min(delay, self.max_backoff))
                delay *= self.backoff_multiplier
        raise AssertionError("unreachable")  # pragma: no cover

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base={self.backoff_base}, x{self.backoff_multiplier}, "
            f"cap={self.max_backoff})"
        )


#: Default retry policy used by the buffer pool: 4 attempts, virtual backoff.
DEFAULT_RETRY_POLICY = RetryPolicy()
