"""Per-query resource governance.

A :class:`QueryGuard` carries everything the engine needs to stop a
query that misbehaves: a wall-clock deadline, a cooperative
:class:`CancellationToken`, and hard budgets on cache entries, pages
read, and records emitted.  The executors call back into the guard at
natural pause points — batch boundaries in batch mode, every
``check_stride`` iterations of a row-mode loop, cache operations in the
operator caches — and the guard raises a typed error naming the
violated limit and the work completed so far.

The guard complements the static cache-finiteness verifier (Theorem
3.1): the verifier proves a plan's caches are bounded *before* running
it; the guard enforces hard ceilings *while* running it, so even a plan
the verifier could not see through (or a storage layer misbehaving
under faults) cannot run forever or allocate without bound.
"""

from __future__ import annotations

import threading
import time
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from repro.errors import (
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceBudgetExceededError,
)
from repro.execution.counters import ExecutionCounters
from repro.storage.counters import StorageCounters

#: Row-mode loop iterations between two full guard checkpoints, and
#: root records per record-budget charge (amortizes both to well under
#: the <5% overhead budget).
DEFAULT_CHECK_STRIDE = 256

T = TypeVar("T")


class CancellationToken:
    """A cooperative, thread-safe cancellation flag.

    Another thread (or a signal handler) calls :meth:`cancel`; the
    executing query observes it at its next guard checkpoint and stops
    with a :class:`~repro.errors.QueryCancelledError`.

    Memory model / propagation safety:

    * :meth:`cancel` and :attr:`cancelled` delegate to a
      :class:`threading.Event`, whose ``set``/``is_set`` pair is backed
      by a lock-protected flag — under CPython this gives the
      release/acquire ordering needed for a flag set in one thread to
      become visible in the executing thread at its next check, with
      no external locking.
    * Cancellation is *sticky* and idempotent: there is no "uncancel",
      which is what makes check-then-act races harmless (a query that
      misses the flag at one checkpoint sees it at the next).
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, safe from any thread)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether the token has been cancelled."""
        return self._event.is_set()


class QueryGuard:
    """Deadline, cancellation, and hard resource budgets for one query.

    Args:
        timeout: wall-clock budget in seconds (None = no deadline).
            The clock starts at :meth:`start`, which the engine calls
            once per query — a batch→row fallback rerun does *not*
            restart it.
        cancellation: cooperative cancellation token, observed at every
            checkpoint.
        max_cache_entries: ceiling on the peak occupancy of any single
            operator cache (Theorem 3.1's quantity, observed via the
            execution counters).
        max_pages: ceiling on pages read from the simulated disks of
            the base sequences the plan scans or probes.
        max_records: ceiling on records the root may emit.
        check_stride: iterations of a row-mode loop between two full
            checkpoints, and row-mode root records per
            :meth:`note_records` charge.
        clock: time source (injectable for deterministic tests).

    A guard is single-query state: create a fresh one per run (reusing
    one across queries keeps the first query's clock and record count).

    Thread safety: a query runs on one thread, but a caller may share
    one guard across threads, so the mutating paths — record
    accounting (:meth:`note_records`/:meth:`rewind_records`) and the
    watched-counter registries — serialize on an internal lock; the
    budget check happens inside the same critical section as the
    increment, so concurrent chargers cannot interleave
    check-then-increment and overdraw ``max_records``.  Nothing is
    locked per record: each row-mode loop checkpoints after every
    ``check_stride`` of its own iterations (:func:`checkpointed`), and
    the row drain charges its records once per ``check_stride``.
    """

    def __init__(
        self,
        *,
        timeout: Optional[float] = None,
        cancellation: Optional[CancellationToken] = None,
        max_cache_entries: Optional[int] = None,
        max_pages: Optional[int] = None,
        max_records: Optional[int] = None,
        check_stride: int = DEFAULT_CHECK_STRIDE,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.timeout = timeout
        self.cancellation = cancellation
        self.max_cache_entries = max_cache_entries
        self.max_pages = max_pages
        self.max_records = max_records
        self.check_stride = check_stride
        self._clock = clock
        self._started_at: Optional[float] = None
        self._deadline: Optional[float] = None
        self._records = 0
        self._watched_storage: list[tuple[StorageCounters, int]] = []
        self._watched_execution: Optional[ExecutionCounters] = None
        #: The typed verdict this guard issued, if any — the error class
        #: name, stamped just before the raise so the flight recorder
        #: can attribute "why did this query stop" without re-deriving
        #: it from the exception that may have crossed rung boundaries
        #: on its way out.
        self.verdict: Optional[str] = None
        # Serializes record accounting and the watch registries when
        # the guard is shared across threads.
        self._lock = threading.Lock()

    # -- validation (the execute_plan/run_query boundary) --------------------

    def validate(self) -> None:
        """Reject nonsensical budgets before any work happens.

        Raises:
            ExecutionError: for a non-positive timeout, budget, or
                stride.
        """
        if self.timeout is not None and not self.timeout > 0:
            raise ExecutionError(
                f"guard timeout must be > 0 seconds, got {self.timeout!r}"
            )
        for label, value in (
            ("max_cache_entries", self.max_cache_entries),
            ("max_pages", self.max_pages),
            ("max_records", self.max_records),
        ):
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ExecutionError(
                    f"guard {label} must be a positive integer, got {value!r}"
                )
        if self.check_stride < 1:
            raise ExecutionError(
                f"guard check_stride must be >= 1, got {self.check_stride!r}"
            )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the wall clock (idempotent: fallback reruns share it)."""
        with self._lock:
            if self._started_at is None:
                self._started_at = self._clock()
                if self.timeout is not None:
                    self._deadline = self._started_at + self.timeout

    def watch_storage(self, counters: StorageCounters) -> None:
        """Charge this disk's future page reads against ``max_pages``."""
        with self._lock:
            if all(existing is not counters for existing, _ in self._watched_storage):
                self._watched_storage.append((counters, counters.page_reads))

    def watch_execution(self, counters: ExecutionCounters) -> None:
        """Observe cache occupancy through these execution counters."""
        with self._lock:
            self._watched_execution = counters

    @property
    def records_emitted(self) -> int:
        """Records the root has emitted so far."""
        return self._records

    def rewind_records(self, count: int) -> None:
        """Reset emitted-record progress (batch→row fallback rerun)."""
        with self._lock:
            self._records = count

    def pages_read(self) -> int:
        """Pages read by watched disks since the guard started watching."""
        with self._lock:
            watched = list(self._watched_storage)
        return sum(counters.page_reads - baseline for counters, baseline in watched)

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 if never started)."""
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def metrics(self) -> dict[str, float]:
        """The guard's progress numbers as a gauge mapping.

        Shaped for :func:`repro.obs.metrics.collect`, so ``--explain``
        reads guard progress out of the same block as every counter.
        """
        return {
            "elapsed_seconds": round(self.elapsed(), 6),
            "records_emitted": self._records,
            "pages_read": self.pages_read(),
        }

    # -- checkpoints ---------------------------------------------------------

    def _issue(self, error: Exception) -> Exception:
        """Stamp the verdict (first verdict wins) and return the error."""
        if self.verdict is None:
            self.verdict = type(error).__name__
        return error

    def checkpoint(self) -> None:
        """Full check: cancellation, deadline, pages and cache budgets.

        Raises:
            QueryCancelledError: the token was cancelled.
            QueryTimeoutError: the deadline has passed.
            ResourceBudgetExceededError: a watched budget is exceeded.
        """
        if self.cancellation is not None and self.cancellation.cancelled:
            raise self._issue(
                QueryCancelledError(
                    f"query cancelled after {self._records} records",
                    records_emitted=self._records,
                )
            )
        if self._deadline is not None:
            now = self._clock()
            if now > self._deadline:
                assert self.timeout is not None and self._started_at is not None
                raise self._issue(
                    QueryTimeoutError(
                        f"query exceeded its {self.timeout:g}s timeout "
                        f"({now - self._started_at:.3f}s elapsed, "
                        f"{self._records} records emitted)",
                        timeout_seconds=self.timeout,
                        elapsed_seconds=now - self._started_at,
                        records_emitted=self._records,
                    )
                )
        if self.max_pages is not None and self._watched_storage:
            used = self.pages_read()
            if used > self.max_pages:
                raise self._issue(
                    ResourceBudgetExceededError(
                        f"query read {used} pages, over its budget of "
                        f"{self.max_pages} ({self._records} records emitted)",
                        budget="pages_read",
                        limit=self.max_pages,
                        used=used,
                        records_emitted=self._records,
                    )
                )
        if self.max_cache_entries is not None and self._watched_execution is not None:
            occupancy = self._watched_execution.max_cache_occupancy
            if occupancy > self.max_cache_entries:
                self._cache_budget_error(occupancy)

    def note_records(self, count: int, *, check: bool = True) -> None:
        """Charge ``count`` root emissions against ``max_records``.

        ``check=False`` only counts them: what a failing row stream
        emitted since its last charge is recorded without a second
        verdict over the error already in flight.

        Raises:
            ResourceBudgetExceededError: the record budget is exceeded.
        """
        # Increment and check under one lock: two threads charging
        # concurrently must not both pass a check the sum violates.
        with self._lock:
            self._records += count
            total = self._records
        if check and self.max_records is not None and total > self.max_records:
            raise self._issue(
                ResourceBudgetExceededError(
                    f"query emitted {total} records, over its budget "
                    f"of {self.max_records}",
                    budget="records_emitted",
                    limit=self.max_records,
                    used=total,
                    records_emitted=total,
                )
            )

    def note_cache(self, occupancy: int) -> None:
        """Immediate cache-budget check (called by operator caches).

        Raises:
            ResourceBudgetExceededError: the cache budget is exceeded.
        """
        if self.max_cache_entries is not None and occupancy > self.max_cache_entries:
            self._cache_budget_error(occupancy)

    def _cache_budget_error(self, occupancy: int) -> None:
        raise self._issue(
            ResourceBudgetExceededError(
                f"an operator cache held {occupancy} entries, over the budget "
                f"of {self.max_cache_entries} ({self._records} records emitted)",
                budget="cache_entries",
                limit=self.max_cache_entries or 0,
                used=occupancy,
                records_emitted=self._records,
            )
        )

    def __repr__(self) -> str:
        parts = []
        if self.timeout is not None:
            parts.append(f"timeout={self.timeout:g}s")
        if self.cancellation is not None:
            parts.append("cancellable")
        if self.max_cache_entries is not None:
            parts.append(f"max_cache_entries={self.max_cache_entries}")
        if self.max_pages is not None:
            parts.append(f"max_pages={self.max_pages}")
        if self.max_records is not None:
            parts.append(f"max_records={self.max_records}")
        return f"QueryGuard({', '.join(parts) or 'unlimited'})"


def checkpointed(items: Iterable[T], guard: Optional[QueryGuard]) -> Iterator[T]:
    """``items``, checkpointing ``guard`` after every ``check_stride`` of them.

    A row-mode loop iterates this instead of ``items``, so each loop
    counts only its own iterations and nothing is locked per item.
    Without a guard it is ``items``' own iterator; with one, the items
    pass in runs of ``check_stride`` — ``islice`` over the one iterator,
    flattened by ``chain.from_iterable`` — so no Python frame runs per
    item either.  The checkpoint runs when the item after a run is asked
    for (and once more when a drained loop asks past its end).
    """
    if guard is None:
        return iter(items)
    return chain.from_iterable(_runs(iter(items), guard))


def _runs(items: Iterator[T], guard: QueryGuard) -> Iterator[Iterator[T]]:
    for first in items:
        yield chain((first,), islice(items, guard.check_stride - 1))
        guard.checkpoint()
