"""Tests for the fault-tolerant parallel partitioned runtime (DESIGN §14).

Five halves:

* **equivalence** — the parallel supervisor reproduces the row-oracle
  answer across worker counts {1, 2, 4}, both execution modes, and
  both pool kinds, with counters merged and per-partition spans
  adopted into the caller's tracer;
* **containment** — transient faults earn one bounded per-partition
  retry (``partition_retries`` accounts for every one), permanent
  faults fail fast, and untyped worker death surfaces as the typed
  :class:`~repro.errors.ParallelExecutionError`;
* **supervision** — stragglers get exactly one speculative re-dispatch
  before a typed timeout, a failing partition cancels its siblings
  without ever marking the caller's cancellation token, and a shared
  guard bounds the whole query across workers;
* **chaos** — the PR 4 fault matrix holds under parallel execution
  (exact answer or typed error, never a wrong answer), and seeded
  fault traces are identical across worker counts because partition
  preparation is serial;
* **the ladder** — ``parallel="auto"`` degrades parallel → the
  requested mode on the calling thread → (with ``fallback``) the row
  oracle, charging ``parallel_fallbacks`` / ``fallbacks_taken`` and
  tracing ``parallel:fallback`` / ``fallback``, while ``force`` raises
  the typed refusal instead.  (Bad knobs: the closure table in
  ``tests/test_faults.py``.)
"""

from __future__ import annotations

import hashlib
import threading

import pytest

import repro.execution.parallel as par
from repro.algebra import base
from repro.analysis.base import plan_paths
from repro.analysis.partition import PartitionSoundnessError, certify
from repro.catalog import Catalog
from repro.errors import (
    ExecutionError,
    ParallelExecutionError,
    PermanentStorageError,
    QueryCancelledError,
    QueryGuardError,
    QueryTimeoutError,
    TransientStorageError,
)
from repro.execution import (
    CancellationToken,
    ExecutionCounters,
    QueryGuard,
    execute_parallel,
    execute_plan,
    run_query,
)
from repro.execution.context import ExecContext
from repro.lang import compile_query
from repro.model import Span
from repro.obs.tracer import Tracer
from repro.optimizer import optimize
from repro.storage import FaultPlan, StoredSequence
from repro.workloads import StockSpec, generate_stock

WORKERS = (1, 2, 4)
PARTS = 4


def optimized(source: str, catalog):
    """Compile and optimize one query source against ``catalog``."""
    return optimize(compile_query(source, catalog), catalog=catalog).plan


def row_oracle(plan):
    """The unpartitioned row-mode answer, as (position, record) pairs."""
    root = plan.plan
    return list(
        execute_plan(root, root.span, ExecutionCounters(), mode="row").iter_nonnull()
    )


@pytest.fixture(scope="module")
def certified(table1):
    """A windowed plan, its 4-way certificate, and the oracle answer."""
    catalog, _sequences = table1
    plan = optimized("window(ibm, avg, close, 6, ma6)", catalog)
    return plan, certify(plan, PARTS), row_oracle(plan)


def run_parallel(certified, **kwargs):
    """Run the certified fixture plan under the supervisor."""
    plan, certificate, _oracle = certified
    counters = kwargs.pop("counters", ExecutionCounters())
    answer = execute_parallel(plan, certificate, counters=counters, **kwargs)
    return answer, counters


class TestEquivalence:
    """Parallel answers equal the row oracle, counters and all."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("mode", ("row", "batch"))
    def test_matches_row_oracle(self, certified, workers, mode):
        answer, counters = run_parallel(certified, workers=workers, mode=mode)
        assert list(answer.iter_nonnull()) == certified[2]
        assert counters.partitions_executed == PARTS
        assert counters.partition_retries == 0
        assert counters.stragglers_redispatched == 0

    def test_process_pool_matches_row_oracle(self, certified):
        answer, counters = run_parallel(certified, workers=2, pool="process")
        assert list(answer.iter_nonnull()) == certified[2]
        assert counters.partitions_executed == PARTS

    @pytest.mark.parametrize("workers", (1, 2))
    def test_partition_spans_adopted(self, certified, workers):
        tracer = Tracer()
        answer, _counters = run_parallel(certified, workers=workers, tracer=tracer)
        assert list(answer.iter_nonnull()) == certified[2]
        (parallel_span,) = tracer.find("parallel")
        assert parallel_span.attrs["partitions_executed"] == PARTS
        partition_spans = tracer.find("partition")
        assert len(partition_spans) == PARTS
        assert {s.attrs["index"] for s in partition_spans} == set(range(PARTS))
        # Worker-side operator spans were grafted under partition spans.
        partition_ids = {s.span_id for s in partition_spans}
        adopted = [s for s in tracer.spans if s.parent_id in partition_ids]
        assert adopted

    def test_more_partitions_than_workers_queue(self, table1):
        catalog, _sequences = table1
        plan = optimized("select(ibm, close > 115.0)", catalog)
        certificate = certify(plan, 8)
        counters = ExecutionCounters()
        answer = execute_parallel(plan, certificate, workers=2, counters=counters)
        assert list(answer.iter_nonnull()) == row_oracle(plan)
        assert counters.partitions_executed == 8

    def test_verify_rejects_foreign_certificate(self, certified, table1):
        catalog, _sequences = table1
        _plan, certificate, _oracle = certified
        other = optimized("select(ibm, close > 115.0)", catalog)
        with pytest.raises(PartitionSoundnessError):
            execute_parallel(other, certificate, workers=2)


class TestContainment:
    """Per-partition fault containment and the retry accounting."""

    @pytest.mark.parametrize("workers", (1, 2))
    def test_transient_execution_fault_retried(self, certified, workers, monkeypatch):
        real = par._execute_partition
        lock = threading.Lock()
        failed: list[int] = []

        def flaky(subplan, window, options, guard, tracer):
            with lock:
                inject = not failed and window.start not in failed
                if inject:
                    failed.append(window.start)
            if inject:
                raise TransientStorageError("injected transient worker fault")
            return real(subplan, window, options, guard, tracer)

        monkeypatch.setattr(par, "_execute_partition", flaky)
        answer, counters = run_parallel(certified, workers=workers)
        assert list(answer.iter_nonnull()) == certified[2]
        assert counters.partitions_executed == PARTS
        assert counters.partition_retries == 1

    @pytest.mark.parametrize("workers", (1, 2))
    def test_transient_budget_exhausted_raises(self, certified, workers, monkeypatch):
        def always(subplan, window, options, guard, tracer):
            raise TransientStorageError("injected persistent transient fault")

        monkeypatch.setattr(par, "_execute_partition", always)
        counters = ExecutionCounters()
        with pytest.raises(TransientStorageError):
            run_parallel(certified, workers=workers, counters=counters)
        # One retry per partition that reached its second attempt; at
        # least the first-failing partition exhausted its budget.
        assert counters.partition_retries >= 1
        assert counters.partitions_executed == 0

    @pytest.mark.parametrize("workers", (1, 2))
    def test_permanent_fault_fails_fast(self, certified, workers, monkeypatch):
        def doomed(subplan, window, options, guard, tracer):
            raise PermanentStorageError("injected lost page")

        monkeypatch.setattr(par, "_execute_partition", doomed)
        counters = ExecutionCounters()
        with pytest.raises(PermanentStorageError):
            run_parallel(certified, workers=workers, counters=counters)
        assert counters.partition_retries == 0

    def test_untyped_worker_death_is_typed(self, certified, monkeypatch):
        real = par._execute_partition

        def dying(subplan, window, options, guard, tracer):
            if window.start == certified[1].partitions[1].window.start:
                raise ValueError("worker bug, not a typed fault")
            return real(subplan, window, options, guard, tracer)

        monkeypatch.setattr(par, "_execute_partition", dying)
        with pytest.raises(ParallelExecutionError) as excinfo:
            run_parallel(certified, workers=2)
        assert excinfo.value.partition_index == 1
        assert "ValueError" in str(excinfo.value)

    def test_pool_spawn_failure_is_typed(self, certified, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("cannot allocate thread")

        monkeypatch.setattr(par, "ThreadPoolExecutor", refuse)
        with pytest.raises(ParallelExecutionError):
            run_parallel(certified, workers=2)


class TestSupervision:
    """Stragglers, cancellation fan-out, and the shared budget."""

    def test_straggler_speculation_rescues(self, certified, monkeypatch):
        slow_start = certified[1].partitions[0].window.start
        gate = threading.Event()
        real = par._execute_partition
        lock = threading.Lock()
        attempts: list[int] = []

        def stub(subplan, window, options, guard, tracer):
            if window.start == slow_start:
                with lock:
                    attempts.append(window.start)
                    first = len(attempts) == 1
                if first:
                    gate.wait(10.0)
            return real(subplan, window, options, guard, tracer)

        monkeypatch.setattr(par, "_execute_partition", stub)
        try:
            answer, counters = run_parallel(
                certified, workers=2, straggler_timeout=0.05
            )
        finally:
            gate.set()
        assert list(answer.iter_nonnull()) == certified[2]
        assert counters.stragglers_redispatched == 1
        assert counters.partitions_executed == PARTS
        assert len(attempts) == 2

    def test_straggler_twice_times_out(self, certified, monkeypatch):
        slow_start = certified[1].partitions[0].window.start
        gate = threading.Event()
        real = par._execute_partition

        def stub(subplan, window, options, guard, tracer):
            if window.start == slow_start:
                gate.wait(10.0)
            return real(subplan, window, options, guard, tracer)

        monkeypatch.setattr(par, "_execute_partition", stub)
        counters = ExecutionCounters()
        try:
            with pytest.raises(QueryTimeoutError) as excinfo:
                run_parallel(
                    certified,
                    workers=2,
                    counters=counters,
                    straggler_timeout=0.05,
                )
        finally:
            gate.set()
        assert counters.stragglers_redispatched == 1
        assert excinfo.value.timeout_seconds == 0.05

    def test_failure_cancels_siblings_not_caller(self, certified, monkeypatch):
        real = par._execute_partition
        bad_start = certified[1].partitions[1].window.start

        def dying(subplan, window, options, guard, tracer):
            if window.start == bad_start:
                raise ValueError("boom")
            return real(subplan, window, options, guard, tracer)

        monkeypatch.setattr(par, "_execute_partition", dying)
        token = CancellationToken()
        guard = QueryGuard(cancellation=token)
        with pytest.raises(ParallelExecutionError):
            run_parallel(certified, workers=2, guard=guard)
        assert not token.cancelled
        assert guard.cancellation is token

    def test_caller_cancel_reaches_workers(self, certified):
        token = CancellationToken()
        token.cancel()
        guard = QueryGuard(cancellation=token)
        with pytest.raises(QueryCancelledError):
            run_parallel(certified, workers=2, guard=guard)
        assert guard.cancellation is token

    def test_shared_record_budget_bounds_the_query(self, certified):
        total = len(certified[2])
        guard = QueryGuard(max_records=total // 2)
        with pytest.raises(QueryGuardError):
            run_parallel(certified, workers=2, guard=guard)
        # The full budget admits the query across the same workers.
        answer, _counters = run_parallel(
            certified, workers=2, guard=QueryGuard(max_records=total)
        )
        assert list(answer.iter_nonnull()) == certified[2]

    def test_guard_record_accounting_is_thread_safe(self):
        guard = QueryGuard()
        guard.start()
        lanes, per_lane = 8, 2000

        def hammer():
            for _ in range(per_lane):
                guard.note_records(1)

        threads = [threading.Thread(target=hammer) for _ in range(lanes)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert guard.records_emitted == lanes * per_lane


SPAN = Span(0, 299)

FAULT_CLASSES = {
    "transient": dict(transient_rate=0.15),
    "permanent": dict(permanent_rate=0.05),
    "corrupt": dict(corrupt_rate=0.05),
    "mixed": dict(
        transient_rate=0.1, permanent_rate=0.02, corrupt_rate=0.02, latency_rate=0.1
    ),
}


def stored_query(fault_plan=None):
    """The chaos workload over a (possibly fault-injecting) disk."""
    source = generate_stock(StockSpec("s", SPAN, 1.0, seed=5))
    stored = StoredSequence.from_sequence(
        "s", source, fault_plan=fault_plan, page_capacity=16, buffer_pages=8
    )
    catalog = Catalog()
    catalog.register("s", stored)
    query = base(stored, "s").window("avg", "close", 7).query()
    return query, catalog, stored


class TestChaosParallel:
    """The PR 4 chaos contract holds under parallel execution."""

    @pytest.fixture(scope="class")
    def reference(self):
        query, catalog, _stored = stored_query()
        return run_query(query, catalog=catalog).to_pairs()

    @pytest.mark.parametrize("workers", (2, 4))
    @pytest.mark.parametrize("fault_class", sorted(FAULT_CLASSES))
    def test_exact_answer_or_typed_error(self, reference, workers, fault_class):
        for seed in (1, 2):
            plan = FaultPlan(seed, **FAULT_CLASSES[fault_class])
            query, catalog, _stored = stored_query(plan)
            try:
                answer = run_query(
                    query, catalog=catalog, parallel="force", workers=workers
                )
            except (TransientStorageError, PermanentStorageError):
                continue
            assert answer.to_pairs() == reference, (fault_class, seed, workers)

    @pytest.mark.parametrize("fault_class", sorted(FAULT_CLASSES))
    def test_seeded_faults_deterministic_across_workers(self, fault_class):
        outcomes = []
        for workers in WORKERS:
            # Fresh disk per run, same seed, same fixed 4-way
            # certificate: only the worker count varies.
            fault_plan = FaultPlan(3, **FAULT_CLASSES[fault_class])
            source = generate_stock(StockSpec("s", SPAN, 1.0, seed=5))
            stored = StoredSequence.from_sequence(
                "s", source, fault_plan=fault_plan, page_capacity=16, buffer_pages=8
            )
            plan = optimize(
                base(stored, "s").window("avg", "close", 7).query()
            ).plan
            certificate = certify(plan, PARTS)
            counters = ExecutionCounters()
            try:
                answer = execute_parallel(
                    plan, certificate, workers=workers, counters=counters
                ).to_pairs()
                verdict = ("answer", answer)
            except (TransientStorageError, PermanentStorageError) as error:
                verdict = ("error", type(error).__name__)
            storage = stored.counters
            outcomes.append(
                (
                    verdict,
                    storage.faults_injected,
                    storage.retries_attempted,
                    storage.retries_exhausted,
                    counters.partition_retries,
                )
            )
        # Serial preparation makes the fault trace — not just the
        # outcome — identical no matter how many workers execute.
        assert outcomes[0] == outcomes[1] == outcomes[2]


    #: organization -> (page_reads, records_streamed, faults, trace digest)
    #: of preparing both partitions, recorded while a slice was still a
    #: record-by-record copy of ``iter_nonnull``.
    PREPARE_PINS = {
        "clustered": (19, 306, 7, "a58ee0a0f3f59a3f"),
        "indexed": (194, 306, 67, "6e79faddf33e5583"),
        "log": (29, 306, 7, "a58ee0a0f3f59a3f"),
    }

    @pytest.mark.parametrize("organization", sorted(PREPARE_PINS))
    def test_prepare_reads_what_the_record_scan_read(self, organization):
        fault_plan = FaultPlan(3, transient_rate=0.15, latency_rate=0.1)
        source = generate_stock(StockSpec("s", SPAN, 1.0, seed=5))
        stored = StoredSequence.from_sequence(
            "s",
            source,
            organization=organization,
            fault_plan=fault_plan,
            page_capacity=16,
            buffer_pages=8,
        )
        plan = optimize(base(stored, "s").window("avg", "close", 7).query()).plan
        certificate = certify(plan, 2)
        paths = plan_paths(plan.plan)
        for partition in certificate.partitions:
            par.partition_plan(plan.plan, partition, paths)
        digest = hashlib.sha256(repr(fault_plan.trace).encode()).hexdigest()[:16]
        assert (
            stored.counters.page_reads,
            stored.counters.records_streamed,
            len(fault_plan.trace),
            digest,
        ) == self.PREPARE_PINS[organization]


class TestLadder:
    """The engine's one degradation ladder (DESIGN §9)."""

    SOURCE = "window(ibm, avg, close, 6, ma6)"

    def ladder_run(self, table1, source, guard=None, **kwargs):
        catalog, _sequences = table1
        plan = optimized(source, catalog)
        counters = ExecutionCounters()
        tracer = Tracer()
        answer = execute_plan(
            plan.plan,
            plan.output_span,
            counters,
            tracer=tracer,
            guard=guard,
            workers=2,
            **kwargs,
        )
        return plan, answer, counters, tracer

    def clean_run(self, table1, mode):
        """Counters and guard record count of an undegraded run."""
        catalog, _sequences = table1
        plan = optimized(self.SOURCE, catalog)
        counters, guard = ExecutionCounters(), QueryGuard()
        execute_plan(plan.plan, plan.output_span, counters, mode=mode, guard=guard)
        return counters, guard.records_emitted

    def events(self, tracer, name="parallel:fallback"):
        # Partition lanes open nested "execute" spans; the ladder's
        # events land on the parentless root.
        root = next(s for s in tracer.find("execute") if s.parent_id is None)
        return [e for e in root.events if e.name == name]

    def break_pool(self, monkeypatch):
        """Make the parallel rung fail with an infrastructure error."""

        def refuse(*args, **kwargs):
            raise OSError("cannot allocate thread")

        monkeypatch.setattr(par, "ThreadPoolExecutor", refuse)

    def break_batch(self, monkeypatch):
        """Make every batch-mode drain fail after charging some work."""

        def broken(ctx, plan, window):
            ctx.counters.batches_built += 3
            raise ExecutionError("synthetic batch bug")
            yield  # pragma: no cover

        monkeypatch.setattr(ExecContext, "batches", broken)

    def test_auto_runs_parallel_when_certifiable(self, table1):
        plan, answer, counters, tracer = self.ladder_run(
            table1, self.SOURCE, parallel="auto"
        )
        assert list(answer.iter_nonnull()) == row_oracle(plan)
        assert counters.partitions_executed == 2
        assert counters.parallel_fallbacks == counters.fallbacks_taken == 0
        assert not self.events(tracer) and not self.events(tracer, "fallback")

    def test_auto_refusal_degrades_to_single_thread(self, table1):
        plan, answer, counters, tracer = self.ladder_run(
            table1, "cumulative(ibm, max, close)", parallel="auto"
        )
        assert list(answer.iter_nonnull()) == row_oracle(plan)
        assert counters.partitions_executed == 0
        assert counters.parallel_fallbacks == 1
        events = self.events(tracer)
        assert [e.attrs["rung"] for e in events] == ["single-thread"]
        assert events[0].attrs["error"] == "PartitionSoundnessError"

    def test_force_refusal_raises_typed(self, table1):
        with pytest.raises(PartitionSoundnessError) as excinfo:
            self.ladder_run(table1, "cumulative(ibm, max, close)", parallel="force")
        assert "not parallel-decomposable" in str(excinfo.value)

    def test_infrastructure_failure_degrades_sequential(self, table1, monkeypatch):
        self.break_pool(monkeypatch)
        for mode in ("batch", "row"):
            guard = QueryGuard()
            plan, answer, counters, tracer = self.ladder_run(
                table1, self.SOURCE, guard=guard, parallel="auto", mode=mode
            )
            assert list(answer.iter_nonnull()) == row_oracle(plan)
            events = self.events(tracer)
            assert [e.attrs["rung"] for e in events] == ["single-thread"]
            assert events[0].attrs["error"] == "ParallelExecutionError"
            # The degraded run's accounting is a clean run of the rung
            # that answered plus exactly one fallback charge.
            clean, clean_records = self.clean_run(table1, mode)
            clean.parallel_fallbacks += 1
            assert counters.as_dict() == clean.as_dict()
            assert guard.records_emitted == clean_records

    def test_double_failure_degrades_to_row_oracle(self, table1, monkeypatch):
        self.break_pool(monkeypatch)
        self.break_batch(monkeypatch)
        guard = QueryGuard()
        plan, answer, counters, tracer = self.ladder_run(
            table1, self.SOURCE, guard=guard, parallel="auto", fallback=True
        )
        assert list(answer.iter_nonnull()) == row_oracle(plan)
        assert [e.attrs["rung"] for e in self.events(tracer)] == ["single-thread"]
        (event,) = self.events(tracer, "fallback")
        assert event.attrs["rung"] == "row-oracle"
        assert event.attrs["error"] == "ExecutionError"
        # Both charges intact: the second rewind did not erase the first.
        clean, clean_records = self.clean_run(table1, "row")
        clean.parallel_fallbacks += 1
        clean.fallbacks_taken += 1
        assert counters.as_dict() == clean.as_dict()
        assert guard.records_emitted == clean_records

    def test_double_failure_without_fallback_raises_typed(self, table1, monkeypatch):
        self.break_pool(monkeypatch)
        self.break_batch(monkeypatch)
        catalog, _sequences = table1
        plan = optimized(self.SOURCE, catalog)
        counters = ExecutionCounters()
        with pytest.raises(ExecutionError, match="synthetic batch bug"):
            execute_plan(
                plan.plan, plan.output_span, counters, parallel="auto", workers=2
            )
        assert counters.parallel_fallbacks == 1
        assert counters.fallbacks_taken == 0

    def test_force_infrastructure_failure_raises(self, table1, monkeypatch):
        self.break_pool(monkeypatch)
        with pytest.raises(ParallelExecutionError):
            self.ladder_run(table1, self.SOURCE, parallel="force")

    def test_ladder_never_swallows_guard_verdicts(self, table1, monkeypatch):
        def verdict(*args, **kwargs):
            raise QueryCancelledError("cancelled mid-flight")

        monkeypatch.setattr(par, "_execute_partition", verdict)
        for parallel in ("auto", "force"):
            with pytest.raises(QueryCancelledError):
                self.ladder_run(table1, self.SOURCE, parallel=parallel, fallback=True)

    def test_storage_fault_in_parallel_rung_is_an_answer(self, table1, monkeypatch):
        def lost(*args, **kwargs):
            raise PermanentStorageError("injected lost page")

        monkeypatch.setattr(par, "_execute_partition", lost)
        with pytest.raises(PermanentStorageError):
            self.ladder_run(table1, self.SOURCE, parallel="auto", fallback=True)
