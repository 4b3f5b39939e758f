"""Tests for certified partitioned execution (DESIGN §14).

Five halves:

* **equivalence** — the partitioned run reproduces the row-oracle
  answer across partition counts {1, 2, 4} and both execution modes,
  with every partition's ``execute`` frame and operator spans recorded
  under its own ``partition`` span in the caller's tracer;
* **containment** — a partition's typed storage error passes through
  unretried;
* **supervision** — the caller's cancel stops the run at a checkpoint,
  and one guard bounds the whole query across partitions;
* **chaos** — the fault matrix holds under partitioned execution (exact
  answer or typed error, never a wrong answer), seeded fault traces are
  reproducible at every partition count, and every page is read while
  the partitions are prepared, before the first one executes;
* **the ladder** — ``parallel="auto"`` degrades the certified
  partitions → the requested mode on the whole plan → (with
  ``fallback``) the row oracle, charging ``parallel_fallbacks`` /
  ``fallbacks_taken`` and tracing ``parallel:fallback`` / ``fallback``,
  while ``force`` raises the typed refusal instead.  (Bad knobs: the
  closure table in ``tests/test_faults.py``.)
"""

from __future__ import annotations

import hashlib
import threading

import pytest

import repro.execution.partition as part
from repro.algebra import base
from repro.analysis.base import plan_paths
from repro.analysis.partition import PartitionSoundnessError, certify
from repro.catalog import Catalog
from repro.errors import (
    ExecutionError,
    PermanentStorageError,
    QueryCancelledError,
    QueryGuardError,
    TransientStorageError,
)
from repro.execution import (
    CancellationToken,
    ExecutionCounters,
    QueryGuard,
    execute_partitioned,
    execute_plan,
    run_query,
)
from repro.execution.context import ExecContext
from repro.lang import compile_query
from repro.model import Span
from repro.obs.tracer import Tracer
from repro.optimizer import optimize
from repro.storage import FaultPlan, StoredSequence
from repro.storage.faults import FaultyDisk
from repro.workloads import StockSpec, generate_stock

PARTITIONS = (1, 2, 4)
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


def run_partitioned(certified, parts=PARTS, **kwargs):
    """Run the fixture plan cut into ``parts`` certified partitions."""
    plan, certificate, _oracle = certified
    if parts != PARTS:
        certificate = certify(plan, parts)
    counters = kwargs.pop("counters", ExecutionCounters())
    answer = execute_partitioned(plan, certificate, counters=counters, **kwargs)
    return answer, counters


class TestEquivalence:
    """Partitioned answers equal the row oracle, counters and all."""

    @pytest.mark.parametrize("parts", PARTITIONS)
    @pytest.mark.parametrize("mode", ("row", "batch"))
    def test_matches_row_oracle(self, certified, parts, mode):
        answer, counters = run_partitioned(certified, parts, mode=mode)
        assert list(answer.iter_nonnull()) == certified[2]
        assert counters.partitions_executed == parts
        assert counters.partition_retries == 0
        assert counters.stragglers_redispatched == 0

    @pytest.mark.parametrize("parts", (1, 2))
    def test_partition_spans_parent_their_frames(self, certified, parts):
        tracer = Tracer()
        answer, _counters = run_partitioned(certified, parts, tracer=tracer)
        assert list(answer.iter_nonnull()) == certified[2]
        (parallel_span,) = tracer.find("parallel")
        assert parallel_span.attrs["partitions_executed"] == parts
        partition_spans = tracer.find("partition")
        assert len(partition_spans) == parts
        assert {s.attrs["index"] for s in partition_spans} == set(range(parts))
        assert all(s.parent_id == parallel_span.span_id for s in partition_spans)
        children = {s.span_id: [] for s in tracer.spans}
        for span in tracer.spans:
            if span.parent_id is not None:
                children[span.parent_id].append(span)
        for span in partition_spans:
            # Each partition span parents exactly its own execute frame,
            # and that frame parents the partition's operators.
            (frame,) = children[span.span_id]
            assert frame.name == "execute"
            assert frame.attrs["records_emitted"] == span.attrs["records"]
            assert [s.category for s in children[frame.span_id]] == ["operator"]
            assert span.start_us <= frame.start_us <= frame.end_us <= span.end_us
        assert sum(s.attrs["records"] for s in partition_spans) == len(certified[2])

    def test_enclosing_spans_end_after_the_last_partition(self, table1):
        catalog, _sequences = table1
        plan = optimized("window(ibm, avg, close, 6, ma6)", catalog)
        tracer = Tracer()
        execute_plan(plan, tracer=tracer, parallel="force", workers=2)
        (root,) = [s for s in tracer.find("execute") if s.parent_id is None]
        (parallel_span,) = tracer.find("parallel")
        assert parallel_span.parent_id == root.span_id
        partition_spans = tracer.find("partition")
        assert len(partition_spans) == 2
        last = max(s.end_us for s in partition_spans)
        assert last <= parallel_span.end_us <= root.end_us
        assert all(s.end_us is not None for s in tracer.spans)

    def test_verify_rejects_foreign_certificate(self, certified, table1):
        catalog, _sequences = table1
        _plan, certificate, _oracle = certified
        other = optimized("select(ibm, close > 115.0)", catalog)
        with pytest.raises(PartitionSoundnessError):
            execute_partitioned(other, certificate)


class TestContainment:
    """A partition's typed error is the query's."""

    @pytest.mark.parametrize("parts", (1, 2))
    @pytest.mark.parametrize("error", (TransientStorageError, PermanentStorageError))
    def test_permanent_fault_fails_fast(self, certified, error, parts, monkeypatch):
        # A partition's typed storage error passes through unretried:
        # partitions read no page (see test_lanes_read_no_page), so only
        # prepare rebuilds a partition.
        def doomed(subplan, window, options, counters, guard, tracer):
            raise error("injected storage fault")

        monkeypatch.setattr(part, "_execute_partition", doomed)
        counters = ExecutionCounters()
        with pytest.raises(error):
            run_partitioned(certified, parts, counters=counters)
        assert counters.partition_retries == 0
        assert counters.partitions_executed == 0


class TestSupervision:
    """The caller's cancel and the shared budget."""

    def test_caller_cancel_reaches_workers(self, certified):
        token = CancellationToken()
        token.cancel()
        guard = QueryGuard(cancellation=token)
        counters = ExecutionCounters()
        with pytest.raises(QueryCancelledError):
            run_partitioned(certified, guard=guard, counters=counters)
        assert guard.cancellation is token
        assert guard.verdict == "QueryCancelledError"
        assert counters.partitions_executed == 0

    def test_shared_record_budget_bounds_the_query(self, certified):
        total = len(certified[2])
        guard = QueryGuard(max_records=total // 2)
        counters = ExecutionCounters()
        with pytest.raises(QueryGuardError):
            run_partitioned(certified, guard=guard, counters=counters)
        # Every partition is within budget alone; their sum is not.
        assert 0 < counters.partitions_executed < PARTS
        # The full budget admits the query across the same partitions.
        guard = QueryGuard(max_records=total)
        answer, _counters = run_partitioned(certified, guard=guard)
        assert list(answer.iter_nonnull()) == certified[2]
        assert guard.records_emitted == total

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
    """The DESIGN §9 chaos contract holds under partitioned execution."""

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
        def outcome(parts):
            # Fresh disk per run, same seed, same certificate.
            fault_plan = FaultPlan(3, **FAULT_CLASSES[fault_class])
            source = generate_stock(StockSpec("s", SPAN, 1.0, seed=5))
            stored = StoredSequence.from_sequence(
                "s", source, fault_plan=fault_plan, page_capacity=16, buffer_pages=8
            )
            plan = optimize(base(stored, "s").window("avg", "close", 7).query()).plan
            counters = ExecutionCounters()
            try:
                answer = execute_partitioned(
                    plan, certify(plan, parts), counters=counters
                ).to_pairs()
                verdict = ("answer", answer)
            except (TransientStorageError, PermanentStorageError) as error:
                verdict = ("error", type(error).__name__)
            storage = stored.counters
            return (
                verdict,
                repr(fault_plan.trace),
                storage.faults_injected,
                storage.retries_attempted,
                storage.retries_exhausted,
                counters.partition_retries,
            )

        # The partitions are prepared in order on the calling thread, so
        # a seed fixes the fault trace — not just the outcome — at every
        # partition count.
        for parts in PARTITIONS:
            assert outcome(parts) == outcome(parts), parts

    def test_lanes_read_no_page(self, monkeypatch):
        # What a partition's one attempt rests on: prepare drains every
        # stored leaf before the first partition executes, so no
        # partition can meet a storage fault to retry.
        fault_plan = FaultPlan(3, transient_rate=0.15)
        source = generate_stock(StockSpec("s", SPAN, 1.0, seed=5))
        stored = StoredSequence.from_sequence(
            "s",
            source,
            organization="clustered",
            fault_plan=fault_plan,
            page_capacity=16,
            buffer_pages=8,
        )
        plan = optimize(base(stored, "s").window("avg", "close", 7).query()).plan
        log: list[str] = []
        read, execute = FaultyDisk.read, part._execute_partition

        def logged_read(disk, page_id):
            log.append("read")
            return read(disk, page_id)

        def logged_execute(*args):
            log.append("execute")
            return execute(*args)

        monkeypatch.setattr(FaultyDisk, "read", logged_read)
        monkeypatch.setattr(part, "_execute_partition", logged_execute)
        execute_partitioned(plan, certify(plan, PARTS))
        assert log.count("execute") == PARTS
        assert "read" in log
        assert "read" not in log[log.index("execute"):]
        assert stored.counters.faults_injected > 0

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
            part.partition_plan(plan.plan, partition, paths)
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
        # Partitions open nested "execute" spans; the ladder's events
        # land on the parentless root.
        root = next(s for s in tracer.find("execute") if s.parent_id is None)
        return [e for e in root.events if e.name == name]

    def break_partitions(self, monkeypatch):
        """Make the second partition fail with an internal error.

        The first one has run by then, so the ladder must rewind its
        counters and guard records.
        """
        real = part._execute_partition

        def failing(subplan, window, options, counters, guard, tracer):
            if counters.partitions_executed:
                raise ExecutionError("synthetic partition bug")
            return real(subplan, window, options, counters, guard, tracer)

        monkeypatch.setattr(part, "_execute_partition", failing)

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
        self.break_partitions(monkeypatch)
        for mode in ("batch", "row"):
            guard = QueryGuard()
            plan, answer, counters, tracer = self.ladder_run(
                table1, self.SOURCE, guard=guard, parallel="auto", mode=mode
            )
            assert list(answer.iter_nonnull()) == row_oracle(plan)
            events = self.events(tracer)
            assert [e.attrs["rung"] for e in events] == ["single-thread"]
            assert events[0].attrs["error"] == "ExecutionError"
            # The degraded run's accounting is a clean run of the rung
            # that answered plus exactly one fallback charge.
            clean, clean_records = self.clean_run(table1, mode)
            clean.parallel_fallbacks += 1
            assert counters.as_dict() == clean.as_dict()
            assert guard.records_emitted == clean_records

    def test_double_failure_degrades_to_row_oracle(self, table1, monkeypatch):
        self.break_partitions(monkeypatch)
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
        self.break_partitions(monkeypatch)
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
        self.break_partitions(monkeypatch)
        with pytest.raises(ExecutionError, match="synthetic partition bug"):
            self.ladder_run(table1, self.SOURCE, parallel="force", mode="row")

    def test_ladder_never_swallows_guard_verdicts(self, table1, monkeypatch):
        def verdict(*args, **kwargs):
            raise QueryCancelledError("cancelled mid-flight")

        monkeypatch.setattr(part, "_execute_partition", verdict)
        for parallel in ("auto", "force"):
            with pytest.raises(QueryCancelledError):
                self.ladder_run(table1, self.SOURCE, parallel=parallel, fallback=True)

    def test_storage_fault_in_parallel_rung_is_an_answer(self, table1, monkeypatch):
        def lost(*args, **kwargs):
            raise PermanentStorageError("injected lost page")

        monkeypatch.setattr(part, "_execute_partition", lost)
        with pytest.raises(PermanentStorageError):
            self.ladder_run(table1, self.SOURCE, parallel="auto", fallback=True)
