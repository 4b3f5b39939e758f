"""Fault injection, retry, resource governance, and degradation tests.

The chaos contract (DESIGN §9): under any injected fault schedule the
engine returns either the exact fault-free answer or a typed error — it
never hangs and never returns a wrong answer.
"""

from __future__ import annotations

import importlib.util
import itertools
import marshal
import os
import sys
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.execution.options as options_module
import repro.storage.page as page_module
from repro.errors import (
    CorruptPageError,
    ExecutionError,
    OptimizerError,
    PermanentStorageError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceBudgetExceededError,
    StorageError,
    TransientStorageError,
)
from repro.algebra import base, col
from repro.catalog import Catalog
from repro.analysis.partition import certify
from repro.execution import (
    CancellationToken,
    ExecOptions,
    ExecutionCounters,
    QueryGuard,
    build_prober,
    build_stream,
    execute_partitioned,
    execute_plan,
    run_query,
    run_query_detailed,
)
from repro.execution.context import ExecContext
from repro.model import Span
from repro.optimizer import CostParams, optimize
from repro.storage import (
    ORGANIZATION_KINDS,
    BufferPool,
    FaultPlan,
    FaultyDisk,
    Page,
    RetryPolicy,
    SimulatedDisk,
    StoredSequence,
)
from repro.workloads import StockSpec, generate_stock
from tests.test_property_storage import BACKENDS

SPAN = Span(0, 399)


def make_stored(name="stock", fault_plan=None, retry_policy=None, **kwargs):
    """A stored stock walk, optionally on a faulty disk."""
    source = generate_stock(StockSpec(name, SPAN, 1.0, seed=5))
    return StoredSequence.from_sequence(
        name,
        source,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        page_capacity=kwargs.pop("page_capacity", 16),
        buffer_pages=kwargs.pop("buffer_pages", 8),
        **kwargs,
    )


def select_query(stored):
    return base(stored, stored.name).select(col("close") > 50.0).query()


def window_query(stored):
    return base(stored, stored.name).window("avg", "close", 7).query()


def run_on(stored, query_of=select_query, **kwargs):
    catalog = Catalog()
    catalog.register(stored.name, stored)
    return run_query(query_of(stored), catalog=catalog, **kwargs)


@pytest.fixture(scope="module")
def reference_answers():
    """Fault-free answers for both query shapes (the chaos oracle)."""
    stored = make_stored()
    return {
        "select": run_on(stored, select_query).to_pairs(),
        "window": run_on(stored, window_query).to_pairs(),
    }


class TestPageChecksum:
    def test_running_checksum_matches_recompute(self):
        page = Page(0, 4)
        for entry in [(1, (1.0,)), (2, (2.0,)), (3, (3.0,))]:
            page.append(entry)
        assert page.checksum == page.compute_checksum()
        assert page.verify()

    def test_tampering_is_detected(self):
        page = Page(0, 4)
        page.append((1, (1.0,)))
        page.slots[0] = (1, (99.0,))
        assert not page.verify()

    def test_disk_rejects_corrupted_page(self):
        disk = SimulatedDisk(page_capacity=4)
        page = disk.allocate()
        page.append((0, (1.0,)))
        assert disk.read(page.page_id) is page
        page.slots[0] = (0, (666.0,))
        with pytest.raises(CorruptPageError) as info:
            disk.read(page.page_id)
        assert info.value.page_id == page.page_id
        assert disk.counters.corrupt_pages_detected == 1

    def test_missing_page_is_permanent(self):
        with pytest.raises(PermanentStorageError):
            SimulatedDisk().read(404)

    @staticmethod
    def _entries(kind, leaf):
        """Three data- or index-shaped entries; the first one ends in ``leaf``."""
        if kind == Page.DATA:
            return [(1, (2.5, leaf)), (4, (0.5, 7)), (9, (1.5, 3))]
        return [(1, 10, leaf), (4, 11, 7), (9, 10, 3)]

    @staticmethod
    def _with_leaf(entry, leaf):
        if isinstance(entry[-1], tuple):
            return entry[:-1] + (entry[-1][:-1] + (leaf,),)
        return entry[:-1] + (leaf,)

    #: name -> (the first entry's last value, what happens to the slots).
    #: A pair of values is "that value rewritten in place as this one".
    TAMPERS = {
        "value-changed": (5, 6),
        "int-to-float": (1, 1.0),
        "float-to-bool": (1.0, True),
        "int-to-bool": (1, True),
        "zero-sign": (0.0, -0.0),
        "float-last-bit": (0.1 + 0.2, 0.3),
        "wrong-type": (5, "5"),
        "arbitrary-object": (5, object()),
        "position-changed": (5, lambda slots: slots.__setitem__(0, (2,) + slots[0][1:])),
        "slots-swapped": (5, lambda slots: slots.__setitem__(slice(0, 2), slots[1::-1])),
        "last-slot-dropped": (5, lambda slots: slots.pop()),
        "slot-appended": (5, lambda slots: slots.append(slots[0])),
        "entry-replaced-by-object": (5, lambda slots: slots.__setitem__(2, object())),
        # What FaultyDisk._corrupt does to the slot it picks.
        "faulty-disk-rewrite": (
            5, lambda slots: slots.__setitem__(1, ("__corrupt__",) + slots[1][1:])
        ),
    }

    @pytest.mark.parametrize("kind", [Page.DATA, Page.INDEX])
    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_tamper_matrix(self, tamper, kind):
        leaf, change = self.TAMPERS[tamper]
        disk = SimulatedDisk(page_capacity=4)
        page = disk.allocate(kind)
        for entry in self._entries(kind, leaf):
            page.append(entry)
        assert page.verify() and disk.read(page.page_id) is page
        if callable(change):
            change(page.slots)
        else:
            page.slots[0] = self._with_leaf(page.slots[0], change)
        assert not page.verify()
        with pytest.raises(CorruptPageError) as info:
            disk.read(page.page_id)
        assert info.value.page_id == page.page_id
        assert disk.counters.corrupt_pages_detected == 1

    def test_append_and_verify_are_total(self):
        """Whatever ``append`` is handed, neither it nor ``verify`` raises."""

        class Celsius(float):
            pass

        page = Page(0, 8)
        for values in [
            (2**64 + 1, -(2**200)),
            (Celsius(21.5),),
            ((1, (2.0, ("x", None))),),
            (float("nan"), float("inf"), ""),
            (object(),),
        ]:
            page.append((len(page), values))
            assert page.checksum == page.compute_checksum()
        assert page.verify()
        # The refusal fallback still tells values apart.
        page.slots[1] = (1, (Celsius(21.75),))
        assert not page.verify()

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(),
                st.lists(
                    st.one_of(st.integers(), st.floats(), st.booleans(), st.text(max_size=4)),
                    max_size=3,
                ).map(tuple),
            ),
            max_size=8,
        )
    )
    def test_running_checksum_is_the_recomputed_checksum(self, entries):
        page = Page(0, 8)
        for entry in entries:
            page.append(entry)
            assert page.checksum == page.compute_checksum()
        assert page.verify()

    #: Every kind of leaf a stored entry can hold, edge values included.
    LEAVES = st.one_of(
        st.integers(min_value=-(2**70), max_value=2**70),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf")]),
        st.booleans(),
        st.none(),
        st.text(max_size=4),
    )
    ENTRIES = st.lists(
        st.tuples(
            st.integers(),
            st.lists(
                st.one_of(LEAVES, st.tuples(LEAVES, LEAVES)), max_size=4
            ).map(tuple),
        ),
        max_size=12,
    )

    @staticmethod
    def _refused_leaves():
        """Leaves the one-call encoder refuses: a float subclass, numpy's float."""

        class Celsius(float):
            pass

        leaves = [Celsius(-0.5)]
        if importlib.util.find_spec("numpy") is not None:
            import numpy

            leaves.append(numpy.float64(2.25))
        return leaves

    @settings(max_examples=200, deadline=None)
    @given(entries=ENTRIES, refused=st.booleans(), at=st.integers(min_value=0))
    def test_one_call_checksum_is_the_per_entry_join(self, entries, refused, at):
        """The one encoder call gives the running CRC and the per-entry
        join's CRC; a slot list it refuses takes the join and agrees too."""
        if refused:
            for index, leaf in enumerate(self._refused_leaves()):
                entries.insert((at + index) % (len(entries) + 1), (index, (leaf,)))
        page = Page(0, len(entries) + 1)
        for entry in entries:
            page.append(entry)
        joined = zlib.crc32(b"".join(map(page_module._entry_bytes, page.slots)))
        if refused:
            with pytest.raises(ValueError):
                marshal.dumps(page.slots, 2)
        else:
            marshal.dumps(page.slots, 2)  # the list the one call encodes
        assert page.compute_checksum() == page.checksum == joined
        assert page.verify()


class TestRetryPolicy:
    def test_backoff_is_bounded_exponential(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base=1.0, backoff_multiplier=2.0, max_backoff=5.0
        )
        assert policy.backoff_delays() == [1.0, 2.0, 4.0, 5.0]

    def test_succeeds_after_transient_faults(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientStorageError("flaky")
            return "ok"

        counters = SimulatedDisk().counters
        assert RetryPolicy(max_attempts=4).run(flaky, counters) == "ok"
        assert len(attempts) == 3
        assert counters.retries_attempted == 2
        assert counters.retries_exhausted == 0

    def test_exhaustion_reraises_and_counts(self):
        def always():
            raise TransientStorageError("always")

        counters = SimulatedDisk().counters
        with pytest.raises(TransientStorageError):
            RetryPolicy(max_attempts=3).run(always, counters)
        assert counters.retries_attempted == 2
        assert counters.retries_exhausted == 1

    def test_permanent_faults_pass_through_unretried(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise PermanentStorageError("broken")

        with pytest.raises(PermanentStorageError):
            RetryPolicy(max_attempts=4).run(broken)
        assert len(attempts) == 1

    def test_sleep_callable_sees_capped_delays(self):
        slept = []

        def flaky():
            if len(slept) < 2:
                raise TransientStorageError("flaky")
            return "ok"

        policy = RetryPolicy(
            max_attempts=4,
            backoff_base=1.0,
            backoff_multiplier=10.0,
            max_backoff=3.0,
            sleep=slept.append,
        )
        assert policy.run(flaky) == "ok"
        assert slept == [1.0, 3.0]

    def test_validation(self):
        with pytest.raises(StorageError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(StorageError):
            RetryPolicy(backoff_multiplier=0.5)


class TestFaultPlan:
    def test_decide_is_pure_in_seed_page_and_read_index(self):
        plan_a = FaultPlan(7, transient_rate=0.3, corrupt_rate=0.1)
        plan_b = FaultPlan(7, transient_rate=0.3, corrupt_rate=0.1)
        decisions_a = [plan_a.decide(p, r) for p in range(50) for r in (1, 2, 3)]
        decisions_b = [plan_b.decide(p, r) for p in range(50) for r in (1, 2, 3)]
        assert decisions_a == decisions_b
        assert any(kind is not None for kind in decisions_a)

    def test_decide_independent_of_call_order(self):
        plan = FaultPlan(3, transient_rate=0.5)
        forward = {(p, r): plan.decide(p, r) for p in range(20) for r in (1, 2)}
        backward = {
            (p, r): plan.decide(p, r)
            for p in reversed(range(20))
            for r in (2, 1)
        }
        assert forward == backward

    def test_different_seeds_differ(self):
        a = [FaultPlan(1, transient_rate=0.5).decide(p, 1) for p in range(100)]
        b = [FaultPlan(2, transient_rate=0.5).decide(p, 1) for p in range(100)]
        assert a != b

    def test_scripted_overrides_win(self):
        plan = FaultPlan(0, scripted={(4, 1): "permanent"})
        assert plan.decide(4, 1) == "permanent"
        assert plan.decide(4, 2) is None

    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "seed=7, transient=0.1, permanent=0.01, corrupt=0.005,"
            "latency=0.2, latency_ticks=3"
        )
        assert plan.seed == 7
        assert plan.transient_rate == 0.1
        assert plan.permanent_rate == 0.01
        assert plan.corrupt_rate == 0.005
        assert plan.latency_rate == 0.2
        assert plan.latency_ticks == 3

    @pytest.mark.parametrize(
        "spec", ["bogus=1", "transient", "transient=lots", "seed=x"]
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(StorageError):
            FaultPlan.parse(spec)

    def test_rates_validated(self):
        with pytest.raises(StorageError):
            FaultPlan(0, transient_rate=1.5)
        with pytest.raises(StorageError):
            FaultPlan(0, transient_rate=0.6, permanent_rate=0.6)


class TestFaultyDisk:
    def _disk(self, plan):
        disk = FaultyDisk(plan, page_capacity=4, label="t")
        page = disk.allocate()
        page.append((0, (1.0,)))
        page.append((1, (2.0,)))
        return disk, page.page_id

    def test_transient_fault_raised_and_traced(self):
        plan = FaultPlan(0, scripted={(0, 1): "transient"})
        disk, page_id = self._disk(plan)
        with pytest.raises(TransientStorageError):
            disk.read(page_id)
        assert disk.read(page_id) is not None  # read #2 is clean
        assert [(e.kind, e.page_id, e.read_index) for e in plan.trace] == [
            ("transient", 0, 1)
        ]
        assert disk.counters.faults_injected == 1

    def test_latency_is_counted_not_raised(self):
        plan = FaultPlan(0, scripted={(0, 1): "latency"}, latency_ticks=5)
        disk, page_id = self._disk(plan)
        disk.read(page_id)
        assert disk.counters.latency_events == 5

    def test_corruption_is_sticky_and_detected(self):
        plan = FaultPlan(0, scripted={(0, 2): "corrupt"})
        disk, page_id = self._disk(plan)
        disk.read(page_id)  # read #1: clean
        with pytest.raises(CorruptPageError):
            disk.read(page_id)  # read #2: corrupted, detected
        with pytest.raises(CorruptPageError):
            disk.read(page_id)  # read #3: still corrupt (sticky)
        assert disk.counters.corrupt_pages_detected == 2
        # only the original tampering lands in the trace
        assert [e.kind for e in plan.trace] == ["corrupt"]


class TestBufferPool:
    def test_retry_absorbs_transient_faults(self):
        plan = FaultPlan(0, scripted={(0, 1): "transient", (0, 2): "transient"})
        disk = FaultyDisk(plan, page_capacity=4)
        page = disk.allocate()
        page.append((0, (1.0,)))
        pool = BufferPool(disk, capacity=2, retry_policy=RetryPolicy(max_attempts=4))
        assert pool.get(0) is page
        assert disk.counters.retries_attempted == 2
        assert disk.counters.retries_exhausted == 0

    def test_retry_exhaustion_surfaces(self):
        plan = FaultPlan(0, scripted={(0, r): "transient" for r in range(1, 10)})
        disk = FaultyDisk(plan, page_capacity=4)
        disk.allocate().append((0, (1.0,)))
        pool = BufferPool(disk, capacity=2, retry_policy=RetryPolicy(max_attempts=3))
        with pytest.raises(TransientStorageError):
            pool.get(0)
        assert disk.counters.retries_exhausted == 1

    def test_evictions_are_counted(self):
        disk = SimulatedDisk(page_capacity=4)
        for _ in range(4):
            disk.allocate()
        pool = BufferPool(disk, capacity=2)
        for page_id in range(4):
            pool.get(page_id)
        assert disk.counters.buffer_evictions == 2

    def test_stored_sequence_scan_counts_evictions(self):
        stored = make_stored(page_capacity=8, buffer_pages=2)
        run_on(stored)
        assert stored.counters.buffer_evictions > 0


class TestChaosMatrix:
    """Every fault class x both executors: exact answer or typed error."""

    KINDS = {
        "transient": dict(transient_rate=0.2),
        "permanent": dict(permanent_rate=0.05),
        "corrupt": dict(corrupt_rate=0.05),
        "latency": dict(latency_rate=0.3, latency_ticks=2),
        "mixed": dict(
            transient_rate=0.1, permanent_rate=0.02, corrupt_rate=0.02,
            latency_rate=0.1,
        ),
    }

    @pytest.mark.parametrize("mode", ["batch", "row"])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("shape", ["select", "window"])
    def test_exact_answer_or_typed_error(
        self, kind, mode, shape, reference_answers
    ):
        queries = {"select": select_query, "window": window_query}
        for seed in range(3):
            plan = FaultPlan(seed, **self.KINDS[kind])
            stored = make_stored(fault_plan=plan)
            try:
                answer = run_on(stored, queries[shape], mode=mode)
            except (TransientStorageError, PermanentStorageError, CorruptPageError):
                continue  # a typed failure is an acceptable outcome
            assert answer.to_pairs() == reference_answers[shape]

    def test_latency_never_fails(self, reference_answers):
        for mode in ("batch", "row"):
            plan = FaultPlan(1, latency_rate=0.5, latency_ticks=2)
            stored = make_stored(fault_plan=plan)
            answer = run_on(stored, mode=mode)
            assert answer.to_pairs() == reference_answers["select"]
            assert stored.counters.latency_events > 0


class TestDeterminism:
    def _trace(self, plan):
        return [(e.kind, e.page_id, e.read_index) for e in plan.trace]

    @pytest.mark.parametrize("mode", ["batch", "row"])
    def test_same_seed_same_trace_and_counters(self, mode):
        outcomes = []
        for _ in range(2):
            plan = FaultPlan(11, transient_rate=0.15, latency_rate=0.1)
            stored = make_stored(fault_plan=plan)
            try:
                pairs = run_on(stored, window_query, mode=mode).to_pairs()
            except StorageError as error:
                pairs = type(error).__name__
            outcomes.append(
                (pairs, self._trace(plan), stored.counters.as_dict())
            )
        assert outcomes[0] == outcomes[1]

    #: All four fault kinds at once; per organization, seeds whose runs end
    #: in an answer and in each typed error the schedule can produce.
    ALL_KINDS = dict(
        transient_rate=0.1, permanent_rate=0.004, corrupt_rate=0.004, latency_rate=0.1
    )

    def test_modes_see_identical_traces_on_scans(self):
        """Row and batch scans issue the same page reads, so the same faults:
        the same trace, and the same answer or the same typed error."""
        cases = [(dict(transient_rate=0.15, latency_rate=0.1), 11, None)]
        cases += [(self.ALL_KINDS, seed, Span(37, 311)) for seed in range(12)]
        for organization, backend in itertools.product(ORGANIZATION_KINDS, BACKENDS):
            outcomes = set()
            for rates, seed, window in cases:
                results = {}
                for mode in ("batch", "row"):
                    plan = FaultPlan(seed, **rates)
                    stored = make_stored(fault_plan=plan, organization=organization)
                    try:
                        with backend():
                            outcome = run_on(stored, mode=mode, span=window).to_pairs()
                    except StorageError as error:
                        outcome = type(error).__name__
                    results[mode] = (outcome, self._trace(plan))
                assert results["batch"] == results["row"], (organization, rates, seed)
                outcomes.add(outcome if isinstance(outcome, str) else "answer")
            assert {"answer", "PermanentStorageError", "CorruptPageError"} <= outcomes


class TestQueryGuard:
    def test_timeout_with_injected_clock(self):
        ticks = iter(x * 0.25 for x in range(10_000))
        guard = QueryGuard(timeout=1.0, clock=lambda: next(ticks), check_stride=4)
        stored = make_stored()
        with pytest.raises(QueryTimeoutError) as info:
            run_on(stored, mode="row", guard=guard)
        assert info.value.timeout_seconds == 1.0
        assert info.value.elapsed_seconds > 1.0

    def test_cancellation_token(self):
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            run_on(make_stored(), guard=QueryGuard(cancellation=token))

    def test_record_budget(self):
        with pytest.raises(ResourceBudgetExceededError) as info:
            run_on(make_stored(), guard=QueryGuard(max_records=10))
        assert info.value.budget == "records_emitted"
        assert info.value.limit == 10
        assert info.value.used > 10

    @pytest.mark.parametrize("mode", ["batch", "row"])
    def test_page_budget(self, mode):
        guard = QueryGuard(max_pages=2, check_stride=1)
        with pytest.raises(ResourceBudgetExceededError) as info:
            run_on(make_stored(), mode=mode, guard=guard)
        assert info.value.budget == "pages_read"

    #: Pages read when a 2-page budget trips over 4-record pages, as
    #: measured before the page-granular read: a row scan stops on its
    #: third page; a batch of 8 is two pages plus the one holding the
    #: record that closes it (an indexed stream reads a page per record).
    PAGES_AT_TRIP = {
        ("row", "clustered"): 3, ("row", "log"): 3, ("row", "indexed"): 3,
        ("batch", "clustered"): 3, ("batch", "log"): 3, ("batch", "indexed"): 9,
    }

    @pytest.mark.parametrize("mode, organization", sorted(PAGES_AT_TRIP))
    def test_page_budget_trips_within_a_batch(self, mode, organization):
        """Neither a whole-window read nor a read-ahead slips past the guard."""
        stored = make_stored(page_capacity=4, buffer_pages=4, organization=organization)
        guard = QueryGuard(max_pages=2, check_stride=1)
        with pytest.raises(ResourceBudgetExceededError) as info:
            run_on(stored, mode=mode, batch_size=8, guard=guard)
        assert info.value.budget == "pages_read"
        assert 2 < info.value.used <= self.PAGES_AT_TRIP[mode, organization]

    @pytest.mark.parametrize("mode", ["batch", "row"])
    def test_cache_budget(self, mode):
        guard = QueryGuard(max_cache_entries=2, check_stride=1)
        with pytest.raises(ResourceBudgetExceededError) as info:
            run_on(make_stored(), window_query, mode=mode, guard=guard)
        assert info.value.budget == "cache_entries"

    def test_guarded_answer_equals_unguarded(self):
        stored = make_stored()
        loose = QueryGuard(
            timeout=60, max_pages=10_000, max_records=10_000,
            max_cache_entries=1_000,
        )
        assert (
            run_on(stored, window_query, guard=loose).to_pairs()
            == run_on(make_stored(), window_query).to_pairs()
        )

    def test_guard_reports_progress(self):
        guard = QueryGuard(max_records=10)
        with pytest.raises(ResourceBudgetExceededError) as info:
            run_on(make_stored(), guard=guard)
        assert info.value.records_emitted == guard.records_emitted > 0

    def test_row_record_budget_trips_within_one_stride(self):
        plan = optimize(select_query(make_stored())).plan.plan
        guard = QueryGuard(max_records=10, check_stride=4)
        counters = ExecutionCounters()
        with pytest.raises(ResourceBudgetExceededError) as info:
            execute_plan(plan, None, counters, mode="row", guard=guard)
        assert info.value.budget == "records_emitted"
        assert 10 < info.value.used <= 10 + 4
        assert guard.records_emitted == counters.records_emitted == info.value.used

    def test_row_drain_counts_a_failing_stream_exactly(self, monkeypatch):
        """Records a stream emitted since its last charge are still counted,
        and the stream's own error, not a budget verdict, is what escapes."""
        plan = optimize(select_query(make_stored())).plan.plan
        opened = ExecContext.stream

        def broken(stream):
            yield from itertools.islice(stream, 7)
            raise ExecutionError("lane broke")

        def stream(ctx, node, window):
            return broken(opened(ctx, node, window)) if node is plan else opened(ctx, node, window)

        monkeypatch.setattr(ExecContext, "stream", stream)
        guard = QueryGuard(max_records=6, check_stride=5)
        counters = ExecutionCounters()
        with pytest.raises(ExecutionError, match="lane broke"):
            execute_plan(plan, None, counters, mode="row", guard=guard)
        assert guard.records_emitted == counters.records_emitted == 7
        assert guard.verdict is None

    def test_row_loops_checkpoint_every_stride(self):
        """A scan and a source prober each check the guard after every
        ``check_stride`` of their own records (read off an injected clock)."""
        stored = make_stored()
        planned = optimize(base(stored, stored.name).query()).planned
        assert (planned.stream_plan.kind, planned.probe_plan.kind) == ("scan", "probe-source")
        done = 0
        seen: list[int] = []
        guard = QueryGuard(timeout=1e9, check_stride=16, clock=lambda: seen.append(done) or 0.0)
        guard.start()
        for _item in build_stream(planned.stream_plan, SPAN, ExecutionCounters(), guard):
            done += 1
        prober = build_prober(planned.probe_plan, ExecutionCounters(), guard)
        for position in range(100):
            prober.get(position)
            done += 1
        assert done == SPAN.length() + 100
        checks = seen[1:]  # seen[0] is the clock start
        assert len(checks) >= done // 16
        assert max(b - a for a, b in zip([0, *checks], [*checks, done])) <= 16


# The one table of bad knobs (DESIGN §9): the ``ExecOptions``
# constructor refuses every row, and so does every entry point that
# takes execution knobs — with a typed error, before any work.
BAD_MODE_OR_BATCH_SIZE = [
    dict(mode="turbo"),
    dict(batch_size=0),
    dict(batch_size=-3),
    dict(batch_size=True),
    dict(batch_size=2.5),
]
BAD_PARALLEL_KNOBS = [
    dict(parallel="sideways"),
    dict(pool="fiber"),
    dict(pool="process"),  # the process pool is gone
    dict(workers=0),
    dict(workers=-1),
    dict(workers=True),
    dict(workers=1.0),
    # straggler_timeout is gone: every value is an unknown option name.
    dict(straggler_timeout="1"),
    dict(straggler_timeout=True),
    dict(straggler_timeout=-1.0),
    dict(straggler_timeout=0),
    dict(straggler_timeout=0.05),
    dict(turbo=True),  # an unknown option name
]
BAD_GUARD_BUDGETS = [
    dict(timeout=0),
    dict(timeout=-1.0),
    dict(max_pages=0),
    dict(max_records=-5),
    dict(max_cache_entries=True),
    dict(check_stride=0),
]
BAD_KNOBS = (
    [(bad, None) for bad in BAD_MODE_OR_BATCH_SIZE + BAD_PARALLEL_KNOBS]
    + [({}, budgets) for budgets in BAD_GUARD_BUDGETS]
)
# Cost-model constants are checked where they are built; the last row is
# a ``params=`` that is no ``CostParams`` at all.  Built inside the test,
# because the typed error comes out of the constructor.
BAD_COST_PARAMS = {
    "page_cost='x'": lambda: CostParams(page_cost="x"),
    "predicate_cost=nan": lambda: CostParams(predicate_cost=float("nan")),
    "cache_op_cost=inf": lambda: CostParams(cache_op_cost=float("inf")),
    "record_cost=-0.001": lambda: CostParams(record_cost=-0.001),
    "page_cost=True": lambda: CostParams(page_cost=True),
    "page_cost=10**400": lambda: CostParams(page_cost=10**400),
    "params='x'": lambda: "x",
}


def _knob_id(case):
    options, budgets = case
    ((name, value),) = (budgets or options).items()
    return f"{'guard.' if budgets else ''}{name}={value!r}"


@pytest.fixture(scope="module")
def knob_target():
    """A stored, certifiable workload every entry point can be aimed at."""
    stored = make_stored()
    catalog = Catalog()
    catalog.register(stored.name, stored)
    query = window_query(stored)
    plan = optimize(query, catalog=catalog).plan
    return stored, catalog, query, plan, certify(plan, 2)


ENTRY_POINTS = {
    "execute_plan": lambda t, counters, **kw: execute_plan(
        t[3].plan, t[3].output_span, counters, **kw
    ),
    # The optimizer's own wrapper is a plan too (as execute_partitioned takes it).
    "execute_plan(OptimizedPlan)": lambda t, counters, **kw: execute_plan(
        t[3], t[3].output_span, counters, **kw
    ),
    "run_query": lambda t, counters, **kw: run_query(t[2], catalog=t[1], **kw),
    "run_query_detailed": lambda t, counters, **kw: run_query_detailed(
        t[2], catalog=t[1], **kw
    ),
    # ``execute_parallel``: execute_plan with its parallel rung forced, so
    # a bad knob is refused before the plan is certified or cut.
    "execute_parallel": lambda t, counters, **kw: execute_plan(
        t[3], t[3].output_span, counters, **{"parallel": "force", "workers": 2, **kw}
    ),
    "execute_partitioned": lambda t, counters, **kw: execute_partitioned(
        t[3], t[4], counters=counters, **kw
    ),
}
# The entry points that plan, and so take ``params=``.
PLANNING_ENTRY_POINTS = {
    "optimize": lambda t, counters, guard=None, **kw: optimize(
        t[2], catalog=t[1], **kw
    ),
    "run_query": ENTRY_POINTS["run_query"],
    "run_query_detailed": ENTRY_POINTS["run_query_detailed"],
}
CLOSURE = [
    pytest.param(call, case, None, id=f"{entry}-{_knob_id(case)}")
    for entry, call in sorted(ENTRY_POINTS.items())
    for case in BAD_KNOBS
] + [
    pytest.param(call, ({}, None), make_params, id=f"{entry}-params.{name}")
    for entry, call in PLANNING_ENTRY_POINTS.items()
    for name, make_params in BAD_COST_PARAMS.items()
]


class TestBoundaryValidation:
    """Bad knobs fail fast, before the optimizer or executor runs."""

    @pytest.mark.parametrize("kwargs", BAD_MODE_OR_BATCH_SIZE)
    def test_bad_mode_or_batch_size(self, kwargs):
        with pytest.raises(ExecutionError):
            ExecOptions(**kwargs)

    @pytest.mark.parametrize("guard_kwargs", BAD_GUARD_BUDGETS)
    def test_bad_guard_budgets(self, guard_kwargs):
        with pytest.raises(ExecutionError):
            ExecOptions.of({}, QueryGuard(**guard_kwargs))

    @pytest.mark.parametrize("call, case, make_params", CLOSURE)
    def test_typed_error_closure(self, knob_target, call, case, make_params):
        """Every entry point × every bad knob (and every planning entry
        point × every bad cost constant): typed, and before any work."""
        options, budgets = case
        stored = knob_target[0]
        counters = ExecutionCounters()
        guard = QueryGuard(**budgets) if budgets else None
        pages_before = stored.counters.page_reads
        with pytest.raises(OptimizerError if make_params else ExecutionError):
            if make_params:
                options = dict(params=make_params())
            call(knob_target, counters, guard=guard, **options)
        assert stored.counters.page_reads == pages_before
        assert counters.as_dict() == ExecutionCounters().as_dict()

    def test_every_entry_point_accepts_good_knobs(self, knob_target, reference_answers):
        """The closure's other half: nothing is refused that should run."""
        for entry, call in sorted(ENTRY_POINTS.items()):
            output = call(knob_target, ExecutionCounters(), mode="row")
            output = getattr(output, "output", output)
            assert output.to_pairs() == reference_answers["window"], entry

    def test_run_query_rejects_before_any_work(self):
        stored = make_stored()
        catalog = Catalog()
        catalog.register(stored.name, stored)
        query = select_query(stored)
        before = stored.counters.snapshot()
        with pytest.raises(ExecutionError):
            run_query(query, catalog=catalog, batch_size=0)
        # nothing touched the disk: validation beat the optimizer
        assert stored.counters.as_dict() == before.as_dict()

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch):
        # A process pinned to one of two CPUs gets one default lane.  A
        # fresh copy of the module is imported, so ExecOptions stays the
        # one class everything else already holds.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = importlib.util.spec_from_file_location("options_copy", options_module.__file__)
        fresh = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, fresh)
        spec.loader.exec_module(fresh)
        assert fresh.DEFAULT_WORKERS == 1


class TestFallback:
    def _broken_batch(self, monkeypatch, error):
        def explode(*args, **kwargs):
            raise error

        monkeypatch.setattr(ExecContext, "batches", explode)

    def test_falls_back_to_row_oracle(self, monkeypatch, reference_answers):
        self._broken_batch(monkeypatch, ExecutionError("synthetic batch bug"))
        stored = make_stored()
        catalog = Catalog()
        catalog.register(stored.name, stored)
        result = run_query_detailed(
            select_query(stored), catalog=catalog, mode="batch", fallback=True
        )
        assert result.output.to_pairs() == reference_answers["select"]
        assert result.counters.fallbacks_taken == 1
        assert result.counters.batches_built == 0  # attempt was rolled back

    def test_no_fallback_without_opt_in(self, monkeypatch):
        self._broken_batch(monkeypatch, ExecutionError("synthetic batch bug"))
        with pytest.raises(ExecutionError):
            run_on(make_stored(), mode="batch")

    def test_row_mode_has_no_rung_below(self, monkeypatch):
        def explode(*args, **kwargs):
            raise ExecutionError("synthetic row bug")

        monkeypatch.setattr(ExecContext, "stream", explode)
        with pytest.raises(ExecutionError, match="synthetic row bug"):
            run_on(make_stored(), mode="row", fallback=True)

    def test_guard_verdicts_are_never_swallowed(self, monkeypatch):
        self._broken_batch(
            monkeypatch,
            QueryTimeoutError(
                "synthetic timeout", timeout_seconds=1.0, elapsed_seconds=2.0
            ),
        )
        with pytest.raises(QueryTimeoutError):
            run_on(make_stored(), mode="batch", fallback=True)

    def test_guard_still_enforced_on_the_rerun(self, monkeypatch):
        self._broken_batch(monkeypatch, ExecutionError("synthetic batch bug"))
        with pytest.raises(ResourceBudgetExceededError):
            run_on(
                make_stored(),
                mode="batch",
                fallback=True,
                guard=QueryGuard(max_records=10),
            )

    def test_counters_restored_before_rerun(self, monkeypatch):
        snapshots = ExecutionCounters()
        snapshots.probes_issued = 3

        def partial_failure(ctx, plan, window):
            ctx.counters.batches_built += 7
            ctx.counters.operator_records += 100
            raise ExecutionError("mid-flight batch bug")
            yield  # pragma: no cover

        monkeypatch.setattr(ExecContext, "batches", partial_failure)
        stored = make_stored()
        catalog = Catalog()
        catalog.register(stored.name, stored)
        result = run_query_detailed(
            select_query(stored), catalog=catalog, mode="batch", fallback=True
        )
        assert result.counters.fallbacks_taken == 1
        assert result.counters.batches_built == 0
