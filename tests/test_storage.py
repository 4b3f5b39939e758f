"""Tests for the paged storage substrate."""

import pytest

from repro.errors import StorageError
from repro.model import NULL, AtomType, Record, RecordSchema, Span
from repro.storage import (
    ORGANIZATION_KINDS,
    BufferPool,
    Page,
    SimulatedDisk,
    StorageCounters,
    StoredSequence,
    make_organization,
)

SCHEMA = RecordSchema.of(v=AtomType.INT)


def items(positions):
    return [(p, Record(SCHEMA, (p * 10,))) for p in positions]


class TestPage:
    def test_append_and_get(self):
        page = Page(0, 2)
        assert page.append((1, "a")) == 0
        assert page.get(0) == (1, "a")
        assert page.get(5) is None

    def test_full(self):
        page = Page(0, 1)
        page.append((1, "a"))
        assert page.is_full
        with pytest.raises(StorageError):
            page.append((2, "b"))

    def test_bad_capacity(self):
        with pytest.raises(StorageError):
            Page(0, 0)


class TestDisk:
    def test_read_counts(self):
        disk = SimulatedDisk(page_capacity=4)
        page = disk.allocate()
        before = disk.counters.page_reads
        disk.read(page.page_id)
        assert disk.counters.page_reads == before + 1

    def test_allocate_counts_write(self):
        disk = SimulatedDisk()
        disk.allocate()
        assert disk.counters.page_writes == 1

    def test_missing_page(self):
        disk = SimulatedDisk()
        with pytest.raises(StorageError):
            disk.read(99)

    def test_index_page_counted(self):
        disk = SimulatedDisk()
        page = disk.allocate(kind=Page.INDEX)
        disk.read(page.page_id)
        assert disk.counters.index_node_reads == 1

    def test_peek_does_not_count(self):
        disk = SimulatedDisk()
        page = disk.allocate()
        disk.peek(page.page_id)
        assert disk.counters.page_reads == 0


class TestBufferPool:
    def test_hit_avoids_disk_read(self):
        disk = SimulatedDisk()
        page = disk.allocate()
        pool = BufferPool(disk, capacity=2)
        pool.get(page.page_id)
        reads = disk.counters.page_reads
        pool.get(page.page_id)
        assert disk.counters.page_reads == reads
        assert disk.counters.buffer_hits == 1

    def test_lru_eviction(self):
        disk = SimulatedDisk()
        pages = [disk.allocate() for _ in range(3)]
        pool = BufferPool(disk, capacity=2)
        pool.get(pages[0].page_id)
        pool.get(pages[1].page_id)
        pool.get(pages[2].page_id)  # evicts page 0
        reads = disk.counters.page_reads
        pool.get(pages[0].page_id)  # miss again
        assert disk.counters.page_reads == reads + 1

    def test_flush(self):
        disk = SimulatedDisk()
        page = disk.allocate()
        pool = BufferPool(disk, capacity=2)
        pool.get(page.page_id)
        pool.flush()
        assert pool.resident == 0

    def test_bad_capacity(self):
        with pytest.raises(StorageError):
            BufferPool(SimulatedDisk(), capacity=0)


class TestCounters:
    def test_reset_and_arith(self):
        counters = StorageCounters(page_reads=3, probes=2)
        snap = counters.snapshot()
        counters.reset()
        assert counters.page_reads == 0
        assert (snap - StorageCounters(page_reads=1)).page_reads == 2
        assert (snap + snap).probes == 4
        assert snap.total_page_accesses() == 3
        assert snap.as_dict()["probes"] == 2


@pytest.mark.parametrize("kind", ["clustered", "indexed", "log"])
class TestOrganizations:
    def test_scan_in_position_order(self, kind):
        stored = StoredSequence.create(
            "s", SCHEMA, items(range(0, 100, 3)), organization=kind,
            page_capacity=8, buffer_pages=4,
        )
        positions = [p for p, _ in stored.iter_nonnull()]
        assert positions == list(range(0, 100, 3))

    def test_scan_window(self, kind):
        stored = StoredSequence.create(
            "s", SCHEMA, items(range(0, 100, 3)), organization=kind,
            page_capacity=8, buffer_pages=4,
        )
        positions = [p for p, _ in stored.iter_nonnull(Span(10, 30))]
        assert positions == [12, 15, 18, 21, 24, 27, 30]

    def test_probe_hit_miss(self, kind):
        stored = StoredSequence.create(
            "s", SCHEMA, items(range(0, 100, 3)), organization=kind,
            page_capacity=8, buffer_pages=4,
        )
        assert stored.at(21).get("v") == 210
        assert stored.at(22).is_null
        assert stored.at(-5).is_null  # outside span: no work
        assert stored.at(1000).is_null

    def test_counts(self, kind):
        stored = StoredSequence.create(
            "s", SCHEMA, items(range(10)), organization=kind,
            page_capacity=4, buffer_pages=4,
        )
        assert stored.record_count() == 10
        assert stored.density() == 1.0


class TestProfiles:
    def make(self, kind, n=256, page_capacity=8):
        return StoredSequence.create(
            "s", SCHEMA, items(range(n)), organization=kind,
            page_capacity=page_capacity, buffer_pages=4, index_fanout=8,
        )

    def test_clustered_cheap_both_ways(self):
        profile = self.make("clustered").access_profile()
        assert profile.probe_unit == 1.0
        assert profile.stream_total == 32  # 256 records / 8 per page

    def test_indexed_stream_expensive(self):
        profile = self.make("indexed").access_profile()
        assert profile.stream_total > 256  # about one page miss per record
        assert 1.0 < profile.probe_unit <= 5.0

    def test_log_probe_expensive(self):
        profile = self.make("log").access_profile()
        assert profile.stream_total == 32
        assert profile.probe_unit == 16.0  # half the pages on average

    def test_unknown_organization(self):
        from repro.storage import BufferPool, SimulatedDisk

        disk = SimulatedDisk()
        with pytest.raises(StorageError, match="unknown organization"):
            make_organization("btree", disk, BufferPool(disk))


class TestStoredSequence:
    def test_duplicate_positions_rejected(self):
        with pytest.raises(StorageError, match="duplicate"):
            StoredSequence.create("s", SCHEMA, items([1, 1]))

    def test_span_violation_rejected(self):
        with pytest.raises(StorageError, match="outside"):
            StoredSequence.create("s", SCHEMA, items([9]), span=Span(0, 5))

    # What BaseSequence refuses, create refuses too — typed, and before a
    # page is allocated (the parent stored position 1.5 and answered it).
    BAD_LOADS = {
        "float-position": dict(items=[(1.5, Record(SCHEMA, (1,)))]),
        "bool-position": dict(items=[(True, Record(SCHEMA, (1,)))]),
        "str-position": dict(items=[("3", Record(SCHEMA, (1,)))] + items([4])),
        "not-a-record": dict(items=[(1, (10,))]),
        "other-schema": dict(items=[(1, Record(RecordSchema.of(w=AtomType.INT), (1,)))]),
        "str-capacity": dict(items=items([1]), page_capacity="4"),
        "float-capacity": dict(items=items([1]), page_capacity=2.5),
        "zero-capacity": dict(items=items([1]), page_capacity=0),
        "float-buffer": dict(items=items([1]), buffer_pages=1.5),
        "bool-buffer": dict(items=items([1]), buffer_pages=True),
        "zero-buffer": dict(items=items([1]), buffer_pages=0),
        "float-fanout": dict(items=items([1]), index_fanout=2.5),
        "small-fanout": dict(items=items([1]), index_fanout=1),
    }

    @pytest.mark.parametrize("organization", ORGANIZATION_KINDS)
    @pytest.mark.parametrize("case", sorted(BAD_LOADS))
    def test_bad_load_is_a_typed_error(self, case, organization, monkeypatch):
        allocated = []
        monkeypatch.setattr(
            SimulatedDisk, "allocate", lambda self, *a, **k: allocated.append(1)
        )
        kwargs = dict(self.BAD_LOADS[case], span=Span(0, 10))
        with pytest.raises(StorageError):
            StoredSequence.create("b", SCHEMA, kwargs.pop("items"),
                                  organization=organization, **kwargs)
        assert not allocated

    def test_explicit_null_is_an_empty_position(self):
        loaded = items([1]) + [(2, NULL)] + items([3])
        stored = StoredSequence.create("b", SCHEMA, loaded, span=Span(0, 10))
        assert stored.to_pairs() == items([1, 3])
        assert stored.at(2) is NULL and stored.record_count() == 2

    def test_counters_track_access(self):
        stored = StoredSequence.create(
            "s", SCHEMA, items(range(64)), page_capacity=8, buffer_pages=2
        )
        stored.reset_counters()
        stored.flush_buffer()
        list(stored.iter_nonnull())
        assert stored.counters.records_streamed == 64
        assert stored.counters.page_reads == 8
        stored.at(5)
        assert stored.counters.probes == 1

    def test_from_sequence_round_trip(self, small_prices):
        stored = StoredSequence.from_sequence("p", small_prices)
        assert stored.to_pairs() == small_prices.to_pairs()
        assert stored.span == small_prices.span

    def test_buffer_makes_rescans_cheap(self):
        stored = StoredSequence.create(
            "s", SCHEMA, items(range(32)), page_capacity=8, buffer_pages=8
        )
        list(stored.iter_nonnull())
        cold = stored.counters.page_reads
        list(stored.iter_nonnull())
        assert stored.counters.page_reads == cold  # all hits
        assert stored.counters.buffer_hits >= 4
