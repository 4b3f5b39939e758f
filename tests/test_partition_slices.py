"""A partition's leaf is a window, the merged answer a concatenation.

Four halves:

* **the slice contract** — on every kind of leaf (in-memory base,
  columnar answer, the three stored organizations) and for windows
  inside, straddling, equal to and disjoint from the span, a slice
  answers every accessor exactly as the copying slice it replaced
  (kept here as the oracle) and reads Null outside its window;
* **sharing without writing** — slices of an in-memory leaf are views
  of its cached buffers, nothing writes through them, two lanes may
  first-scan a cold leaf at once, and a slice pickles as its window;
* **the merge tripwire** — overlapping, duplicated-boundary and
  internally descending outputs raise the typed error naming the
  pair, whatever mix of columnar and row outputs carries them;
* **nobody boxes** — a parallel batch run over in-memory leaves builds
  no :class:`Record` before the caller drains, and a parallel row run
  none beyond what the same plan builds on one thread.
"""

from __future__ import annotations

import pickle
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.errors import ExecutionError
from repro.execution import (
    execute_plan,
    merge_partitions,
    run_query,
    slice_sequence,
)
from repro.lang import compile_query
from repro.model import NULL, AtomType, BaseSequence, Record, RecordSchema, Span
from repro.model.base import ColumnarAnswer
from repro.model.batch import column_to_list, vector_backend
from repro.optimizer import optimize
from repro.storage import StoredSequence
from repro.workloads import StockSpec, generate_stock
from tests.test_plan_stability import dense_walks

SPAN = Span(0, 199)
WINDOWS = {
    "inside": Span(50, 99),
    "straddling-low": Span(-40, 30),
    "straddling-high": Span(150, 400),
    "equal": SPAN,
    "disjoint": Span(500, 600),
}
LEAF_KINDS = ("base", "columnar", "clustered", "indexed", "log")

#: The three ``partitioned_w2`` shapes of the end-to-end benchmark.
SHAPES = {
    "ssp": "project(select(s, volume > 60000), close, volume)",
    "window": "window(s, avg, close, 16, ma16)",
    "join": "compose(s as a, t as b, a_volume > b_volume)",
}


def copying_slice(sequence, span: Span) -> BaseSequence:
    """``slice_sequence`` as it was while a slice was a copy: the oracle."""
    window = sequence.span.intersect(span)
    pairs = list(sequence.iter_nonnull(window))
    return BaseSequence.unchecked(sequence.schema, pairs, span=window)


def make_leaf(kind: str):
    walk = generate_stock(StockSpec("s", SPAN, 0.8, seed=11))
    if kind == "base":
        return walk
    if kind == "columnar":
        positions, columns = walk.nonnull_columns()
        return ColumnarAnswer(walk.schema, walk.span, positions, columns)
    return StoredSequence.from_sequence(
        "s", walk, organization=kind, page_capacity=16, buffer_pages=4
    )


def columns_as_lists(run) -> tuple[list, list]:
    positions, columns = run
    return list(positions), [column_to_list(column) for column in columns]


def runs_as_lists(sequence, within, width) -> tuple[list, list]:
    """Every ``column_runs`` run end to end, as plain lists."""
    positions: list = []
    columns = [[] for _ in sequence.schema.attributes]
    for run in sequence.column_runs(within, width):
        run_positions, run_columns = columns_as_lists(run)
        positions.extend(run_positions)
        for merged, piece in zip(columns, run_columns):
            merged.extend(piece)
    return positions, columns


class TestSliceContract:
    """Every accessor of a slice sees its window and nothing else."""

    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("kind", LEAF_KINDS)
    def test_equals_the_copying_slice(self, kind, window):
        leaf = make_leaf(kind)
        oracle = copying_slice(make_leaf(kind), WINDOWS[window])
        sliced = slice_sequence(leaf, WINDOWS[window])
        assert sliced.schema == oracle.schema
        assert sliced.span == oracle.span == SPAN.intersect(WINDOWS[window])
        assert list(sliced.iter_nonnull(None)) == list(oracle.iter_nonnull())
        assert sliced.count_nonnull(None) == oracle.count_nonnull() == len(sliced)
        assert columns_as_lists(sliced.nonnull_columns(None)) == columns_as_lists(
            oracle.nonnull_columns()
        )
        for width in (7, 1024):
            assert runs_as_lists(sliced, None, width) == runs_as_lists(oracle, None, width)
        assert sliced == oracle

    @pytest.mark.parametrize("kind", LEAF_KINDS)
    def test_nothing_outside_the_window(self, kind):
        leaf = make_leaf(kind)
        window = WINDOWS["inside"]
        sliced = slice_sequence(leaf, window)
        for position in range(SPAN.start - 2, SPAN.end + 3):
            inside = position in window
            assert sliced.at(position) == (leaf.at(position) if inside else NULL)
        # A wider request than the window still answers the window only.
        assert list(sliced.iter_nonnull(SPAN)) == list(leaf.iter_nonnull(window))
        assert sliced.count_nonnull(SPAN) == leaf.count_nonnull(window)
        assert columns_as_lists(sliced.nonnull_columns(SPAN))[0] == [
            position for position, _record in leaf.iter_nonnull(window)
        ]
        assert runs_as_lists(sliced, Span(60, 400), 16) == runs_as_lists(
            copying_slice(leaf, window), Span(60, 400), 16
        )

    def test_in_memory_slice_shares_the_parents_records_and_buffers(self):
        walk = make_leaf("base")
        sliced = slice_sequence(walk, WINDOWS["inside"])
        for position, record in sliced.iter_nonnull():
            assert record is walk.at(position)
        np = vector_backend()
        if np is not None:
            _positions, parent_columns = walk.nonnull_columns()
            for mine, theirs in zip(sliced.nonnull_columns()[1], parent_columns):
                assert np.shares_memory(mine, theirs)

    def test_restricted_is_the_slice(self):
        walk = make_leaf("base")
        assert walk.restricted(Span(150, 400)) == copying_slice(walk, Span(150, 400))
        assert walk.restricted(Span(150, 400)).span == Span(150, 199)


def buffer_bytes(sequence) -> list:
    np = vector_backend()
    return [
        column.tobytes() if np is not None and isinstance(column, np.ndarray) else list(column)
        for column in sequence.nonnull_columns()[1]
    ]


class TestSharing:
    """Slices share the parent's buffers; nothing writes through them."""

    def test_parallel_runs_leave_parent_buffers_untouched(self):
        env = dense_walks()
        before = {name: buffer_bytes(walk) for name, walk in env.items()}
        for text in SHAPES.values():
            query = compile_query(text, env)
            for mode in ("batch", "row"):
                expected = run_query(query, mode=mode, parallel="off").to_pairs()
                answer = run_query(query, mode=mode, parallel="force", workers=2)
                assert answer.to_pairs() == expected
        assert {name: buffer_bytes(walk) for name, walk in env.items()} == before

    def test_lanes_first_scanning_a_cold_leaf_concurrently(self):
        lanes = 4
        expected = dense_walks()["s"]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _attempt in range(5):
                cold = dense_walks()["s"]  # no column cache yet
                bounds = [Span(300 * lane, 300 * lane + 299) for lane in range(lanes)]
                slices = [slice_sequence(cold, bound) for bound in bounds]
                barrier = threading.Barrier(lanes)
                results: dict = {}

                def scan(lane: int) -> None:
                    barrier.wait(timeout=10)
                    results[lane] = columns_as_lists(slices[lane].nonnull_columns())

                threads = [threading.Thread(target=scan, args=(n,)) for n in range(lanes)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                for lane, bound in enumerate(bounds):
                    assert results[lane] == columns_as_lists(expected.nonnull_columns(bound))
        finally:
            sys.setswitchinterval(switch)

    def test_cold_leaves_under_the_supervisor(self):
        env = dense_walks()  # cold: the lanes' first scans build the caches
        query = compile_query(SHAPES["join"], env)
        answer = run_query(query, mode="batch", parallel="force", workers=2)
        assert answer.to_pairs() == run_query(query, mode="row", parallel="off").to_pairs()

    @pytest.mark.parametrize("warm", ["cold", "columns", "records"])
    def test_a_slice_pickles_as_its_window(self, warm):
        parent = dense_walks()["s"]
        tenth = slice_sequence(parent, Span(600, 719))
        if warm == "columns":
            tenth.nonnull_columns()
        elif warm == "records":
            tenth.at(600)
        payload = pickle.dumps(tenth)
        assert len(payload) < len(pickle.dumps(parent)) / 5
        shipped = pickle.loads(payload)
        assert shipped.span == tenth.span and shipped.schema == tenth.schema
        assert list(shipped.iter_nonnull()) == list(tenth.iter_nonnull())
        assert columns_as_lists(shipped.nonnull_columns()) == columns_as_lists(
            tenth.nonnull_columns()
        )
        for position in range(590, 730):
            assert shipped.at(position) == tenth.at(position)


# -- merge -----------------------------------------------------------------------


def output(form: str, positions: list[int]) -> BaseSequence:
    """One lane's answer over ``positions``, columnar or row."""
    values = [float(position) for position in positions]
    schema = RecordSchema.of(close=AtomType.FLOAT)
    span = Span(min(positions), max(positions))
    if form == "columnar":
        return ColumnarAnswer(schema, span, list(positions), [values])
    pairs = [(p, Record(schema, (v,))) for p, v in zip(positions, values)]
    return BaseSequence.unchecked(schema, pairs, span=span)


def certificate_of(parts: int):
    """All ``merge_partitions`` reads of a certificate."""
    return SimpleNamespace(partitions=(None,) * parts, root_span=Span(0, 99))


FORMS = {
    "columnar": ("columnar", "columnar"),
    "row": ("row", "row"),
    "mixed": ("columnar", "row"),
}


class TestMergeTripwire:
    """The whole merged position list is checked, whatever carries it."""

    @pytest.mark.parametrize("forms", sorted(FORMS))
    @pytest.mark.parametrize(
        "first, second, pair",
        [
            ([1, 5, 9], [7, 12], "7 after 9"),  # overlapping
            ([1, 5, 9], [9, 12], "9 after 9"),  # duplicated boundary
            ([1, 5, 9], [12, 11, 14], "11 after 12"),  # descending inside a lane
            ([1, 9, 5], [12, 14], "5 after 9"),
        ],
    )
    def test_disorder_names_the_pair(self, forms, first, second, pair):
        left, right = FORMS[forms]
        outputs = [output(left, first), output(right, second)]
        with pytest.raises(ExecutionError, match=f"not position-ordered: {pair}"):
            merge_partitions(outputs, certificate_of(2))

    @pytest.mark.parametrize("forms", sorted(FORMS))
    def test_ordered_outputs_concatenate(self, forms):
        left, right = FORMS[forms]
        outputs = [output(left, [1, 5, 9]), output(right, [10, 14])]
        merged = merge_partitions(outputs, certificate_of(2))
        assert merged.span == Span(0, 99)
        assert isinstance(merged, ColumnarAnswer) == (forms == "columnar")
        assert merged.to_pairs() == outputs[0].to_pairs() + outputs[1].to_pairs()
        assert merged.at(9) == outputs[0].at(9) and merged.at(10) == outputs[1].at(10)
        assert merged.at(11) is NULL

    def test_count_and_zero_outputs_keep_their_errors(self):
        with pytest.raises(ExecutionError, match="expected 2 partition outputs, got 1"):
            merge_partitions([output("row", [1])], certificate_of(2))
        with pytest.raises(ExecutionError, match="cannot merge zero partition outputs"):
            merge_partitions([], certificate_of(0))


# -- nobody boxes ------------------------------------------------------------------


@pytest.fixture
def records_built(monkeypatch) -> list:
    """The thread of every :class:`Record` construction while the test runs."""
    built: list = []
    checked, unchecked = Record.__init__, Record.unchecked.__func__

    def counting_init(self, *args):
        built.append(threading.current_thread().name)
        checked(self, *args)

    def counting_unchecked(cls, *args):
        built.append(threading.current_thread().name)
        return unchecked(cls, *args)

    monkeypatch.setattr(Record, "__init__", counting_init)
    monkeypatch.setattr(Record, "unchecked", classmethod(counting_unchecked))
    return built


class TestNobodyBoxes:
    """Prepare and merge build no record; only whoever drains does."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_batch_lanes_box_nothing_before_the_drain(self, shape, records_built):
        env = dense_walks()
        plan = optimize(compile_query(SHAPES[shape], env)).plan
        del records_built[:]  # the walks' own records
        answer = execute_plan(plan, mode="batch", parallel="auto", workers=2)
        assert records_built == []
        again = execute_plan(plan, mode="batch", parallel="auto", workers=2)
        assert answer == again  # columnar on both sides: compared as columns
        assert records_built == []
        assert len(answer.to_pairs()) == len(records_built) != 0

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_row_lanes_box_only_their_own_records(self, shape, records_built):
        env = dense_walks()
        plan = optimize(compile_query(SHAPES[shape], env)).plan
        del records_built[:]  # the walks' own records
        answer = execute_plan(plan, mode="row", parallel="auto", workers=2)
        # Prepare and merge run on the supervising thread and build
        # nothing; what the lanes build is their operators' own.
        assert records_built != []
        assert all(name.startswith("repro-partition") for name in records_built)
        if shape != "join":  # its renames box both inputs, on any thread
            assert len(records_built) == len(answer)
        assert answer == execute_plan(plan, mode="row", parallel="off")
