"""Vector kernels: three-way equivalence and fallback observability.

The batch executor now runs whole-column kernels over typed buffers.
This suite pins the contract that makes that safe to ship:

* **Three-way equivalence** (hypothesis): for random data and every
  kernel shape — select, computed comparisons, window aggregates,
  lockstep join, value offsets, cumulative aggregates — the row-mode
  oracle, the vector-backed batch path
  (numpy buffers + kernels), and the pure-Python batch path (the
  ``_backend = None`` forced fallback: list/array buffers, fused
  closures) produce *identical* answers, across dtypes (INT, FLOAT,
  BOOL, STR), null densities (all-valid, all-null, mixed), and batch
  sizes 1 / 7 / 1024.
* **Exactness refusals**: columns whose values a typed buffer cannot
  represent exactly (ints beyond float64's 2**53 in FLOAT columns,
  ints beyond int64) stay list-backed, and kernels decline batches
  whose magnitudes trip the runtime guards — equivalence holds there
  too because the scalar path recomputes.
* **Observability**: every degradation to the non-vector path is
  visible via ``ExecutionCounters.kernels_fallback`` and the
  ``kernel:fallback`` trace event, mirroring ``exprs_interpreted``.
"""

from __future__ import annotations

from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

import repro.model.batch as batch_module
from repro.algebra import base, col, lit
from repro.algebra.expressions import And, Not, Or, compile_filter
from repro.algebra.kernels import cumulative_scan, window_scan
from repro.analysis.effects import analyze_expr
from repro.execution import ExecutionCounters, run_query, run_query_detailed
from repro.execution.context import ExecContext
from repro.execution.sliding import CumulativeAggregator, SlidingAggregator, make_sliding
from repro.model import AtomType, BaseSequence, Record, RecordSchema, Span
from repro.model.batch import typed_column, vector_backend
from repro.model.bitmask import Bitmask
from repro.obs.tracer import Tracer

BATCH_SIZES = (1, 7, 1024)

HAS_NUMPY = vector_backend() is not None

SCHEMA = RecordSchema.of(
    f=AtomType.FLOAT, i=AtomType.INT, b=AtomType.BOOL, s=AtomType.STR
)


@contextmanager
def forced_backend(backend):
    """Temporarily pin the vector-backend probe (None = pure Python)."""
    saved = batch_module._backend
    batch_module._backend = backend
    try:
        yield
    finally:
        batch_module._backend = saved


# -- data generation ----------------------------------------------------------

_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_ints = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    # Magnitudes past the int-arith runtime guard (2**31) and past the
    # float64-exact range (2**53): kernels must decline, not round.
    st.integers(min_value=2**53, max_value=2**55),
)
_strings = st.sampled_from(["", "a", "b", "ab"])


@st.composite
def dataset(draw, start: int = 0):
    """(span, rows) with an all-valid / all-null / mixed density regime."""
    length = draw(st.integers(min_value=1, max_value=24))
    span = Span(start, start + length - 1)
    regime = draw(st.sampled_from(["all-valid", "all-null", "mixed"]))
    if regime == "all-valid":
        filled = list(range(start, start + length))
    elif regime == "all-null":
        filled = []
    else:
        filled = sorted(
            draw(
                st.sets(
                    st.integers(min_value=start, max_value=start + length - 1),
                    max_size=length,
                )
            )
        )
    rows = {}
    for position in filled:
        rows[position] = (
            draw(_floats),
            draw(_ints),
            draw(st.booleans()),
            draw(_strings),
        )
    return span, rows


def build_sequence(span: Span, rows: dict) -> BaseSequence:
    """A fresh sequence (fresh column cache) from drawn data."""
    items = [(p, Record(SCHEMA, values)) for p, values in sorted(rows.items())]
    return BaseSequence(SCHEMA, items, span=span)


# -- the query shapes under test ----------------------------------------------


def _predicates():
    return [
        col("i") > lit(0),
        col("i") * lit(3) - col("i") >= lit(10),
        col("f") / lit(2.0) <= col("f"),
        And(col("b").eq(lit(True)), Not(col("i").eq(lit(7)))),
        Or(col("f") > lit(0.5), col("i") < lit(-5)),
        col("s").eq(lit("a")),  # STR: never vectorized, scalar path
        col("i") > col("f"),  # mixed compare: float64-exactness guard
    ]


def _answer(query, mode: str, batch_size: int):
    return run_query(query, mode=mode, batch_size=batch_size).to_pairs()


def _three_way(make_query, batch_size: int):
    """Assert row ≡ vector-batch ≡ python-batch for one query shape."""
    expected = _answer(make_query(), "row", batch_size)
    if HAS_NUMPY:
        assert _answer(make_query(), "batch", batch_size) == expected
    with forced_backend(None):
        assert _answer(make_query(), "batch", batch_size) == expected


# -- equivalence properties ---------------------------------------------------


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=dataset(), batch_size=st.sampled_from(BATCH_SIZES))
def test_select_project_equivalence(data, batch_size):
    span, rows = data
    for index, predicate in enumerate(_predicates()):

        def make_query(_predicate=predicate):
            sequence = build_sequence(span, rows)
            return base(sequence, "s0").select(_predicate).project("f", "i").query()

        _three_way(make_query, batch_size)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=dataset(),
    batch_size=st.sampled_from(BATCH_SIZES),
    func=st.sampled_from(["sum", "avg", "min", "max", "count"]),
    width=st.integers(min_value=1, max_value=6),
    attr=st.sampled_from(["f", "i"]),
)
def test_window_aggregate_equivalence(data, batch_size, func, width, attr):
    span, rows = data

    def make_query():
        sequence = build_sequence(span, rows)
        return base(sequence, "s0").window(func, attr, width, "out").query()

    _three_way(make_query, batch_size)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=dataset(),
    batch_size=st.sampled_from(BATCH_SIZES),
    func=st.sampled_from(["sum", "avg", "count"]),
    width=st.sampled_from([1, 2, 5, 16]),
    attr=st.sampled_from(["f", "i"]),
)
# 1.0 vanishes into 1e16 when added first, and survives when added last.
@example(
    data=(Span(0, 3), {0: (1.0, 1, True, "a"), 1: (1e16, 2, False, "b"), 2: (-1e16, 3, True, "")}),
    batch_size=7,
    func="sum",
    width=5,
    attr="f",
)
def test_window_fallback_is_the_sliding_loop(data, batch_size, func, width, attr):
    """Without numpy a sum/avg/count tile runs the list loop: its answers
    are the row executor's and the generic sliding loop's bit for bit,
    so are ``cache_ops`` and the occupancy peak, and the refusal is
    observed once per operator."""
    span, rows = data

    def make_query():
        sequence = build_sequence(span, rows)
        return base(sequence, "s0").window(func, attr, width, "out").query()

    def typed(pairs):
        return [(p, [(type(v), repr(v)) for v in values]) for p, values in pairs]

    row = run_query_detailed(make_query(), mode="row")
    with forced_backend(None):
        batch = run_query_detailed(make_query(), mode="batch", batch_size=batch_size)
    answer = typed((p, r.values) for p, r in row.output.iter_nonnull())
    assert typed((p, r.values) for p, r in batch.output.iter_nonnull()) == answer
    for key in ("cache_ops", "max_cache_occupancy"):
        assert getattr(batch.counters, key) == getattr(row.counters, key), key
    if row.optimization.plan.plan.strategy == "naive":
        return  # a tiny input probes instead: no cache, no kernel
    index = SCHEMA.index_of(attr)
    items = iter([(p, values[index]) for p, values in sorted(rows.items())])
    counters = ExecutionCounters()
    looped = SlidingAggregator.slide(
        make_sliding(func), width, items, row.output.span.positions(), counters
    )
    as_float = func == "avg" or (func == "sum" and attr == "f")
    assert answer == typed((p, (float(v) if as_float else v,)) for p, v in looped)
    for key in ("cache_ops", "max_cache_occupancy"):
        assert getattr(batch.counters, key) == getattr(counters, key), key
    assert batch.counters.kernels_fallback == 1


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    left=dataset(),
    right=dataset(start=-3),
    batch_size=st.sampled_from(BATCH_SIZES),
)
def test_lockstep_join_equivalence(left, right, batch_size):
    lspan, lrows = left
    rspan, rrows = right

    def make_query():
        s0 = build_sequence(lspan, lrows)
        s1 = build_sequence(rspan, rrows)
        return (
            base(s0, "s0")
            .compose(
                base(s1, "s1"),
                predicate=col("l_f") > col("r_f"),
                prefixes=("l", "r"),
            )
            .query()
        )

    _three_way(make_query, batch_size)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=dataset(), batch_size=st.sampled_from(BATCH_SIZES))
def test_cumulative_and_global_equivalence(data, batch_size):
    span, rows = data

    def make_cumulative():
        return base(build_sequence(span, rows), "s0").cumulative("sum", "f", "c").query()

    def make_global():
        return base(build_sequence(span, rows), "s0").global_agg("max", "i", "m").query()

    _three_way(make_cumulative, batch_size)
    _three_way(make_global, batch_size)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=dataset(),
    batch_size=st.sampled_from(BATCH_SIZES),
    offset=st.integers(min_value=-9, max_value=9).filter(lambda k: k != 0),
)
def test_value_offset_equivalence(data, batch_size, offset):
    span, rows = data

    def make_query():
        return base(build_sequence(span, rows), "s0").value_offset(offset).query()

    _three_way(make_query, batch_size)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=dataset(),
    batch_size=st.sampled_from(BATCH_SIZES),
    func=st.sampled_from(["sum", "avg", "min", "max", "count"]),
    attr=st.sampled_from(["f", "i"]),
)
def test_cumulative_every_function_equivalence(data, batch_size, func, attr):
    span, rows = data

    def make_query():
        return base(build_sequence(span, rows), "s0").cumulative(func, attr, "c").query()

    _three_way(make_query, batch_size)


# -- the cumulative prefix scan, tile by tile ---------------------------------

_scan_floats = st.one_of(
    st.floats(allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), 1e308, -1e308]),
)
_scan_ints = st.one_of(
    st.integers(min_value=-(2**20), max_value=2**20),
    st.integers(min_value=2**59, max_value=2**62),
)


@pytest.mark.skipif(not HAS_NUMPY, reason="requires numpy")
@settings(max_examples=150, deadline=None)
@given(
    func=st.sampled_from(["sum", "avg", "min", "max", "count"]),
    cells=st.one_of(
        st.lists(st.tuples(st.booleans(), _scan_floats), max_size=30),
        st.lists(st.tuples(st.booleans(), _scan_ints), max_size=30),
    ),
    tile=st.integers(min_value=1, max_value=8),
)
def test_cumulative_scan_matches_the_row_aggregator(func, cells, tile):
    """Exact or refused: a scanned tile equals the per-value loop, bit for bit,
    and a refused tile leaves the carried state to the loop untouched."""
    np = vector_backend()
    is_float = not cells or isinstance(cells[0][1], float)
    oracle = CumulativeAggregator(func)
    carried = CumulativeAggregator(func)
    for lo in range(0, len(cells), tile):
        chunk = cells[lo : lo + tile]
        flags = np.array([present for present, _ in chunk], dtype=bool)
        column = np.array(
            [value for _, value in chunk], dtype="float64" if is_float else "int64"
        )
        expected = []
        for present, value in chunk:
            if present:
                oracle.add(value)
            expected.append(oracle.result() if oracle.count else None)
        scanned = cumulative_scan(
            np, func, column, flags, carried.count, carried.state, False
        )
        if scanned is None:
            for present, value in chunk:
                if present:
                    carried.add(value)
            continue
        out, counts, state = scanned
        carried.advance(int(counts[-1]), state)
        got = [
            value if count else None for value, count in zip(out.tolist(), counts.tolist())
        ]
        assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in expected]
    assert carried.count == oracle.count
    assert repr(carried.state) == repr(oracle.state)


@pytest.mark.skipif(not HAS_NUMPY, reason="requires numpy")
class TestCumulativeScanRefusals:
    def _scan(self, func, values, dtype, count=0, state=None):
        np = vector_backend()
        column = np.array(values, dtype=dtype)
        return cumulative_scan(
            np, func, column, np.ones(len(values), dtype=bool), count, state, False
        )

    def test_int_magnitude_bound(self):
        assert self._scan("sum", [2**60, 2**60], "int64") is None
        assert self._scan("sum", [2**59, 2**59], "int64") is not None
        assert self._scan("avg", [2**51, 2**51], "int64") is None
        # The bound is on the running sum: the carried state counts.
        assert self._scan("sum", [1], "int64", count=3, state=2**61) is None

    def test_nan_and_negative_zero_extrema(self):
        assert self._scan("min", [1.0, float("nan")], "float64") is None
        assert self._scan("max", [0.0, -0.0], "float64") is None
        assert self._scan("min", [1.0], "float64", count=1, state=-0.0) is None
        out, _counts, state = self._scan("min", [0.0, float("-inf"), 2.0], "float64")
        assert out.tolist() == [0.0, float("-inf"), float("-inf")]
        assert state == float("-inf")

    def test_negative_zero_sum_follows_the_int_zero_start(self):
        out, _counts, state = self._scan("sum", [-0.0, -0.0], "float64")
        assert [repr(v) for v in out.tolist()] == ["0.0", "0.0"]
        assert repr(state) == "0.0"

    def test_untyped_or_mismatched_state(self):
        np = vector_backend()
        flags = np.ones(2, dtype=bool)
        assert cumulative_scan(np, "sum", [1, 2], flags, 0, 0, False) is None
        assert cumulative_scan(np, "count", ["a", "b"], flags, 0, None, False) is not None
        # An int state (from a refused list tile) is not rounded into a float scan.
        assert self._scan("sum", [1.0], "float64", count=1, state=2**60) is None

    def test_holes_forward_fill(self):
        np = vector_backend()
        column = np.array([5, 0, 7, 0], dtype="int64")
        flags = np.array([True, False, True, False])
        out, counts, state = cumulative_scan(np, "sum", column, flags, 0, 0, False)
        assert out.tolist() == [5, 5, 12, 12]
        assert counts.tolist() == [1, 1, 2, 2]
        assert state == 12


# -- the sliding-window scan, tile by tile -------------------------------------


@pytest.mark.skipif(not HAS_NUMPY, reason="requires numpy")
@settings(max_examples=150, deadline=None)
@given(
    func=st.sampled_from(["sum", "avg", "count"]),
    cells=st.one_of(
        st.lists(st.tuples(st.booleans(), _scan_floats), max_size=30),
        st.lists(st.tuples(st.booleans(), _scan_ints), max_size=30),
    ),
    tile=st.integers(min_value=1, max_value=8),
    width=st.integers(min_value=1, max_value=12),
)
def test_window_scan_matches_the_sliding_loop(func, cells, tile, width):
    """Exact or refused: a scanned tile over carry + tile equals Cache-Strategy-A
    run over the whole input, bit for bit, and its counts are the cache's size."""
    np = vector_backend()
    is_float = not cells or isinstance(cells[0][1], float)
    dtype = "float64" if is_float else "int64"
    counters = ExecutionCounters()
    items = iter([(p, value) for p, (present, value) in enumerate(cells) if present])
    expected = dict(make_sliding(func).slide(width, items, range(len(cells)), counters))
    column = np.array([value for _, value in cells], dtype=dtype)
    flags = np.array([present for present, _ in cells], dtype=bool)
    peak = 0
    for lo in range(0, len(cells), tile):
        hi = min(lo + tile, len(cells))
        carried = max(0, lo - width)  # the scope-sized carry: the last `width` cells
        scanned = window_scan(
            np, func, column[carried:hi], flags[carried:hi], hi - lo, width, False
        )
        if scanned is None:
            continue
        out, counts = scanned
        peak = max(peak, int(counts.max()))
        got = {
            lo + index: value
            for index, (value, count) in enumerate(zip(out.tolist(), counts.tolist()))
            if count
        }
        want = {p: v for p, v in expected.items() if lo <= p < hi}
        assert {p: (type(v), repr(v)) for p, v in got.items()} == {
            p: (type(v), repr(v)) for p, v in want.items()
        }
    assert peak <= min(width, counters.max_cache_occupancy)


@pytest.mark.skipif(not HAS_NUMPY, reason="requires numpy")
class TestWindowScanRefusals:
    def _scan(self, func, values, dtype, width=2):
        np = vector_backend()
        column = np.array(values, dtype=dtype)
        flags = np.ones(len(values), dtype=bool)
        return window_scan(np, func, column, flags, len(values), width, False)

    def test_int_magnitude_bound(self):
        assert self._scan("sum", [2**60, 2**60], "int64") is None
        assert self._scan("sum", [2**59, 2**59], "int64") is not None
        assert self._scan("avg", [2**51, 2**51], "int64") is None

    def test_wide_float_windows_and_untyped_columns(self):
        assert self._scan("sum", [1.0, 2.0], "float64", width=4097) is None
        assert self._scan("sum", [1, 2], "int64", width=4097) is not None
        np = vector_backend()
        flags = np.ones(2, dtype=bool)
        assert window_scan(np, "sum", [1, 2], flags, 2, 2, False) is None
        out, counts = window_scan(np, "count", ["a", "b"], flags, 2, 2, False)
        assert out.tolist() == counts.tolist() == [1, 2]

    def test_negative_zero_sum_follows_the_int_zero_start(self):
        out, _counts = self._scan("sum", [-0.0, -0.0, 1.5], "float64")
        assert [repr(v) for v in out.tolist()] == ["0.0", "0.0", "1.5"]

    def test_the_carry_is_input_only(self):
        # Four carried cells, two outputs: each aggregates the 3 cells ending at it.
        np = vector_backend()
        column = np.array([1, 2, 0, 4, 5, 6], dtype="int64")
        flags = np.array([True, True, False, True, True, True])
        out, counts = window_scan(np, "sum", column, flags, 2, 3, False)
        assert out.tolist() == [9, 15]
        assert counts.tolist() == [2, 3]


# -- typed-buffer exactness ---------------------------------------------------


class TestTypedBuffers:
    def test_float_column_with_huge_int_stays_list(self):
        values = [1.5, 2**53 + 1, 2.5]
        assert typed_column(values, AtomType.FLOAT) is values

    def test_int_column_beyond_int64_stays_list(self):
        values = [1, 2**70, 3]
        assert typed_column(values, AtomType.INT) is values

    def test_str_columns_never_typed(self):
        values = ["a", "b"]
        assert typed_column(values, AtomType.STR) is values

    def test_none_holes_refuse_conversion(self):
        values = [1.0, None, 2.0]
        assert typed_column(values, AtomType.FLOAT) is values

    @pytest.mark.skipif(not HAS_NUMPY, reason="requires numpy")
    def test_numeric_columns_become_ndarrays(self):
        np = vector_backend()
        assert isinstance(typed_column([1, 2], AtomType.INT), np.ndarray)
        assert isinstance(typed_column([1.0, 2.0], AtomType.FLOAT), np.ndarray)
        assert isinstance(typed_column([True], AtomType.BOOL), np.ndarray)

    def test_pure_python_numeric_columns_become_arrays(self):
        from array import array

        with forced_backend(None):
            assert isinstance(typed_column([1, 2], AtomType.INT), array)
            assert isinstance(typed_column([1.0], AtomType.FLOAT), array)
            # no array.array code for bool: stays a list
            assert typed_column([True], AtomType.BOOL) == [True]

    def test_probe_honours_forced_backend(self):
        with forced_backend(None):
            assert vector_backend() is None


# -- bitmask semantics --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(flags=st.lists(st.booleans(), max_size=70))
def test_bitmask_matches_list_reference(flags):
    mask = Bitmask.from_bools(flags)
    assert len(mask) == len(flags)
    assert list(mask) == flags
    assert mask.tolist() == flags
    assert mask.count() == sum(flags)
    assert mask.any() == any(flags)
    assert mask.all() == all(flags)
    assert mask.indices() == [i for i, f in enumerate(flags) if f]
    inverted = ~mask
    assert inverted.tolist() == [not f for f in flags]
    if flags:
        lo, hi = 1, max(1, len(flags) - 1)
        assert mask[lo:hi].tolist() == flags[lo:hi]
        assert mask[0] == flags[0]


@settings(max_examples=40, deadline=None)
@given(
    pair=st.integers(min_value=0, max_value=40).flatmap(
        lambda n: st.tuples(
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
)
def test_bitmask_combination(pair):
    a, b = pair
    left, right = Bitmask.from_bools(a), Bitmask.from_bools(b)
    assert (left & right).tolist() == [x and y for x, y in zip(a, b)]
    assert (left | right).tolist() == [x or y for x, y in zip(a, b)]


@pytest.mark.skipif(not HAS_NUMPY, reason="requires numpy")
@settings(max_examples=40, deadline=None)
@given(flags=st.lists(st.booleans(), max_size=70))
def test_bitmask_numpy_roundtrip(flags):
    np = vector_backend()
    mask = Bitmask.from_bools(flags)
    array = mask.to_numpy(np)
    assert array.tolist() == flags
    assert Bitmask.from_numpy(np, array) == mask


# -- fallback observability ---------------------------------------------------


class TestKernelFallbackObservability:
    def _sequence(self):
        rows = {
            p: (float(p), p, p % 2 == 0, "a" if p % 3 else "b") for p in range(12)
        }
        return build_sequence(Span(0, 11), rows)

    def test_observer_counts_and_traces(self):
        counters = ExecutionCounters()
        tracer = Tracer()
        ctx = ExecContext(counters, tracer=tracer)
        with tracer.span("op:select") as span:
            ctx.kernel_fallback("subject")
        assert counters.kernels_fallback == 1
        assert [e.name for e in span.events] == ["kernel:fallback"]
        assert "subject" in span.events[0].attrs["subject"]

    def test_observer_without_tracer_still_counts(self):
        counters = ExecutionCounters()
        ExecContext(counters).kernel_fallback("x")
        assert counters.kernels_fallback == 1

    @pytest.mark.skipif(not HAS_NUMPY, reason="requires numpy")
    def test_str_predicate_counts_fallback(self):
        query = base(self._sequence(), "s0").select(col("s").eq(lit("a"))).query()
        result = run_query_detailed(query, mode="batch")
        assert result.counters.kernels_fallback >= 1

    @pytest.mark.skipif(not HAS_NUMPY, reason="requires numpy")
    def test_numeric_predicate_uses_kernel(self):
        query = base(self._sequence(), "s0").select(col("i") > lit(4)).query()
        result = run_query_detailed(query, mode="batch")
        assert result.counters.kernels_fallback == 0

    def test_no_backend_counts_fallback(self):
        with forced_backend(None):
            query = base(self._sequence(), "s0").select(col("i") > lit(4)).query()
            result = run_query_detailed(query, mode="batch")
            assert result.counters.kernels_fallback >= 1

    def test_fallback_emits_trace_event(self):
        with forced_backend(None):
            query = base(self._sequence(), "s0").select(col("i") > lit(4)).query()
            result = run_query_detailed(query, mode="batch", analyze=True)
            events = [
                event.name
                for span in result.tracer.spans
                for event in span.events
            ]
            assert "kernel:fallback" in events

    @pytest.mark.skipif(not HAS_NUMPY, reason="requires numpy")
    def test_declined_batch_counts_once_per_filter(self):
        # A built kernel that declines a batch (list-backed column) is a
        # degradation too: reported at the first such batch, once.
        schema = RecordSchema.of(i=AtomType.INT)
        expr = col("i") > lit(4)
        counters = ExecutionCounters()
        tracer = Tracer()
        ctx = ExecContext(counters, tracer=tracer)
        refine = compile_filter(
            expr, schema, spec=analyze_expr(expr, schema),
            on_kernel_fallback=ctx.kernel_fallback,
        )
        values = [3, 9, 4, 5]
        valid = Bitmask.from_bools([True, True, True, False])
        with tracer.span("op:chain") as span:
            typed = refine([typed_column(values, AtomType.INT)], valid)
            assert counters.kernels_fallback == 0
            declined = [refine([list(values)], valid) for _ in range(3)]
        assert counters.kernels_fallback == 1
        assert [e.name for e in span.events] == ["kernel:fallback"]
        assert typed.tolist() == [False, True, False, False]
        assert all(mask == typed for mask in declined)

    @pytest.mark.skipif(not HAS_NUMPY, reason="requires numpy")
    def test_window_sum_uses_vector_kernel(self):
        # sum/avg/count windows over a bounded child run the prefix
        # kernel; no fallback may be charged on this clean path.
        query = base(self._sequence(), "s0").window("sum", "f", 3, "w").query()
        result = run_query_detailed(query, mode="batch")
        assert result.counters.kernels_fallback == 0
