"""Batch-mode plan execution.

The row-mode executor (:mod:`repro.execution.streams`) pays a Python
generator hop, a tree-walk predicate evaluation, and one or more
:class:`~repro.model.record.Record` constructions *per record*.  The
builders here amortize that interpreter overhead across position
ranges: every operator consumes and produces
:class:`~repro.model.batch.ColumnBatch` values — contiguous position
ranges in columnar layout with a validity mask — and predicates run as
compiled fused loops (:func:`repro.algebra.expressions.compile_filter`)
over the column lists.

Semantics are identical to row mode by construction: the same join
strategies of Section 3.3 and caching strategies of Section 3.5 are
expressed per batch.  A chain's unit operations become mask refinement
(select), column-list selection (project) and a range shift.  The
three running operators share one frame — the child read through one
range-aligned :class:`_BatchCursor`, a tile at a time
(:func:`_input_tiles`), with only the operator's cache carried from
tile to tile, so state is O(batch + cache) however long the input
(Theorem 3.1): the scope-sized cache of Cache-Strategy-A is the
aggregated column at the last ``width`` input positions, the
reach-``k`` cache of Cache-Strategy-B the ``reach`` compacted rows a
rank-gather keeps, and a cumulative aggregate carries its running
value.  A global aggregate folds its input batch by batch and carries
one value.  The paper-accounting counters (``predicate_evals``,
``operator_records``, ``cache_ops``) are still charged per logical
record wherever the work is per record; counts that depend on how far
child streams are read (e.g. join inputs outside the requested window)
may differ from row mode — see DESIGN §8.

With typed column buffers (:mod:`repro.model.batch`) five shapes run
as whole-column kernels instead of per-row Python loops: certified
selects/join predicates evaluate as numpy expressions over the buffers
(see :mod:`repro.algebra.kernels`), the lockstep join combines packed
validity bitmasks instead of probing per row, sum/avg/count window
aggregates are one prefix-difference/shifted-add scan per tile
(:func:`repro.algebra.kernels.window_scan`; min/max run the
Cache-Strategy-A loop, :meth:`repro.execution.sliding.SlidingAggregator.slide`,
from the same carry), value offsets are one gather by validity rank per tile
(:class:`_RankPool` — a copy, so typed columns stay typed and nothing
needs an exactness guard), and cumulative aggregates are one prefix
scan per tile (:func:`repro.algebra.kernels.cumulative_scan`).
Every kernel that cannot run — no numpy, unsafe effect spec, untyped
dtype, or an exactness guard refusing the batch — degrades to the
existing scalar path with identical answers, observably: the
``kernels_fallback`` counter and ``kernel:fallback`` trace event fire
(see :meth:`repro.execution.context.ExecContext.kernel_fallback`).

Every operator is ``op(ctx, plan, window)`` and opens its children
through the execution context (``ctx.batches`` / ``ctx.prober``).
Stream contract: ``ctx.batches(plan, window)`` yields batches of at
most ``ctx.batch_size`` positions whose covered ranges are ascending
and disjoint and lie within ``window`` intersected with the plan's
span.  Positions not covered by any batch are Null.  All-Null batches
may be skipped entirely.  The guard is checked at every batch boundary
(and per tile in the position-looping operators).  The same top-down
span discipline as row mode applies: child streams are opened over the
*children's plan spans* (the window aggregate's over the scope of its
window), and the window bounds emission at each node.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence, cast

from repro.errors import ExecutionError
from repro.model.batch import (
    Column,
    ColumnBatch,
    NP_DTYPES,
    column_to_list,
    concat_columns,
    typed_column,
    vector_backend,
)
from repro.model.bitmask import Bitmask
from repro.model.record import NULL
from repro.model.schema import RecordSchema
from repro.model.span import Span
from repro.model.types import AtomType
from repro.algebra.aggregate import (
    CumulativeAggregate,
    GlobalAggregate,
    WindowAggregate,
    apply_aggregate,
)
from repro.algebra.expressions import compile_filter
from repro.algebra.kernels import cumulative_scan, window_scan
from repro.algebra.leaves import ConstantLeaf, SequenceLeaf
from repro.algebra.offsets import ValueOffset
from repro.analysis.effects import analyze_expr
from repro.execution.counters import ExecutionCounters
from repro.execution.guard import QueryGuard
from repro.execution.probers import ProberSequence, chain_steps
from repro.execution.sliding import CumulativeAggregator, make_sliding
from repro.optimizer.plans import PhysicalPlan

if TYPE_CHECKING:
    from repro.execution.context import ExecContext

#: Positions covered by one batch (the vectorization granularity).
DEFAULT_BATCH_SIZE = 1024

BatchStream = Iterator[ColumnBatch]


def _finish(
    counters: ExecutionCounters,
    batch: ColumnBatch,
    guard: Optional[QueryGuard] = None,
) -> ColumnBatch:
    """Charge per-batch counters for an emitted batch (a guard checkpoint)."""
    rows = batch.count_valid()
    counters.operator_records += rows
    counters.batches_built += 1
    counters.batch_rows += rows
    if guard is not None:
        guard.checkpoint()
    return batch


def _bounds(window: Span) -> Optional[tuple[int, int]]:
    """``(start, end)`` of a bounded window; ``None`` for an empty one.

    Raises:
        ExecutionError: if the window is unbounded (row mode raises the
            analogous :class:`~repro.errors.SpanError` when it tries to
            iterate the window's positions).
    """
    if window.is_empty:
        return None
    if not window.is_bounded:
        raise ExecutionError(f"cannot batch-iterate unbounded window {window}")
    assert window.start is not None and window.end is not None
    return window.start, window.end


def _tiles(window: Span, batch_size: int) -> Iterator[tuple[int, int]]:
    """Split a bounded window into ``[lo, hi]`` ranges of ``batch_size``.

    Raises:
        ExecutionError: if the window is unbounded.
    """
    bounds = _bounds(window)
    if bounds is None:
        return
    lo, end = bounds
    while lo <= end:
        hi = min(lo + batch_size - 1, end)
        yield lo, hi
        lo = hi + 1


def _clip(batch: ColumnBatch, window: Span) -> Optional[ColumnBatch]:
    """Restrict a batch to the positions inside ``window``.

    Returns ``None`` when the batch and the window are disjoint (or the
    window is empty); returns the batch itself when already contained.
    """
    if window.is_empty:
        return None
    lo, hi = batch.start, batch.end
    if hi < lo:
        return None
    if window.start is not None and window.start > lo:
        lo = window.start
    if window.end is not None and window.end < hi:
        hi = window.end
    if lo > hi:
        return None
    if lo == batch.start and hi == batch.end:
        return batch
    return batch.sliced(lo, hi)


class _BatchCursor:
    """Re-chunk a batch stream to caller-aligned position ranges.

    ``fetch(lo, hi)`` returns ``(columns, valid)`` aligned to the
    absolute range ``[lo, hi]``; positions the underlying stream never
    covers come back invalid.  Requests must be ascending and
    non-overlapping, which lets the cursor walk the stream once.

    Assembly is backend-preserving: when every contributing segment of
    a typed column is a numpy buffer — vacuously so when the range has
    no segment at all — the aligned column is a numpy buffer too (zero
    fill at uncovered positions), so downstream vector kernels keep
    running even when the two sides' batches are not range-aligned or
    a tile of the child is empty.  Validity is assembled by shifting the segments'
    packed bitmasks into place — no per-position Python work.
    """

    def __init__(
        self,
        stream: BatchStream,
        schema: RecordSchema,
        pick: Optional[tuple[int, ...]] = None,
    ):
        self._stream = stream
        self._schema = schema
        self._pick = tuple(range(len(schema))) if pick is None else pick
        self._batch: Optional[ColumnBatch] = None
        #: True once the underlying stream has been read to its end.
        self.exhausted = False

    def fetch(self, lo: int, hi: int) -> tuple[list[Column], Bitmask]:
        """Columns (per picked index) and validity for positions ``[lo, hi]``."""
        n = max(0, hi - lo + 1)
        # (dst_offset, batch, src_lo, src_hi) overlaps, collected first
        # so column assembly can choose one backend per column.
        segments: list[tuple[int, ColumnBatch, int, int]] = []
        if n > 0:
            while True:
                batch = self._batch
                if batch is None:
                    batch = next(self._stream, None)
                    if batch is None:
                        self.exhausted = True
                        break
                    self._batch = batch
                end = batch.end
                if end < lo:
                    self._batch = None
                    continue
                if batch.start > hi:
                    break
                s = max(lo, batch.start)
                e = min(hi, end)
                segments.append((s - lo, batch, s - batch.start, e - batch.start + 1))
                if end > hi:
                    break
                self._batch = None
                if end == hi:
                    break
        bits = 0
        for dst, batch, src_lo, src_hi in segments:
            bits |= batch.valid[src_lo:src_hi].bits << dst
        valid = Bitmask(bits, n)
        np = vector_backend()
        columns: list[Column] = []
        for index in self._pick:
            parts = [
                (dst, batch.columns[index], src_lo, src_hi)
                for dst, batch, src_lo, src_hi in segments
            ]
            dtype = None if np is None else NP_DTYPES.get(self._schema.attributes[index].atype)
            if dtype is not None and all(
                isinstance(part[1], np.ndarray) for part in parts
            ):
                dest: Column = np.zeros(n, dtype=dtype)
                for dst, column, src_lo, src_hi in parts:
                    dest[dst : dst + (src_hi - src_lo)] = column[src_lo:src_hi]
            else:
                dest = [None] * n
                for dst, column, src_lo, src_hi in parts:
                    piece = column[src_lo:src_hi]
                    if not isinstance(piece, list):
                        piece = column_to_list(piece)
                    dest[dst : dst + (src_hi - src_lo)] = piece
            columns.append(dest)
        return columns, valid


# -- leaf access -------------------------------------------------------------


def scan(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> BatchStream:
    """Carve a base or constant sequence into column batches over ``window``."""
    leaf = plan.node
    if isinstance(leaf, SequenceLeaf):
        source = leaf.sequence
    elif isinstance(leaf, ConstantLeaf):
        source = leaf.constant
    else:
        raise ExecutionError(f"scan plan without a leaf node: {plan.kind}")
    ctx.counters.scans_opened += 1
    # Every source answers in column runs — cached buffers, regrouped
    # page chunks, a repeated constant — and a source that is read
    # incrementally yields one run per batch, so the guard checkpoints
    # after at most one batch of pages.
    for positions, columns in source.column_runs(window, ctx.batch_size):
        yield from _scan_columnar(ctx, plan.schema, positions, columns)


def _scan_columnar(
    ctx: ExecContext,
    schema: RecordSchema,
    positions: Sequence[int],
    source_columns: tuple[Column, ...],
) -> BatchStream:
    """Carve one column run into batches anchored at their first record."""
    np = vector_backend()
    counters, batch_size, guard = ctx.counters, ctx.batch_size, ctx.guard
    total = len(positions)
    i = 0
    while i < total:
        start = positions[i]
        j = bisect_right(positions, start + batch_size - 1, i)
        n = positions[j - 1] - start + 1
        if j - i == n:
            # Dense run: the batch columns are zero-copy buffer slices.
            columns = [column[i:j] for column in source_columns]
            valid: Bitmask = Bitmask.full(n)
        else:
            pos_slice = positions[i:j]
            index_array = None
            if np is not None:
                index_array = np.asarray(pos_slice, dtype="int64") - start
                flags = np.zeros(n, dtype=bool)
                flags[index_array] = True
                valid = Bitmask.from_numpy(np, flags)
            else:
                valid = Bitmask.from_indices((p - start for p in pos_slice), n)
            columns = []
            for column in source_columns:
                piece = column[i:j]
                if index_array is not None and isinstance(piece, np.ndarray):
                    dest: Column = np.zeros(n, dtype=piece.dtype)
                    dest[index_array] = piece
                else:
                    dest = [None] * n
                    values = piece if isinstance(piece, list) else column_to_list(piece)
                    for p, value in zip(pos_slice, values):
                        dest[p - start] = value
                columns.append(dest)
        i = j
        yield _finish(counters, ColumnBatch(schema, start, columns, valid), guard)


# -- unit-operation chains ---------------------------------------------------


def chain(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> BatchStream:
    """Apply a run of unit-scope steps as mask refinement and column selection."""
    counters = ctx.counters
    guard = ctx.guard
    # The steps compile as in row mode (one schema flow), except that a
    # select becomes a mask refiner: a whole-column vector kernel under
    # a vectorization-safe effect spec, a fused scalar loop otherwise.
    shift, _reshaped, ops = chain_steps(
        ctx,
        plan,
        lambda predicate, schema: compile_filter(
            predicate,
            schema,
            spec=analyze_expr(predicate, schema),
            on_fallback=ctx.interpreted,
            on_kernel_fallback=ctx.kernel_fallback,
        ),
    )
    child_plan = plan.children[0]
    child_window = window.shift(shift).intersect(child_plan.span)
    for batch in ctx.batches(child_plan, child_window):
        columns = batch.columns
        valid = batch.valid
        for refine, gather in ops:
            if gather is None:
                counters.predicate_evals += valid.count()
                valid = cast(Bitmask, refine(columns, valid))
            else:
                columns = list(gather(columns))
        if valid.any():
            yield _finish(
                counters,
                ColumnBatch(plan.schema, batch.start - shift, columns, valid),
                guard,
            )


# -- join strategies ---------------------------------------------------------


def _join_predicate(
    ctx: ExecContext, plan: PhysicalPlan
) -> Optional[Callable[..., Any]]:
    """Compile a join's predicate to a mask refiner over the combined columns."""
    if plan.predicate is None:
        return None
    return compile_filter(
        plan.predicate,
        plan.schema,
        spec=analyze_expr(plan.predicate, plan.schema),
        on_fallback=ctx.interpreted,
        on_kernel_fallback=ctx.kernel_fallback,
    )


def lockstep(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> BatchStream:
    """Join-Strategy-B: merge both inputs in lock step, batch-aligned.

    The pairing itself is one packed-bitmask AND per batch: the right
    cursor re-aligns its stream to the left batch's range (preserving
    numpy buffers across segment boundaries) and positions survive iff
    both sides are valid — no per-row probe.
    """
    counters = ctx.counters
    guard = ctx.guard
    left_plan, right_plan = plan.children
    left_stream = ctx.batches(left_plan, left_plan.span)
    right_cursor = _BatchCursor(
        ctx.batches(right_plan, right_plan.span), right_plan.schema
    )
    predicate = _join_predicate(ctx, plan)
    for left in left_stream:
        rcols, rvalid = right_cursor.fetch(left.start, left.end)
        valid = left.valid & rvalid
        # Clip to the output window before the predicate runs: row mode
        # only applies the join predicate to in-window pairs.
        batch = _clip(
            ColumnBatch(plan.schema, left.start, list(left.columns) + rcols, valid),
            window,
        )
        if batch is not None:
            valid = batch.valid
            if predicate is not None:
                counters.predicate_evals += valid.count()
                valid = cast(Bitmask, predicate(batch.columns, valid))
            if valid.any():
                yield _finish(
                    counters,
                    ColumnBatch(plan.schema, batch.start, batch.columns, valid),
                    guard,
                )
        if right_cursor.exhausted:
            # The merge ends when either input does, as in row mode.
            return


def probed_join(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> BatchStream:
    """Join-Strategy-A: stream one input in batches, probe the other.

    ``stream-probe`` drives from the left child and probes the right;
    ``probe-stream`` is the converse.
    """
    driver_index = 0 if plan.kind == "stream-probe" else 1
    counters = ctx.counters
    guard = ctx.guard
    probed_index = 1 - driver_index
    prober = ctx.prober(plan.children[probed_index])
    driver_plan = plan.children[driver_index]
    probed_ncols = len(plan.children[probed_index].schema)
    predicate = _join_predicate(ctx, plan)
    driver_stream = ctx.batches(driver_plan, driver_plan.span)
    for raw in driver_stream:
        # Probe only in-window driver positions, exactly as row mode
        # skips out-of-window records before issuing the probe.
        batch = _clip(raw, window)
        if batch is None:
            continue
        n = len(batch)
        pcols: list[list] = [[None] * n for _ in range(probed_ncols)]
        flags = batch.valid.tolist()
        start = batch.start
        get = prober.get
        for i in batch.valid.indices():
            record = get(start + i)
            if record is NULL:
                flags[i] = False
                continue
            values = record.values
            for c in range(probed_ncols):
                pcols[c][i] = values[c]
        # Composed records are left.right regardless of which side drove.
        columns: list[Column] = (
            list(batch.columns) + pcols
            if driver_index == 0
            else pcols + list(batch.columns)
        )
        valid = Bitmask.from_bools(flags)
        if predicate is not None:
            counters.predicate_evals += valid.count()
            valid = cast(Bitmask, predicate(columns, valid))
        if valid.any():
            yield _finish(counters, ColumnBatch(plan.schema, start, columns, valid), guard)


# -- non-unit-scope unary operators ------------------------------------------


def _naive_unary(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> BatchStream:
    """Forced-naive strategy: the operator's ``value_at`` over a prober."""
    counters = ctx.counters
    guard = ctx.guard
    source = ProberSequence(ctx.prober(plan.children[0]))
    op = plan.node
    schema = plan.schema
    ncols = len(schema)
    for lo, hi in _tiles(window, ctx.batch_size):
        if guard is not None:
            guard.checkpoint()
        n = hi - lo + 1
        columns: list[list] = [[None] * n for _ in range(ncols)]
        valid = [False] * n
        for position in range(lo, hi + 1):
            record = op.value_at([source], position)
            if record is NULL:
                continue
            index = position - lo
            valid[index] = True
            values = record.values
            for c in range(ncols):
                columns[c][index] = values[c]
        if any(valid):
            yield _finish(counters, ColumnBatch(schema, lo, columns, valid), guard)


def window_agg(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> BatchStream:
    """Sliding-window aggregate: Cache-Strategy-A a tile at a time, or forced naive.

    The child is opened over the Prop. 2.1 scope of ``window`` and read
    through one range-aligned cursor; what is carried from tile to tile
    is the scope-sized cache itself — the aggregated column and its
    validity at the last ``width`` input positions.  A sum/avg/count
    tile is one :func:`repro.algebra.kernels.window_scan` over carry
    plus tile; a tile the kernel refuses (no numpy, an untyped column,
    an exactness guard — observably, once per operator) runs
    :func:`_sliding_sums` over the same cells, and min/max run
    :meth:`repro.execution.sliding.SlidingAggregator.slide` from the
    same carry.  ``cache_ops`` and the occupancy peak are the row
    executor's: every fetched record is one insertion, every record
    that leaves the carry one eviction, and the cache holds the
    windowed valid count.
    """
    op = plan.node
    if not isinstance(op, WindowAggregate):
        raise ExecutionError("window-agg plan without a WindowAggregate node")
    if plan.strategy == "naive":
        yield from _naive_unary(ctx, plan, window)
        return
    bounds = _bounds(window)
    if bounds is None:
        return
    counters = ctx.counters
    guard = ctx.guard
    child_plan = plan.children[0]
    (scope,) = op.required_input_spans(window, [child_plan.span])
    cursor = _BatchCursor(
        ctx.batches(child_plan, scope),
        child_plan.schema,
        pick=(child_plan.schema.index_of(op.attr),),
    )
    width = op.width
    as_float = plan.schema.attributes[0].atype is AtomType.FLOAT
    scans = op.func in ("sum", "avg", "count")
    np = vector_backend() if scans else None
    declined = False
    carry: Optional[Column] = None
    held = Bitmask.none(0)
    for lo, hi, emits in _input_tiles(scope.start, *bounds, ctx.batch_size):
        if guard is not None:
            guard.checkpoint()
        (column,), mask = cursor.fetch(lo, hi)
        cells = column if carry is None else concat_columns((carry, column))
        flags = Bitmask(held.bits | mask.bits << len(held), len(held) + len(mask))
        leaving = max(0, len(flags) - width)
        if not emits:
            # Input ahead of the first output only fills the cache.
            counters.cache_ops += mask.count()
            counters.note_occupancy(flags.count())
        elif scans:
            scanned = None
            if np is not None:
                scanned = window_scan(
                    np, op.func, cells, flags.to_numpy(np), len(mask), width, as_float
                )
            if scanned is not None:
                out, counts = scanned
                valid = Bitmask.from_numpy(np, counts > 0)
                peak = int(counts.max())
            else:
                if not declined:
                    declined = True
                    ctx.kernel_fallback(op)
                values = column_to_list(cells)
                indices = flags.indices()
                out, present, peak = _sliding_sums(
                    op.func,
                    [lo - len(held) + index for index in indices],
                    [values[index] for index in indices],
                    lo,
                    hi,
                    width,
                    as_float,
                )
                valid = Bitmask.from_bools(present)
            counters.cache_ops += mask.count() + flags[:leaving].count()
            counters.note_occupancy(peak)
        else:
            values = column_to_list(cells)
            aggregator = make_sliding(op.func)
            for index in held.indices():
                aggregator.add(lo - len(held) + index, values[index])
            entered = iter(
                [(lo + index, values[len(held) + index]) for index in mask.indices()]
            )
            out = [None] * len(mask)
            present = [False] * len(mask)
            for position, value in aggregator.slide(
                width, entered, range(lo, hi + 1), counters
            ):
                out[position - lo] = float(value) if as_float else value  # type: ignore[arg-type]
                present[position - lo] = True
            valid = Bitmask.from_bools(present)
        carry, held = cells[leaving:], flags[leaving:]
        if emits and valid.any():
            yield _finish(counters, ColumnBatch(plan.schema, lo, [out], valid), guard)


def _sliding_sums(
    func: str,
    at: list[int],
    cached: list[Any],
    lo: int,
    hi: int,
    width: int,
    as_float: bool,
) -> tuple[list[Any], list[bool], int]:
    """A sum/avg/count tile :func:`~repro.algebra.kernels.window_scan` refused.

    ``at`` and ``cached`` are the positions and values of the carried
    and the tile's valid cells, oldest first.  Each output position in
    ``[lo, hi]`` aggregates the slice of them in its ``width``-position
    window, found by two pointers, with
    :func:`~repro.algebra.aggregate.apply_aggregate` — the same
    ``sum()``, oldest first, as the row executor's over its cache.
    Returns the outputs, their validity and the largest window count
    (the cache occupancy peak the kernel reports too).
    """
    out: list[Any] = []
    present: list[bool] = []
    peak = start = end = 0
    size = len(at)
    for position in range(lo, hi + 1):
        oldest = position - width + 1
        while start < size and at[start] < oldest:
            start += 1
        while end < size and at[end] <= position:
            end += 1
        count = end - start
        if not count:
            out.append(None)
            present.append(False)
            continue
        if count > peak:
            peak = count
        value = apply_aggregate(func, cached[start:end])
        out.append(float(value) if as_float else value)  # type: ignore[arg-type]
        present.append(True)
    return out, present, peak


def _input_tiles(
    child_start: Optional[int], first: int, last: int, batch_size: int
) -> Iterator[tuple[int, int, bool]]:
    """Ranges ``(lo, hi, emits)`` an operator that absorbs its input in order reads.

    The input positions before ``first`` come in ``batch_size`` chunks
    that only feed the operator's state; ``[first, last]`` comes in the
    tiles of :func:`_tiles`, each of which also yields an output batch.
    State therefore stays O(batch) however far into its input a window
    starts (Theorem 3.1: no whole-input buffer).

    Raises:
        ExecutionError: if the input is unbounded below (the operator's
            ``value_at`` refuses it too).
    """
    if child_start is None:
        raise ExecutionError("a running operator needs a bounded-below input span")
    if child_start < first:
        for lo, hi in _tiles(Span(child_start, first - 1), batch_size):
            yield lo, hi, False
    for lo, hi in _tiles(Span(first, last), batch_size):
        yield lo, hi, True


def _take_rows(np: Any, columns: Sequence[Column], rows: Any) -> list[Column]:
    """Every column at ``rows`` — an index array, or an index list without numpy.

    Numpy buffers gather by fancy index and stay typed; list columns
    gather by comprehension through the same indices.
    """
    picked = None
    taken: list[Column] = []
    for column in columns:
        if np is not None and isinstance(column, np.ndarray):
            taken.append(column[rows])
        else:
            if picked is None:
                picked = rows if np is None else rows.tolist()
            taken.append([column[row] for row in picked])
    return taken


class _RankPool:
    """The compacted valid rows of a child stream, for rank-gathers.

    Cache-Strategy-B as a kernel: the output of a value offset at
    position ``p`` is the child's valid row number ``rank(p) - k``
    (offset ``-k``; ``rank`` counts the valid rows before ``p``) or
    ``rank(p) + k - 1`` (offset ``+k``; ``rank`` counts those up to and
    including ``p``).  The pool holds the rows the current tile can
    reach — their positions and their columns, compacted — so the ranks
    are one ``searchsorted`` and the output one gather through them.  A
    gather copies cells and computes nothing, so it needs no exactness
    guard: numpy columns stay typed, list columns (STR, ints past
    int64) gather by comprehension through the same indices.  Without
    numpy the same steps run per position over lists.
    """

    def __init__(self, np: Any, cursor: _BatchCursor):
        self._np = np
        self._cursor = cursor
        self.positions: Any = [] if np is None else np.empty(0, dtype="int64")
        self.columns: list[Column] = []

    def __len__(self) -> int:
        return len(self.positions)

    def absorb(self, lo: int, hi: int) -> int:
        """Append the child's valid rows at ``[lo, hi]``; returns how many."""
        columns, valid = self._cursor.fetch(lo, hi)
        count = valid.count()
        if count == 0:
            return 0
        np = self._np
        if np is None:
            rows: Any = valid.indices()
            positions: Any = [lo + row for row in rows]
            pieces = _take_rows(None, columns, rows)
        elif count == len(valid):
            positions = np.arange(lo, hi + 1)
            pieces = columns
        else:
            rows = np.flatnonzero(valid.to_numpy(np))
            positions = rows + lo
            pieces = _take_rows(np, columns, rows)
        if len(self.positions) == 0:
            self.positions, self.columns = positions, pieces
        else:
            self.positions = concat_columns((self.positions, positions))
            self.columns = [
                concat_columns(pair) for pair in zip(self.columns, pieces)
            ]
        return count

    def drop(self, count: int) -> None:
        """Forget the ``count`` earliest rows."""
        if count > 0:
            self.positions = self.positions[count:]
            self.columns = [column[count:] for column in self.columns]

    def rank(self, position: int) -> int:
        """How many pooled rows lie at or before ``position``."""
        if self._np is None:
            return bisect_right(self.positions, position)
        return int(self._np.searchsorted(self.positions, position, side="right"))

    def gather(
        self, lo: int, hi: int, offset: int
    ) -> Optional[tuple[list[Column], Bitmask]]:
        """The value offset ``offset`` at output positions ``[lo, hi]``.

        ``None`` when no position has its row in the pool.  Cells at
        invalid output positions repeat the pool's first row.
        """
        size = len(self.positions)
        if size == 0:
            return None
        np = self._np
        if np is None:
            cut, shift = (bisect_left, offset) if offset < 0 else (bisect_right, offset - 1)
            rows = [cut(self.positions, p) + shift for p in range(lo, hi + 1)]
            flags = [0 <= row < size for row in rows]
            if not any(flags):
                return None
            take: Any = [row if ok else 0 for row, ok in zip(rows, flags)]
            valid = Bitmask.from_bools(flags)
        else:
            outputs = np.arange(lo, hi + 1)
            if offset < 0:
                rows = np.searchsorted(self.positions, outputs, side="left") + offset
                ok = rows >= 0
            else:
                rows = np.searchsorted(self.positions, outputs, side="right") + (offset - 1)
                ok = rows < size
            if not ok.any():
                return None
            take = np.where(ok, rows, 0)
            valid = Bitmask.from_numpy(np, ok)
        return _take_rows(np, self.columns, take), valid


def value_offset(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> BatchStream:
    """Previous/Next/±k value offset: Cache-Strategy-B as a rank-gather, or forced naive.

    The child is read through one range-aligned cursor, a tile at a
    time, into a :class:`_RankPool` that never holds more than the rows
    of one tile plus ``reach``.  Looking back, tile ``[lo, hi]`` needs
    the rows before ``hi`` and afterwards keeps the last ``reach`` of
    them; looking forward it needs ``reach`` rows past ``hi`` and asks
    for them in steps no longer than the rows still missing, so the
    child is read no further than a one-row-at-a-time lookahead reads
    it.  ``cache_ops`` and the occupancy peak are the row executor's,
    in closed form: looking back every absorbed row is one cache
    insertion and the cache holds ``min(seen, reach)``; looking forward
    every row read past the window's first position is inserted once
    and removed once the output position passes it.
    """
    op = plan.node
    if not isinstance(op, ValueOffset):
        raise ExecutionError("value-offset plan without a ValueOffset node")
    if plan.strategy == "naive":
        yield from _naive_unary(ctx, plan, window)
        return
    bounds = _bounds(window)
    if bounds is None:
        return
    first, last = bounds
    counters = ctx.counters
    guard = ctx.guard
    child_plan = plan.children[0]
    schema = plan.schema
    reach = op.reach
    np = vector_backend()
    if np is None:
        ctx.kernel_fallback(op)
    pool = _RankPool(
        np, _BatchCursor(ctx.batches(child_plan, child_plan.span), child_plan.schema)
    )

    if op.looks_back:
        seen = 0
        # The rows a tile of outputs reaches lie strictly before it:
        # read the child one position behind the output tiles.
        for lo, hi, emits in _input_tiles(
            child_plan.span.start, first - 1, last - 1, ctx.batch_size
        ):
            if guard is not None:
                guard.checkpoint()
            absorbed = pool.absorb(lo, hi)
            if absorbed:
                seen += absorbed
                counters.cache_ops += absorbed
                counters.note_occupancy(min(seen, reach))
            gathered = pool.gather(lo + 1, hi + 1, -reach) if emits else None
            pool.drop(len(pool) - reach)
            if gathered is not None:
                yield _finish(
                    counters, ColumnBatch(schema, lo + 1, *gathered), guard
                )
        return

    child_end = child_plan.span.end
    if child_end is None:
        raise ExecutionError(
            "value offset into the future needs a bounded-above input span"
        )
    # Rows at or before the window's first position are never reached.
    read_to = first
    for lo, hi in _tiles(window, ctx.batch_size):
        if guard is not None:
            guard.checkpoint()
        absorbed = 0
        if read_to < (tile_end := min(hi, child_end)):
            absorbed = pool.absorb(read_to + 1, tile_end)
            read_to = tile_end
        passed = pool.rank(hi)
        while read_to < child_end and (missing := reach - (len(pool) - passed)) > 0:
            step = min(missing, child_end - read_to)
            absorbed += pool.absorb(read_to + 1, read_to + step)
            read_to += step
        counters.cache_ops += absorbed + passed
        if absorbed:
            counters.note_occupancy(min(reach, len(pool)))
        gathered = pool.gather(lo, hi, reach)
        pool.drop(passed)
        if gathered is not None:
            yield _finish(counters, ColumnBatch(schema, lo, *gathered), guard)


def cumulative(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> BatchStream:
    """Running aggregate over everything up to each position: a prefix scan per tile.

    Each tile of the aggregated column is fetched range-aligned and
    scanned by :func:`repro.algebra.kernels.cumulative_scan`, which
    carries the running state in and out; a tile the kernel refuses
    (no numpy, an untyped column, an exactness guard) runs the
    per-position loop from the same state, observably
    (``kernels_fallback``, once per operator).
    """
    op = plan.node
    if not isinstance(op, CumulativeAggregate):
        raise ExecutionError("cumulative-agg plan without a CumulativeAggregate node")
    if plan.strategy == "naive":
        yield from _naive_unary(ctx, plan, window)
        return
    bounds = _bounds(window)
    if bounds is None:
        return
    counters = ctx.counters
    guard = ctx.guard
    child_plan = plan.children[0]
    cursor = _BatchCursor(
        ctx.batches(child_plan, child_plan.span),
        child_plan.schema,
        pick=(child_plan.schema.index_of(op.attr),),
    )
    running = CumulativeAggregator(op.func)
    as_float = plan.schema.attributes[0].atype is AtomType.FLOAT
    np = vector_backend()
    declined = False
    for lo, hi, emits in _input_tiles(child_plan.span.start, *bounds, ctx.batch_size):
        if guard is not None:
            guard.checkpoint()
        (column,), mask = cursor.fetch(lo, hi)
        counters.cache_ops += mask.count()
        scanned = None
        if np is not None:
            scanned = cumulative_scan(
                np, op.func, column, mask.to_numpy(np), running.count, running.state, as_float
            )
        if scanned is not None:
            out, counts, state = scanned
            running.advance(int(counts[-1]), state)
            if not emits:
                continue
            valid = Bitmask.from_numpy(np, counts > 0)
        else:
            if not declined:
                declined = True
                ctx.kernel_fallback(op)
            values = column_to_list(column)
            if not emits:
                for index in mask.indices():
                    running.add(values[index])
                continue
            out = [None] * len(mask)
            flags = mask.tolist()
            for index, present in enumerate(flags):
                if present:
                    running.add(values[index])
                if running.count > 0:
                    value = running.result()
                    out[index] = float(value) if as_float else value
                    flags[index] = True
            valid = Bitmask.from_bools(flags)
        if valid.any():
            yield _finish(counters, ColumnBatch(plan.schema, lo, [out], valid), guard)


def global_agg(ctx: ExecContext, plan: PhysicalPlan, window: Span) -> BatchStream:
    """Whole-sequence aggregate, emitted as constant batches over ``window``."""
    op = plan.node
    if not isinstance(op, GlobalAggregate):
        raise ExecutionError("global-agg plan without a GlobalAggregate node")
    counters = ctx.counters
    guard = ctx.guard
    child_plan = plan.children[0]
    attr_index = child_plan.schema.index_of(op.attr)
    out_atype = plan.schema.attributes[0].atype

    def valid_cells() -> Iterator[list]:
        for batch in ctx.batches(child_plan, child_plan.span):
            column = batch.column_values(attr_index)
            if batch.valid.all():
                yield column
            else:
                yield [column[i] for i in batch.valid.indices()]

    result = CumulativeAggregator.fold(
        op.func, valid_cells(), out_atype is AtomType.FLOAT
    )
    if result is None:
        return
    for lo, hi in _tiles(window, ctx.batch_size):
        if guard is not None:
            guard.checkpoint()
        n = hi - lo + 1
        yield _finish(
            counters,
            ColumnBatch(
                plan.schema, lo, [typed_column([result] * n, out_atype)], Bitmask.full(n)
            ),
            guard,
        )
