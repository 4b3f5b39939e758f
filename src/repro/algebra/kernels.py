"""Whole-column vector kernels for compiled expressions.

This module lowers an expression tree to a single numpy evaluation over
a batch's column buffers — the vector counterpart of the fused per-row
loops in :mod:`repro.algebra.expressions`.  A kernel only exists under a
certified vectorization-safe :class:`~repro.analysis.effects.EffectSpec`
(pure + deterministic + total + null-strict): the certificate is what
licenses evaluating the expression at *masked* positions (whose cells
hold unspecified fill values) and replacing short-circuit ``and``/``or``
with eager mask combination.

Exactness discipline — a kernel must return bit-identical answers to
the row oracle, so the lowering refuses (returns ``None`` / falls back
at runtime) whenever float64/int64 evaluation could diverge from
Python's arbitrary-precision semantics:

* INT∘INT arithmetic runs in int64; every column operand is runtime
  guarded to ``|v| <= 2**31`` and a compile-time bound propagation
  proves no intermediate can exceed ``2**62`` (no wraparound), else the
  expression is refused.
* Any int value crossing into float context (division, mixed INT/FLOAT
  arithmetic or comparison) must be exactly representable in float64:
  literals are checked at compile time, columns are guarded at runtime,
  and derived int expressions with bounds past ``2**53`` are refused.
* Same-type comparisons (int64/int64, float64/float64, bool) are exact
  at any magnitude and need no guard.
* STR columns and unknown ``Expr`` subclasses are never vectorized.

Masked positions may hold zero fills, so division warnings are
suppressed (``errstate``) and the result is intersected with the
incoming validity mask before anything can observe those lanes.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Optional

from repro.algebra.expressions import And, Arith, Cmp, Col, Expr, Lit, Not, Or
from repro.model.batch import Column, vector_backend
from repro.model.bitmask import Bitmask
from repro.model.schema import RecordSchema
from repro.model.types import AtomType

__all__ = ["VectorFilter", "cumulative_scan", "lower_vector_filter", "window_scan"]

#: Runtime magnitude guard on INT columns feeding arithmetic.  2**31
#: keeps one int64 product of two columns below 2**62 (no wraparound)
#: and every conversion to float64 exact.
INT_ARITH_GUARD = float(2**31)

#: Largest int magnitude exactly representable in float64.
FLOAT64_EXACT = float(2**53)

#: int64 results must stay strictly below this (headroom under 2**63).
_INT64_SAFE = float(2**62)

#: A vector predicate: ``(columns, valid) -> refined mask`` or ``None``
#: when this batch cannot be handled (non-vector buffer, guard tripped).
VectorFilter = Callable[[list[Column], Bitmask], Optional[Bitmask]]

_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_CMP_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_NUMERIC = (AtomType.INT, AtomType.FLOAT)


class _CannotVectorize(Exception):
    """The expression cannot be lowered to an exact vector kernel."""


class _VectorLowerer:
    """Recursive lowering with exactness bound propagation.

    Each node lowers to ``(fn, atype, bound, int_cols)`` where ``fn``
    maps the batch's column list to an ndarray (or scalar), ``bound``
    over-approximates ``|value|`` for INT-typed nodes (assuming every
    guarded column obeys its runtime guard), and ``int_cols`` is the
    set of INT column indices flowing into the node's value.
    """

    def __init__(self, schema: RecordSchema, np: Any):
        self.schema = schema
        self.np = np
        self.used: set[int] = set()
        self.guards: dict[int, float] = {}

    def _guard(self, indices: frozenset[int], bound: float) -> None:
        for index in indices:
            current = self.guards.get(index, math.inf)
            self.guards[index] = min(current, bound)

    def lower(
        self, expr: Expr
    ) -> tuple[Callable[[list[Column]], Any], AtomType, float, frozenset[int]]:
        if type(expr) is Col:
            index = self.schema.index_of(expr.name)
            atype = self.schema.attributes[index].atype
            if atype is AtomType.STR:
                raise _CannotVectorize("STR column")
            self.used.add(index)

            def read(columns: list[Column], _index: int = index) -> Any:
                return columns[_index]

            if atype is AtomType.INT:
                return read, atype, INT_ARITH_GUARD, frozenset((index,))
            return read, atype, math.inf, frozenset()

        if type(expr) is Lit:
            value = expr.value
            atype = expr.infer_type(self.schema)
            if atype is AtomType.STR:
                raise _CannotVectorize("STR literal")
            if atype is AtomType.INT and abs(value) >= 2**63:  # type: ignore[arg-type]
                raise _CannotVectorize("literal beyond int64")
            bound = float(abs(value)) if atype is AtomType.INT else math.inf  # type: ignore[arg-type]
            return (lambda columns: value), atype, bound, frozenset()

        if type(expr) is Arith:
            return self._lower_arith(expr)

        if type(expr) is Cmp:
            return self._lower_cmp(expr)

        if type(expr) is And or type(expr) is Or:
            left_expr = expr.left
            right_expr = expr.right
            lf, lt, _, _ = self.lower(left_expr)
            rf, rt, _, _ = self.lower(right_expr)
            if lt is not AtomType.BOOL or rt is not AtomType.BOOL:
                raise _CannotVectorize("non-boolean logic operand")
            combine = self.np.logical_and if type(expr) is And else self.np.logical_or

            def logic(columns: list[Column]) -> Any:
                return combine(lf(columns), rf(columns))

            return logic, AtomType.BOOL, math.inf, frozenset()

        if type(expr) is Not:
            of, ot, _, _ = self.lower(expr.operand)
            if ot is not AtomType.BOOL:
                raise _CannotVectorize("non-boolean NOT operand")
            logical_not = self.np.logical_not

            def negate(columns: list[Column]) -> Any:
                return logical_not(of(columns))

            return negate, AtomType.BOOL, math.inf, frozenset()

        raise _CannotVectorize(type(expr).__name__)

    def _require_float_exact(
        self, atype: AtomType, bound: float, int_cols: frozenset[int]
    ) -> None:
        """Admit an operand into float64 context (conversion must be exact)."""
        if atype is AtomType.INT:
            if bound > FLOAT64_EXACT:
                raise _CannotVectorize("int operand not float64-exact")
            self._guard(int_cols, min(INT_ARITH_GUARD, FLOAT64_EXACT))

    def _lower_arith(
        self, expr: Arith
    ) -> tuple[Callable[[list[Column]], Any], AtomType, float, frozenset[int]]:
        lf, lt, lb, lcols = self.lower(expr.left)
        rf, rt, rb, rcols = self.lower(expr.right)
        if lt not in _NUMERIC or rt not in _NUMERIC:
            raise _CannotVectorize("non-numeric arithmetic operand")
        fn = _ARITH_OPS[expr.op]

        def apply(columns: list[Column]) -> Any:
            return fn(lf(columns), rf(columns))

        if expr.op == "/" or lt is not rt or lt is AtomType.FLOAT:
            # Float64 result: every int operand crosses into float context.
            self._require_float_exact(lt, lb, lcols)
            self._require_float_exact(rt, rb, rcols)
            return apply, AtomType.FLOAT, math.inf, frozenset()
        # INT ∘ INT in int64: prove no intermediate can wrap.
        bound = lb * rb if expr.op == "*" else lb + rb
        if bound >= _INT64_SAFE:
            raise _CannotVectorize("int64 bound overflow")
        self._guard(lcols | rcols, INT_ARITH_GUARD)
        return apply, AtomType.INT, bound, lcols | rcols

    def _lower_cmp(
        self, expr: Cmp
    ) -> tuple[Callable[[list[Column]], Any], AtomType, float, frozenset[int]]:
        lf, lt, lb, lcols = self.lower(expr.left)
        rf, rt, rb, rcols = self.lower(expr.right)
        if lt is AtomType.BOOL or rt is AtomType.BOOL:
            if lt is not rt or expr.op not in ("==", "!="):
                raise _CannotVectorize("boolean comparison shape")
        elif lt not in _NUMERIC or rt not in _NUMERIC:
            raise _CannotVectorize("non-numeric comparison")
        elif lt is not rt:
            # Mixed INT/FLOAT comparison: the int side converts to
            # float64, so its values must be exactly representable.
            if lt is AtomType.INT:
                self._require_float_exact(lt, lb, lcols)
            else:
                self._require_float_exact(rt, rb, rcols)
        fn = _CMP_OPS[expr.op]

        def compare(columns: list[Column]) -> Any:
            return fn(lf(columns), rf(columns))

        return compare, AtomType.BOOL, math.inf, frozenset()


def _lower(
    expr: Expr, schema: RecordSchema
) -> Optional[tuple[Any, Callable[[list[Column]], Any], AtomType, list[int], list[tuple[int, float]]]]:
    """Common lowering; None when no vector backend or not lowerable."""
    np = vector_backend()
    if np is None:
        return None
    lowerer = _VectorLowerer(schema, np)
    try:
        fn, atype, _bound, _cols = lowerer.lower(expr)
    except _CannotVectorize:
        return None
    return np, fn, atype, sorted(lowerer.used), sorted(lowerer.guards.items())


def _batch_ready(
    np: Any,
    columns: list[Column],
    used: list[int],
    guards: list[tuple[int, float]],
) -> bool:
    """Whether this batch's buffers admit the kernel (runtime dispatch)."""
    for index in used:
        if not isinstance(columns[index], np.ndarray):
            return False
    for index, bound in guards:
        column = columns[index]
        if len(column) and (column.min() < -bound or column.max() > bound):
            return False
    return True


def lower_vector_filter(expr: Expr, schema: RecordSchema) -> Optional[VectorFilter]:
    """A whole-column predicate kernel, or ``None`` if not lowerable.

    The kernel refines a validity mask: positions stay valid iff valid
    before *and* the predicate holds.  It returns ``None`` for batches
    it cannot handle exactly (a used column is not a vector buffer, or
    an int-magnitude guard trips); callers then run the scalar path on
    that batch.
    """
    lowered = _lower(expr, schema)
    if lowered is None:
        return None
    np, fn, atype, used, guards = lowered
    if atype is not AtomType.BOOL:
        return None

    def kernel(columns: list[Column], valid: Bitmask) -> Optional[Bitmask]:
        if not _batch_ready(np, columns, used, guards):
            return None
        with np.errstate(all="ignore"):
            result = fn(columns)
        if isinstance(result, np.ndarray):
            if result.dtype != np.bool_:
                result = result.astype(np.bool_)
            return Bitmask.from_numpy(np, result) & valid
        return valid if result else Bitmask.none(len(valid))

    return kernel



# -- operator kernels ----------------------------------------------------------

#: ``np.minimum``/``np.maximum`` by aggregate name.
_EXTREMA = {"min": "minimum", "max": "maximum"}


def cumulative_scan(
    np: Any,
    func: str,
    column: Column,
    flags: Any,
    count: int,
    state: Any,
    as_float: bool,
) -> Optional[tuple[Any, Any, Any]]:
    """One tile of a running aggregate as a prefix scan, exact or refused.

    ``flags`` marks the tile's valid cells of ``column``; ``count`` and
    ``state`` are the values absorbed before the tile and their running
    sum (``sum``/``avg``) or extremum (``min``/``max``).  Returns
    ``(out, counts, state)`` — the aggregate and the running count at
    every cell, holes forward-filled, and the state after the tile — or
    ``None`` when the scan could differ from the row oracle's Python
    arithmetic in a single bit:

    * ``count`` is a ``cumsum`` of validity and always runs;
    * an int ``sum``/``avg`` is an int64 ``cumsum`` under the magnitude
      bound the window kernel uses (running ``|sum| < 2**61``, ``2**52``
      for ``avg`` so the division's operands convert exactly);
    * a float ``sum``/``avg`` is a sequential ``cumsum`` seeded with the
      float state, the same additions in the same order as the oracle
      (its int ``0`` start maps ``-0.0`` to ``0.0`` — so does the
      seed), refused when the state is an int it would have to round;
    * ``min``/``max`` is ``minimum``/``maximum.accumulate`` with the
      identity at holes, refused for NaN (Python keeps the earlier
      operand, numpy propagates) and ``-0.0`` (equal to ``0.0`` yet
      distinguishable, and the two tie-break differently).
    """
    counts = count + np.cumsum(flags, dtype=np.int64)
    if func == "count":
        return counts, counts, None
    if not isinstance(column, np.ndarray) or column.dtype.kind not in "if":
        return None
    is_int = column.dtype.kind == "i"
    if count and (type(state) is int) != is_int:
        return None
    with np.errstate(all="ignore"):
        if func in _EXTREMA:
            if is_int:
                info = np.iinfo(column.dtype)
                identity = info.max if func == "min" else info.min
                if count and not info.min <= state <= info.max:
                    return None
            else:
                identity = math.inf if func == "min" else -math.inf
                cells = np.append(column[flags], state if count else identity)
                if np.isnan(cells).any() or (np.signbit(cells) & (cells == 0)).any():
                    return None
            seed = state if count else identity
            cells = np.concatenate(([seed], np.where(flags, column, identity)))
            out = getattr(np, _EXTREMA[func]).accumulate(cells)[1:]
        else:
            x = np.where(flags, column, 0)
            seed = state if count else 0
            if is_int:
                magnitude = abs(seed) + float(np.sum(np.abs(x, dtype=np.float64)))
                if magnitude >= (2.0**52 if func == "avg" else 2.0**61):
                    return None
                out = seed + np.cumsum(x)
            else:
                out = np.cumsum(np.concatenate(([float(seed)], x)))[1:]
        if counts[-1]:
            state = out[-1].item()
        if func == "avg":
            out = out / np.maximum(counts, 1)
    if as_float and out.dtype.kind != "f":
        out = out.astype(np.float64)
    return out, counts, state


def window_scan(
    np: Any,
    func: str,
    column: Column,
    flags: Any,
    outputs: int,
    width: int,
    as_float: bool,
) -> Optional[tuple[Any, Any]]:
    """One tile of a sliding ``sum``/``avg``/``count``, exact or refused.

    ``column`` and ``flags`` hold the carried input cells followed by
    the tile's; the outputs are the last ``outputs`` cells, each
    aggregating the ``width`` cells ending at it (fewer where the
    buffer starts later — the caller's input starts at the window's
    scope, so nothing older exists).  Returns ``(out, counts)`` — the
    aggregate and the windowed valid count at every output cell — or
    ``None`` when the values could differ from the row oracle's Python
    arithmetic in a single bit:

    * ``count`` is a difference of validity prefix counts and always
      runs; the same counts are the validity (``counts > 0``), the
      ``avg`` divisor and the cache occupancy the caller charges;
    * an int ``sum``/``avg`` is a difference of int64 prefix sums under
      the magnitude bound :func:`cumulative_scan` uses, refused past it;
    * a float ``sum``/``avg`` is accumulated by shifted adds, oldest
      window slot first — element for element the oracle's sequential
      ``sum()`` over its cache (starting from ``0.0`` maps ``-0.0`` to
      ``0.0`` as its int ``0`` start does, and the ``0`` added at a
      hole is exact) — NOT by prefix differences, which round
      differently; ``width > 4096`` would make that quadratic and is
      refused.
    """

    def windowed(cells: Any) -> Any:
        # Differences of prefix sums led by ``width`` zeros, so a window
        # that starts before the buffer reads an empty prefix.
        prefix = np.concatenate(
            (np.zeros(width + 1, dtype=np.int64), np.cumsum(cells, dtype=np.int64))
        )
        return prefix[-outputs:] - prefix[-outputs - width : -width]

    counts = windowed(flags)
    if func == "count":
        return counts, counts
    if not isinstance(column, np.ndarray) or column.dtype.kind not in "if":
        return None
    x = np.where(flags, column, 0)
    with np.errstate(all="ignore"):
        if x.dtype.kind == "i":
            magnitude = float(np.sum(np.abs(x, dtype=np.float64)))
            if magnitude >= (2.0**52 if func == "avg" else 2.0**61):
                return None
            out = windowed(x)
        else:
            if width > 4096:
                return None
            x = np.concatenate((np.zeros(width, dtype=x.dtype), x))
            oldest = len(x) - outputs - width + 1
            out = np.zeros(outputs, dtype=x.dtype)
            for slot in range(oldest, oldest + width):
                out += x[slot : slot + outputs]
        if func == "avg":
            out = out / np.maximum(counts, 1)
    if as_float and out.dtype.kind != "f":
        out = out.astype(np.float64)
    return out, counts
