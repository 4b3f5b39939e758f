"""Scalar and predicate expressions over sequence records.

Expressions appear in selection predicates and compose ("join")
predicates.  They support evaluation against a record, static type
checking against a schema, column-usage analysis (which drives the
pushdown legality tests of Section 3.1 — an attribute *participates* in
an operator if the operator's expressions reference it), renaming (for
pushing through projections/prefixed composes), and selectivity
estimation (Selinger-style defaults refined by catalog histograms).

Expressions compose with Python operators::

    (col("close") > 7.0) & (col("volume") >= lit(100))
"""

from __future__ import annotations

import abc
import functools
from types import CodeType
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Union, cast

from repro.errors import ExpressionError
from repro.model.bitmask import Bitmask
from repro.model.record import Record
from repro.model.schema import RecordSchema
from repro.model.types import AtomType, common_type

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a runtime cycle)
    from repro.analysis.effects import EffectSpec

# A hook resolving a column name to its catalog statistics (or None).
StatsLookup = Callable[[str], Optional[object]]

# A compile-time observer invoked when codegen cannot lower an
# expression and interpreted evaluation will be used instead.
FallbackObserver = Callable[["Expr"], None]

# A validity mask as the batch layer passes it: the packed Bitmask of
# typed-buffer batches, or the plain bool list of the legacy contract.
# Compiled batch functions answer in kind (mask in, same-shaped mask out).
Mask = Union[list[bool], Bitmask]

# A column buffer (list / array.array / numpy.ndarray — see
# repro.model.batch.Column); Any because numpy is optional.
ColumnArg = Any

# Selinger-style default selectivities when no statistics are available.
DEFAULT_SELECTIVITY = {
    "==": 0.10,
    "!=": 0.90,
    "<": 1.0 / 3.0,
    "<=": 1.0 / 3.0,
    ">": 1.0 / 3.0,
    ">=": 1.0 / 3.0,
}

# The total operator-flip table for estimating the swapped
# ``Lit <op> Col`` shape against a histogram on the column: the
# symmetric operators map to themselves, the orderings reverse.
# Deliberately total (every comparison operator is a key) so a new
# operator cannot silently fall through unflipped.
CMP_SWAP = {
    "==": "==",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}


class Expr(abc.ABC):
    """Base class of all expressions."""

    @abc.abstractmethod
    def eval(self, record: Record) -> object:
        """The expression value against a (non-Null) record."""

    @abc.abstractmethod
    def columns(self) -> frozenset[str]:
        """Names of all columns referenced anywhere in the expression."""

    @abc.abstractmethod
    def infer_type(self, schema: RecordSchema) -> AtomType:
        """Static type of the expression under ``schema``.

        Each node applies its one-level rule (``result_type``,
        :func:`boolean_operand`) to its operands' types.

        Raises:
            ExpressionError: on unknown columns or type mismatches.
        """

    @abc.abstractmethod
    def rename(self, mapping: Mapping[str, str]) -> "Expr":
        """A copy with columns renamed per ``mapping`` (missing = keep)."""

    def selectivity(self, stats: Optional[StatsLookup] = None) -> float:
        """Estimated fraction of records satisfying this predicate."""
        return 1.0

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other: object) -> "Expr":
        return Arith("+", self, _wrap(other))

    def __sub__(self, other: object) -> "Expr":
        return Arith("-", self, _wrap(other))

    def __mul__(self, other: object) -> "Expr":
        return Arith("*", self, _wrap(other))

    def __truediv__(self, other: object) -> "Expr":
        return Arith("/", self, _wrap(other))

    def __gt__(self, other: object) -> "Expr":
        return Cmp(">", self, _wrap(other))

    def __ge__(self, other: object) -> "Expr":
        return Cmp(">=", self, _wrap(other))

    def __lt__(self, other: object) -> "Expr":
        return Cmp("<", self, _wrap(other))

    def __le__(self, other: object) -> "Expr":
        return Cmp("<=", self, _wrap(other))

    def eq(self, other: object) -> "Expr":
        """Equality predicate (``==`` is reserved for Python identity)."""
        return Cmp("==", self, _wrap(other))

    def ne(self, other: object) -> "Expr":
        """Inequality predicate."""
        return Cmp("!=", self, _wrap(other))

    def __and__(self, other: object) -> "Expr":
        return And(self, _wrap(other))

    def __or__(self, other: object) -> "Expr":
        return Or(self, _wrap(other))

    def __invert__(self) -> "Expr":
        return Not(self)


def _wrap(value: object) -> Expr:
    """Lift a Python literal into an expression; pass expressions through."""
    if isinstance(value, Expr):
        return value
    return Lit(value)


class Col(Expr):
    """A reference to a named attribute of the input record."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ExpressionError(f"column name must be a non-empty string: {name!r}")
        self.name = name

    def eval(self, record: Record) -> object:
        return record.get(self.name)

    def columns(self) -> frozenset[str]:
        return frozenset((self.name,))

    def infer_type(self, schema: RecordSchema) -> AtomType:
        if self.name not in schema:
            raise ExpressionError(
                f"unknown column {self.name!r}; schema has {list(schema.names)}"
            )
        return schema.type_of(self.name)

    def rename(self, mapping: Mapping[str, str]) -> "Expr":
        return Col(mapping.get(self.name, self.name))

    def __repr__(self) -> str:
        return self.name


class Lit(Expr):
    """A constant value."""

    __slots__ = ("value", "_atype")

    def __init__(self, value: object):
        if isinstance(value, bool):
            atype = AtomType.BOOL
        elif isinstance(value, int):
            atype = AtomType.INT
        elif isinstance(value, float):
            atype = AtomType.FLOAT
        elif isinstance(value, str):
            atype = AtomType.STR
        else:
            raise ExpressionError(f"unsupported literal {value!r}")
        self.value = value
        self._atype = atype

    def eval(self, record: Record) -> object:
        return self.value

    def columns(self) -> frozenset[str]:
        return frozenset()

    def infer_type(self, schema: RecordSchema) -> AtomType:
        return self._atype

    def rename(self, mapping: Mapping[str, str]) -> "Expr":
        return self

    def __repr__(self) -> str:
        return repr(self.value)


_ARITH_FUNCS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class Arith(Expr):
    """A binary arithmetic expression over numeric operands."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITH_FUNCS:
            raise ExpressionError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, record: Record) -> object:
        left = self.left.eval(record)
        right = self.right.eval(record)
        if self.op == "/" and right == 0:
            raise ExpressionError(f"division by zero in {self!r}")
        return _ARITH_FUNCS[self.op](left, right)

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def infer_type(self, schema: RecordSchema) -> AtomType:
        return Arith.result_type(
            self.op, self.left.infer_type(schema), self.right.infer_type(schema)
        )

    @staticmethod
    def result_type(op: str, left: Optional[AtomType], right: AtomType) -> AtomType:
        """The typing rule: ``left op right`` over numeric operands.

        ``left`` is None for unary minus (``-right``, built as
        ``0 - right``).  True division gives FLOAT; otherwise INT widens
        to FLOAT.

        Raises:
            ExpressionError: on a non-numeric operand.
        """
        if left is None:
            if not right.is_numeric:
                raise ExpressionError(
                    f"unary {op!r} needs a numeric operand, got {right.name}"
                )
            return right
        if not (left.is_numeric and right.is_numeric):
            raise ExpressionError(
                f"arithmetic {op!r} needs numeric operands, "
                f"got {left.name} and {right.name}"
            )
        if op == "/":
            return AtomType.FLOAT
        return common_type(left, right)

    def rename(self, mapping: Mapping[str, str]) -> "Expr":
        return Arith(self.op, self.left.rename(mapping), self.right.rename(mapping))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


_CMP_FUNCS: dict[str, Callable[[Any, Any], Any]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Cmp(Expr):
    """A comparison predicate."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _CMP_FUNCS:
            raise ExpressionError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, record: Record) -> object:
        return _CMP_FUNCS[self.op](self.left.eval(record), self.right.eval(record))

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def infer_type(self, schema: RecordSchema) -> AtomType:
        return Cmp.result_type(
            self.op, self.left.infer_type(schema), self.right.infer_type(schema)
        )

    @staticmethod
    def result_type(op: str, left: AtomType, right: AtomType) -> AtomType:
        """The typing rule: same-typed or numeric operands, BOOL result.

        An ordering (``<``, ``<=``, ``>``, ``>=``) additionally rules
        out BOOL, which has no useful order.

        Raises:
            ExpressionError: on incomparable operand types.
        """
        if op not in ("==", "!=") and AtomType.BOOL in (left, right):
            raise ExpressionError(f"ordering comparison {op!r} on BOOL")
        if left is not right and not (left.is_numeric and right.is_numeric):
            raise ExpressionError(f"cannot compare {left.name} with {right.name}")
        return AtomType.BOOL

    def rename(self, mapping: Mapping[str, str]) -> "Expr":
        return Cmp(self.op, self.left.rename(mapping), self.right.rename(mapping))

    def selectivity(self, stats: Optional[StatsLookup] = None) -> float:
        estimate = self._histogram_selectivity(stats)
        if estimate is not None:
            return estimate
        return DEFAULT_SELECTIVITY[self.op]

    def _histogram_selectivity(self, stats: Optional[StatsLookup]) -> Optional[float]:
        """Histogram-based estimate for ``col <op> literal`` shapes."""
        if stats is None:
            return None
        col: Optional[Col] = None
        lit: Optional[Lit] = None
        op = self.op
        if isinstance(self.left, Col) and isinstance(self.right, Lit):
            col, lit = self.left, self.right
        elif isinstance(self.right, Col) and isinstance(self.left, Lit):
            col, lit = self.right, self.left
            op = CMP_SWAP[op]
        if col is None or lit is None:
            return None
        histogram = stats(col.name)
        if histogram is None:
            return None
        return float(cast(Any, histogram).selectivity(op, lit.value))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def boolean_operand(op: str, operand: AtomType) -> AtomType:
    """The typing rule of ``and``, ``or`` and ``not``: one BOOL operand.

    Returns the connective's (BOOL) result type.

    Raises:
        ExpressionError: on a non-BOOL operand.
    """
    if operand is not AtomType.BOOL:
        noun = "a boolean operand" if op == "not" else "boolean operands"
        raise ExpressionError(f"{op!r} needs {noun}, got {operand.name}")
    return AtomType.BOOL


class And(Expr):
    """Logical conjunction."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def eval(self, record: Record) -> object:
        return bool(self.left.eval(record)) and bool(self.right.eval(record))

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def infer_type(self, schema: RecordSchema) -> AtomType:
        boolean_operand("and", self.left.infer_type(schema))
        return boolean_operand("and", self.right.infer_type(schema))

    def rename(self, mapping: Mapping[str, str]) -> "Expr":
        return And(self.left.rename(mapping), self.right.rename(mapping))

    def selectivity(self, stats: Optional[StatsLookup] = None) -> float:
        return self.left.selectivity(stats) * self.right.selectivity(stats)

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


class Or(Expr):
    """Logical disjunction."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def eval(self, record: Record) -> object:
        return bool(self.left.eval(record)) or bool(self.right.eval(record))

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def infer_type(self, schema: RecordSchema) -> AtomType:
        boolean_operand("or", self.left.infer_type(schema))
        return boolean_operand("or", self.right.infer_type(schema))

    def rename(self, mapping: Mapping[str, str]) -> "Expr":
        return Or(self.left.rename(mapping), self.right.rename(mapping))

    def selectivity(self, stats: Optional[StatsLookup] = None) -> float:
        s1 = self.left.selectivity(stats)
        s2 = self.right.selectivity(stats)
        return s1 + s2 - s1 * s2

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


class Not(Expr):
    """Logical negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def eval(self, record: Record) -> object:
        return not bool(self.operand.eval(record))

    def columns(self) -> frozenset[str]:
        return self.operand.columns()

    def infer_type(self, schema: RecordSchema) -> AtomType:
        return boolean_operand("not", self.operand.infer_type(schema))

    def rename(self, mapping: Mapping[str, str]) -> "Expr":
        return Not(self.operand.rename(mapping))

    def selectivity(self, stats: Optional[StatsLookup] = None) -> float:
        return 1.0 - self.operand.selectivity(stats)

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


# -- compilation -----------------------------------------------------------
#
# The executor's hot loops pay a full tree walk per Expr.eval call.  The
# lowerer below turns any expression tree into one fused Python closure:
# either row-wise (over a record's values tuple) or column-wise (a single
# compiled loop over a batch's column lists).  Lowered code preserves the
# interpreter's semantics exactly: evaluation order, bool() coercion and
# short-circuiting in And/Or/Not, and the ExpressionError raised on
# division by zero.
#
# Generated source names its constants (``_k0``, ...) rather than
# inlining them, so predicates of one shape lower to one source text.
# Each distinct text is compiled once per process, in a bounded cache;
# every call runs the cached code in a fresh namespace that holds that
# call's own constants.

_CODE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _compile_source(source: str, mode: str) -> CodeType:
    """The code object of generated ``source`` (``mode`` as in ``compile``)."""
    return compile(source, "<kernel>", mode)


class _CannotLower(Exception):
    """An expression node the lowerer does not know (custom subclass)."""


def _checked_div(left: object, right: object, where: str) -> object:
    """Division with the interpreter's division-by-zero error."""
    if right == 0:
        raise ExpressionError(f"division by zero in {where}")
    return left / right  # type: ignore[operator]


class _Lowerer:
    """Lowers an expression tree to a Python source fragment.

    ``cell(index)`` supplies the source text that reads the value of
    schema attribute ``index`` for the row under evaluation; constants
    and helpers are passed through ``env`` rather than inlined so the
    generated source never depends on ``repr`` round-tripping.
    """

    def __init__(self, schema: RecordSchema, cell: Callable[[int], str]):
        self.schema = schema
        self.cell = cell
        self.env: dict[str, object] = {"_div": _checked_div}
        self.used_columns: set[int] = set()
        self._bindings = 0

    def bind(self, value: object) -> str:
        """Bind a constant into the environment, returning its name."""
        name = f"_k{self._bindings}"
        self._bindings += 1
        self.env[name] = value
        return name

    def lower(self, expr: Expr) -> str:
        """The source fragment computing ``expr`` for one row.

        Raises:
            _CannotLower: on expression classes the lowerer does not
                know; callers fall back to interpreted evaluation.
        """
        if type(expr) is Col:
            index = self.schema.index_of(expr.name)
            self.used_columns.add(index)
            return self.cell(index)
        if type(expr) is Lit:
            return self.bind(expr.value)
        if type(expr) is Arith:
            left = self.lower(expr.left)
            right = self.lower(expr.right)
            if expr.op == "/":
                return f"_div({left}, {right}, {self.bind(repr(expr))})"
            return f"({left} {expr.op} {right})"
        if type(expr) is Cmp:
            return f"({self.lower(expr.left)} {expr.op} {self.lower(expr.right)})"
        if type(expr) is And:
            return f"(bool({self.lower(expr.left)}) and bool({self.lower(expr.right)}))"
        if type(expr) is Or:
            return f"(bool({self.lower(expr.left)}) or bool({self.lower(expr.right)}))"
        if type(expr) is Not:
            return f"(not bool({self.lower(expr.operand)}))"
        raise _CannotLower(type(expr).__name__)


def compile_rowwise(
    expr: Expr,
    schema: RecordSchema,
    *,
    on_fallback: Optional[FallbackObserver] = None,
) -> Callable[[tuple[object, ...]], object]:
    """Compile ``expr`` to one fused closure over a record's values tuple.

    The returned function takes the ``values`` tuple of a record
    conforming to ``schema`` and returns the expression value — the
    row path's replacement for a per-record ``Expr.eval`` tree walk.
    Unknown expression subclasses fall back to interpreted evaluation;
    ``on_fallback`` (if given) is invoked once, at compile time, when
    that happens, so degraded codegen is observable.
    """
    lowerer = _Lowerer(schema, lambda index: f"_v[{index}]")
    try:
        fragment = lowerer.lower(expr)
    except _CannotLower:
        if on_fallback is not None:
            on_fallback(expr)
        return lambda values: expr.eval(Record.unchecked(schema, tuple(values)))
    compiled = eval(  # noqa: S307 - engine codegen
        _compile_source(f"lambda _v: {fragment}", "eval"), lowerer.env
    )
    return cast(Callable[[tuple[object, ...]], object], compiled)


def _compile_batch(
    expr: Expr, schema: RecordSchema
) -> Optional[Callable[[list[list[object]], list[bool]], list[object]]]:
    """Column-wise filter codegen; None when ``expr`` cannot be lowered."""
    lowerer = _Lowerer(schema, lambda index: f"_c{index}[_i]")
    try:
        fragment = lowerer.lower(expr)
    except _CannotLower:
        return None
    preamble = "".join(
        f"    _c{index} = _columns[{index}]\n" for index in sorted(lowerer.used_columns)
    )
    source = _FILTER_TEMPLATE.format(preamble=preamble, fragment=fragment)
    namespace = dict(lowerer.env)
    exec(_compile_source(source, "exec"), namespace)  # noqa: S102 - engine codegen
    return cast(
        Callable[[list[list[object]], list[bool]], list[object]],
        namespace["_compiled"],
    )


_FILTER_TEMPLATE = """\
def _compiled(_columns, _valid):
{preamble}\
    _out = [False] * len(_valid)
    for _i, _ok in enumerate(_valid):
        if _ok and {fragment}:
            _out[_i] = True
    return _out
"""


def compile_filter(
    expr: Expr,
    schema: RecordSchema,
    *,
    spec: "Optional[EffectSpec]" = None,
    on_fallback: Optional[FallbackObserver] = None,
    on_kernel_fallback: Optional[FallbackObserver] = None,
) -> Callable[[list[ColumnArg], Mask], Mask]:
    """Compile predicate ``expr`` to a batch validity-mask refiner.

    The returned function takes ``(columns, valid)`` and returns the
    new validity mask, in kind (packed
    :class:`~repro.model.bitmask.Bitmask` in → Bitmask out; legacy bool
    list in → bool list out): positions stay valid iff they were valid
    and the predicate is truthy there — the batch equivalent of a
    select step's per-record ``if not predicate.eval(record)`` test.
    A certified vectorization-safe ``spec`` licenses the whole-column
    numpy kernel (when the backend and dtypes allow); otherwise every
    batch runs the one guarded loop.  ``on_fallback`` observes the
    interpreted fallback, as in :func:`compile_rowwise`;
    ``on_kernel_fallback`` observes — once per filter — that no vector
    kernel could be built or, at the first such batch, that the built
    kernel declined a batch (non-vector buffers, int-magnitude guard);
    declined batches run the scalar path with identical answers.
    """
    vector = None
    if spec is not None and spec.vectorization_safe:
        from repro.algebra.kernels import lower_vector_filter

        vector = lower_vector_filter(expr, schema)
    if vector is None and on_kernel_fallback is not None:
        on_kernel_fallback(expr)
    compiled = cast(
        "Optional[Callable[[list[ColumnArg], list[bool]], list[bool]]]",
        _compile_batch(expr, schema),
    )
    scalar: Callable[[list[ColumnArg], list[bool]], list[bool]]
    if compiled is not None:
        scalar = compiled
    else:
        if on_fallback is not None:
            on_fallback(expr)
        rowwise = compile_rowwise(expr, schema)

        def interpreted(columns: list[ColumnArg], valid: list[bool]) -> list[bool]:
            out = [False] * len(valid)
            for i, ok in enumerate(valid):
                if ok and rowwise(tuple(column[i] for column in columns)):
                    out[i] = True
            return out

        scalar = interpreted

    def refine(columns: list[ColumnArg], valid: Mask) -> Mask:
        nonlocal on_kernel_fallback
        if isinstance(valid, Bitmask):
            if vector is not None:
                mask = vector(columns, valid)
                if mask is not None:
                    return mask
                if on_kernel_fallback is not None:
                    on_kernel_fallback(expr)
                    on_kernel_fallback = None
            return Bitmask.from_bools(scalar(columns, valid.tolist()))
        return scalar(columns, valid)

    return refine


def col(name: str) -> Col:
    """Shorthand constructor for a column reference."""
    return Col(name)


def lit(value: object) -> Lit:
    """Shorthand constructor for a literal."""
    return Lit(value)


def conjuncts(expr: Expr) -> list[Expr]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if isinstance(expr, And):
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(parts: list[Expr]) -> Expr:
    """Combine conjuncts back into a single predicate.

    Raises:
        ExpressionError: if ``parts`` is empty.
    """
    if not parts:
        raise ExpressionError("cannot conjoin zero predicates")
    combined = parts[0]
    for part in parts[1:]:
        combined = And(combined, part)
    return combined
