"""Front-end semantic analyzer for the sequence query language.

Runs on the output of :func:`repro.lang.parser.parse`, builds the
operator tree :func:`repro.lang.compile_query` wraps — this is the only
module that constructs algebra operators from AST nodes — and reports
every problem it meets as a *typed, source-located* diagnostic with a
stable ``SEM*`` rule code rather than raising on the first.  The
analyzer performs, in one bottom-up walk over the AST:

* **name resolution** — sequence names against the environment
  (SEM001) and column names against inferred record schemas (SEM002),
  both with did-you-mean suggestions;
* **schema and type inference** — by the algebra itself: every value
  expression node is typed by its class's one-level rule
  (``Arith.result_type``, ``Cmp.result_type``, ``boolean_operand``)
  and every operator's schema is its own ``op.schema``; a rejection
  becomes a diagnostic at the AST node's extent (SEM003, SEM014);
* **signature checking** — operator existence, arity, and argument
  shapes per the language's operator signatures (SEM004--SEM007);
* **span inference** — the compile-time mirror of the optimizer's
  Step 2.a bottom-up span propagation, reusing each operator's
  ``infer_span``; spans power the always-null lints (SEM010, SEM011);
* **scope/sequentiality inference** — Proposition 2.1 scope
  composition over the leaves, exposing whether the query admits pure
  stream evaluation (Theorem 3.1);
* **predicate analysis** — column-free conjuncts folded by
  ``Expr.eval``, and per-column feasibility of ``col op literal``
  conjuncts (SEM013);
* **dead-column analysis** — a top-down used-columns pass flagging
  projected columns no enclosing operator consumes (SEM012).

Diagnostics are :class:`~repro.analysis.SourceDiagnostic` instances
(line:col plus a caret excerpt) collected in a
:class:`~repro.analysis.VerificationReport`, so ``repro check`` shares
its rendering and JSON emitter with ``repro lint``/``verify-plan``.

The analyzer builds the *real* operator tree alongside the walk (with
poison propagation: a sub-expression that failed analysis yields
``None`` and downstream checks degrade gracefully instead of
cascading).  When analysis succeeds, :func:`repro.lang.compile_query`
wraps the tree in a :class:`~repro.algebra.graph.Query`.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Optional, Union

from repro.analysis.diagnostics import (
    Severity,
    SourceDiagnostic,
    VerificationReport,
)
from repro.catalog.catalog import Catalog
from repro.errors import (
    CatalogError,
    ExpressionError,
    QueryError,
    SchemaError,
    SemanticError,
)
from repro.model.record import Record
from repro.model.schema import RecordSchema
from repro.model.sequence import Sequence
from repro.model.span import Span
from repro.model.types import AtomType
from repro.algebra.aggregate import (
    AGGREGATE_FUNCS,
    CumulativeAggregate,
    GlobalAggregate,
    WindowAggregate,
    output_type,
)
from repro.algebra.compose import Compose
from repro.algebra.expressions import (
    CMP_SWAP,
    And,
    Arith,
    Cmp,
    Col,
    Expr,
    Lit,
    Not,
    Or,
    boolean_operand,
    conjuncts,
)
from repro.algebra.leaves import SequenceLeaf
from repro.algebra.node import Operator
from repro.algebra.offsets import PositionalOffset, ValueOffset
from repro.algebra.project import Project
from repro.algebra.scope import ScopeSpec
from repro.algebra.select import Select
from repro.lang.ast_nodes import (
    Binary,
    Call,
    ColumnRef,
    Literal,
    SequenceRef,
    Unary,
    node_pos,
)
from repro.lang.parser import parse
from repro.lang.source import Pos, caret_excerpt

Environment = Union[Mapping[str, Sequence], Catalog]

__all__ = [
    "SEM_RULES",
    "SemRule",
    "AnalysisResult",
    "analyze",
    "analyze_ast",
]


# ---------------------------------------------------------------------------
# Rule registry


@dataclass(frozen=True)
class SemRule:
    """One semantic-analysis rule: its stable code, name and metadata."""

    code: str
    name: str
    severity: Severity
    citation: str
    summary: str


def _rule(code: str, name: str, severity: Severity, citation: str, summary: str):
    return code, SemRule(code, name, severity, citation, summary)


#: All analyzer rules, keyed by stable code.  ERROR-severity rules make
#: :func:`repro.lang.compile_query` reject the query with a
#: :class:`~repro.errors.SemanticError`; WARNING rules are collected on
#: ``Query.warnings``.
SEM_RULES: dict[str, SemRule] = dict(
    [
        _rule(
            "SEM001",
            "unknown-sequence",
            Severity.ERROR,
            "Sec 2.2",
            "A name in sequence position is not registered in the environment.",
        ),
        _rule(
            "SEM002",
            "unknown-column",
            Severity.ERROR,
            "Sec 2",
            "A column reference is not in the inferred input schema.",
        ),
        _rule(
            "SEM003",
            "type-mismatch",
            Severity.ERROR,
            "Sec 2",
            "An expression or operator argument has the wrong atomic type.",
        ),
        _rule(
            "SEM004",
            "bad-signature",
            Severity.ERROR,
            "Sec 2.1",
            "Wrong number or shape of arguments for an operator.",
        ),
        _rule(
            "SEM005",
            "unknown-operator",
            Severity.ERROR,
            "Sec 2.1",
            "A call names no known sequence operator.",
        ),
        _rule(
            "SEM006",
            "unknown-aggregate",
            Severity.ERROR,
            "Sec 2.1",
            "An aggregate function name is not supported.",
        ),
        _rule(
            "SEM007",
            "operator-in-predicate",
            Severity.ERROR,
            "Sec 2.2",
            "A sequence operator appears inside a value expression.",
        ),
        _rule(
            "SEM008",
            "useless-alias",
            Severity.WARNING,
            "Sec 2.1",
            "An 'as' alias in a position where it has no effect.",
        ),
        _rule(
            "SEM010",
            "window-wider-than-span",
            Severity.WARNING,
            "Step 2.a",
            "A window aggregate wider than its input's bounded span.",
        ),
        _rule(
            "SEM011",
            "always-null",
            Severity.ERROR,
            "Step 2.a",
            "Span inference proves the operator can never produce a value.",
        ),
        _rule(
            "SEM012",
            "dead-column",
            Severity.WARNING,
            "Sec 3.1",
            "A projected column no enclosing operator ever uses.",
        ),
        _rule(
            "SEM013",
            "degenerate-predicate",
            Severity.ERROR,
            "Sec 2.1",
            "A predicate that is constantly true, constantly false, or "
            "self-contradictory.",
        ),
        _rule(
            "SEM014",
            "duplicate-output-name",
            Severity.ERROR,
            "Sec 2",
            "Two output attributes would share a name.",
        ),
    ]
)


# Operator arities: the language's signatures (first argument is always
# a sequence expression).
_ARITIES: dict[str, tuple[int, int]] = {
    "select": (2, 2),
    "project": (2, 64),
    "shift": (2, 2),
    "previous": (1, 1),
    "next": (1, 1),
    "voffset": (2, 2),
    "window": (4, 5),
    "cumulative": (3, 4),
    "global_agg": (3, 4),
    "compose": (2, 3),
}

_SEQ_OPERATORS = frozenset(_ARITIES)

#: Shared empty schema for typing literals (their type is schema-free),
#: and the record a column-free expression is evaluated against.
_EMPTY_SCHEMA = RecordSchema(())
_EMPTY_RECORD = Record(_EMPTY_SCHEMA, ())


# ---------------------------------------------------------------------------
# Results


@dataclass
class AnalysisResult:
    """Everything the analyzer learned about one query text.

    Attributes:
        source: the analyzed query text.
        ast: the parsed AST root.
        report: all diagnostics, as a
            :class:`~repro.analysis.VerificationReport` with
            ``subject="source"``.
        root: the compiled operator tree — only when analysis produced
            no error diagnostics, else None.
        schema: the inferred output schema of the query (None on error).
        span: the inferred output span of the root (Step 2.a mirror).
        leaf_scopes: the query's composed scope on each leaf
            (Proposition 2.1), keyed by ``id()`` of the leaf.  Computed
            on first access so that plain compiles never pay for it.
        sequential: whether every composed leaf scope is sequential —
            i.e. the query admits pure stream evaluation (Theorem 3.1).
            None when the tree could not be built.  Lazy, like
            ``leaf_scopes``.
    """

    source: str
    ast: object
    report: VerificationReport
    root: Optional[Operator] = None
    schema: Optional[RecordSchema] = None
    span: Optional[Span] = None
    _leaf_scopes: Optional[dict[int, ScopeSpec]] = field(
        default=None, repr=False
    )

    @property
    def leaf_scopes(self) -> dict[int, ScopeSpec]:
        """Composed scope of the query on each leaf (Proposition 2.1).

        Keyed by ``id()`` of the leaf operator; derived lazily on first
        access and cached.  Empty when analysis failed before the
        operator tree was built.
        """
        if self.root is None:
            return {}
        if self._leaf_scopes is None:
            self._leaf_scopes = self.root.query_scope_on_leaves()
        return self._leaf_scopes

    @property
    def sequential(self) -> Optional[bool]:
        """Whether every composed leaf scope is sequential (Theorem 3.1).

        A fully sequential query admits pure stream evaluation.  None
        when analysis failed before the operator tree was built.
        """
        if self.root is None:
            return None
        return all(
            scope.is_sequential for scope in self.leaf_scopes.values()
        )

    @property
    def ok(self) -> bool:
        """Whether analysis produced no error-severity diagnostics."""
        return self.report.ok

    @property
    def diagnostics(self):
        """All diagnostics, in emission order."""
        return self.report.diagnostics

    @property
    def errors(self):
        """Error-severity diagnostics."""
        return self.report.errors

    @property
    def warnings(self):
        """Warning-severity diagnostics."""
        return self.report.warnings

    def raise_if_errors(self) -> "AnalysisResult":
        """Raise :class:`~repro.errors.SemanticError` on error findings.

        The exception message aggregates *all* error diagnostics (with
        caret excerpts), not just the first.
        """
        errors = self.errors
        if errors:
            noun = "error" if len(errors) == 1 else "errors"
            body = "\n".join(d.render() for d in errors)
            raise SemanticError(
                f"semantic analysis found {len(errors)} {noun}:\n{body}",
                diagnostics=errors,
            )
        return self


# ---------------------------------------------------------------------------
# Helpers


def _suggest(name: str, candidates) -> str:
    """A ``; did you mean ...?`` suffix, or empty."""
    matches = difflib.get_close_matches(name, list(candidates), n=1)
    if matches:
        return f"; did you mean {matches[0]!r}?"
    return ""


def _extent(node) -> Optional[Pos]:
    """The smallest single-line extent covering a whole AST subtree."""
    best: Optional[Pos] = None

    def visit(n) -> None:
        nonlocal best
        pos = node_pos(n)
        if pos is not None:
            best = pos if best is None else best.cover(pos)
        if isinstance(n, Binary):
            visit(n.left)
            visit(n.right)
        elif isinstance(n, Unary):
            visit(n.operand)
        elif isinstance(n, Call):
            for arg in n.args:
                visit(arg)

    visit(node)
    return best


class _Interval:
    """Feasibility of one column under ``col op literal`` conjuncts."""

    __slots__ = ("lo", "lo_open", "hi", "hi_open", "eq", "ne")

    def __init__(self) -> None:
        self.lo: Optional[float] = None
        self.lo_open = False
        self.hi: Optional[float] = None
        self.hi_open = False
        self.eq: Optional[object] = None
        self.ne: set = set()
        # eq is a single required value; conflicting `==` conjuncts are
        # recorded by making the interval empty via lo/hi.

    def add(self, op: str, value) -> None:
        if op in (">", ">="):
            open_ = op == ">"
            if self.lo is None or value > self.lo or (value == self.lo and open_):
                self.lo, self.lo_open = value, open_
        elif op in ("<", "<="):
            open_ = op == "<"
            if self.hi is None or value < self.hi or (value == self.hi and open_):
                self.hi, self.hi_open = value, open_
        elif op == "==":
            if self.eq is not None and self.eq != value:
                # two different required values: empty interval
                self.lo, self.lo_open = 1, False
                self.hi, self.hi_open = 0, False
            self.eq = value
        elif op == "!=":
            self.ne.add(value)

    def feasible(self) -> bool:
        if self.eq is not None:
            if self.eq in self.ne:
                return False
            if self.lo is not None and (
                self.eq < self.lo or (self.eq == self.lo and self.lo_open)
            ):
                return False
            if self.hi is not None and (
                self.eq > self.hi or (self.eq == self.hi and self.hi_open)
            ):
                return False
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                return False
            if self.lo == self.hi and (self.lo_open or self.hi_open):
                return False
        return True


@dataclass(slots=True)
class _Sub:
    """The analyzer's annotation of one sequence sub-expression.

    Any field may be None ("poison"): analysis of that facet failed and
    downstream checks that need it are skipped instead of cascading.
    """

    op: Optional[Operator] = None
    schema: Optional[RecordSchema] = None
    span: Optional[Span] = None

    @classmethod
    def poison(cls) -> "_Sub":
        return cls()


# ---------------------------------------------------------------------------
# The analyzer


class _Analyzer:
    """Single-use semantic analyzer over one parsed query."""

    def __init__(self, source: str, env: Environment, ast) -> None:
        self._source = source
        self._env = env
        self._is_catalog = isinstance(env, Catalog)
        self._ast = ast
        self._report = VerificationReport(
            subject="source", rules_run=list(SEM_RULES)
        )
        self._path: list[str] = []
        # Per-AST-node annotations for the top-down dead-column pass.
        self._schemas: dict[int, RecordSchema] = {}
        self._predicates: dict[int, Expr] = {}
        # SEM012 can only fire on a projection below the root; skip the
        # whole top-down pass when there is none.
        self._has_inner_project = False

    # -- diagnostics -------------------------------------------------------

    def _emit(
        self,
        code: str,
        message: str,
        pos: Optional[Pos],
        severity: Optional[Severity] = None,
    ) -> None:
        rule = SEM_RULES[code]
        path = "/".join(["root", *self._path])
        if pos is None:
            self._report.add(
                SourceDiagnostic(
                    rule=code,
                    severity=severity or rule.severity,
                    path=path,
                    message=message,
                    citation=rule.citation,
                )
            )
            return
        self._report.add(
            SourceDiagnostic(
                rule=code,
                severity=severity or rule.severity,
                path=path,
                message=message,
                citation=rule.citation,
                line=pos.line,
                column=pos.column,
                end_column=pos.end_column,
                excerpt=caret_excerpt(self._source, pos),
            )
        )

    # -- environment -------------------------------------------------------

    def _env_names(self) -> list[str]:
        if self._is_catalog:
            return list(self._env.names())
        return sorted(self._env.keys())

    def _resolve(self, name: str) -> Optional[Sequence]:
        if self._is_catalog:
            try:
                return self._env.get(name).sequence
            except CatalogError:
                return None
        try:
            return self._env[name]
        except KeyError:
            return None

    # -- entry -------------------------------------------------------------

    def run(self) -> AnalysisResult:
        sub = self._seq(self._ast)
        self._dead_columns()

        result = AnalysisResult(
            source=self._source,
            ast=self._ast,
            report=self._report,
            span=sub.span,
        )
        if self._report.ok and sub.op is not None:
            result.root = sub.op
            result.schema = sub.schema
        return result

    # -- sequence expressions ----------------------------------------------

    def _seq(self, node) -> _Sub:
        """Analyze a sequence expression; annotate and return its facets."""
        cls = node.__class__
        if cls is ColumnRef or cls is SequenceRef:
            return self._leaf(node)
        if cls is not Call:
            self._emit(
                "SEM004",
                f"expected a sequence expression, got {node!r}",
                _extent(node),
            )
            return _Sub.poison()
        return self._call(node)

    def _leaf(self, node) -> _Sub:
        name = node.name
        sequence = self._resolve(name)
        if sequence is None:
            names = self._env_names()
            self._emit(
                "SEM001",
                f"unknown sequence {name!r}; registered: {names}"
                + _suggest(name, names),
                node_pos(node),
            )
            return _Sub.poison()
        sub = _Sub(SequenceLeaf(sequence, name), sequence.schema, sequence.span)
        self._annotate(node, sub)
        return sub

    def _annotate(self, node, sub: _Sub) -> None:
        if sub.schema is not None:
            self._schemas[id(node)] = sub.schema

    def _call(self, node: Call) -> _Sub:
        func = node.func
        if func not in _SEQ_OPERATORS:
            self._emit(
                "SEM005",
                f"unknown operator {func!r}" + _suggest(func, _SEQ_OPERATORS),
                node_pos(node),
            )
            # Still analyze plausible sequence arguments for more findings.
            for arg in node.args:
                if isinstance(arg, Call) and arg.func in _SEQ_OPERATORS:
                    self._seq(arg)
            return _Sub.poison()

        minimum, maximum = _ARITIES[func]
        if not minimum <= len(node.args) <= maximum:
            self._emit(
                "SEM004",
                f"{func} takes {minimum}..{maximum} arguments, "
                f"got {len(node.args)}",
                node_pos(node),
            )
            return _Sub.poison()

        self._path.append(func)
        try:
            if func == "compose":
                sub = self._compose(node)
            else:
                self._check_aliases(node)
                sub = self._single_input(node)
        except (QueryError, SchemaError, ExpressionError) as exc:
            # Defensive net: construction surprises become diagnostics,
            # never analyzer crashes.
            self._emit("SEM003", str(exc), node_pos(node))
            sub = _Sub.poison()
        finally:
            self._path.pop()
        self._annotate(node, sub)
        return sub

    def _check_aliases(self, node: Call) -> None:
        """SEM008: 'as' aliases outside compose's sequence slots."""
        for index, alias in enumerate(node.aliases):
            if alias is None:
                continue
            pos = None
            if index < len(node.alias_positions):
                pos = node.alias_positions[index]
            self._emit(
                "SEM008",
                f"alias {alias!r} has no effect: only compose's sequence "
                "arguments take 'as' prefixes",
                pos or node_pos(node),
            )

    # -- per-operator analysis ---------------------------------------------

    def _single_input(self, node: Call) -> _Sub:
        func = node.func
        child = self._seq(node.args[0])

        if func == "select":
            return self._select(node, child)
        if func == "project":
            return self._project(node, child)
        if func == "shift":
            offset = self._expect_int(node.args[1], "an offset")
            if child.op is None or offset is None:
                return _Sub.poison()
            return self._finish(PositionalOffset(child.op, offset), child)
        if func in ("previous", "next", "voffset"):
            return self._value_offset(node, child)
        return self._aggregate(node, child)

    def _select(self, node: Call, child: _Sub) -> _Sub:
        expr = self._predicate(node.args[1], child.schema, "selection")
        if child.op is None or expr is None:
            return _Sub.poison()
        self._predicates[id(node)] = expr
        return self._finish(Select(child.op, expr), child)

    def _predicate(self, pred_ast, schema, context: str) -> Optional[Expr]:
        """A select/compose predicate, typed and linted; None unless BOOL."""
        expr, atype = self._value(pred_ast, schema)
        if atype is not None and atype is not AtomType.BOOL:
            self._emit(
                "SEM003",
                f"{context} predicate must be boolean, got {atype.name}",
                _extent(pred_ast),
            )
            return None
        if expr is not None:
            self._degenerate_predicate(pred_ast, expr, context)
        return expr if atype is AtomType.BOOL else None

    def _project(self, node: Call, child: _Sub) -> _Sub:
        if node is not self._ast:
            self._has_inner_project = True
        names: list[str] = []
        seen: set[str] = set()
        ok = True
        for arg in node.args[1:]:
            name = self._expect_name(arg, "an attribute name")
            if name is None:
                ok = False
                continue
            if name in seen:
                self._emit(
                    "SEM014",
                    f"duplicate output column {name!r} in project",
                    node_pos(arg),
                )
                ok = False
                continue
            seen.add(name)
            if child.schema is not None and name not in child.schema:
                schema_names = list(child.schema.names)
                self._emit(
                    "SEM002",
                    f"unknown column {name!r}; input schema has {schema_names}"
                    + _suggest(name, schema_names),
                    node_pos(arg),
                )
                ok = False
                continue
            names.append(name)
        if not ok or child.op is None or child.schema is None:
            return _Sub.poison()
        return self._finish(Project(child.op, names), child)

    def _value_offset(self, node: Call, child: _Sub) -> _Sub:
        func = node.func
        if func == "voffset":
            offset = self._expect_int(node.args[1], "an offset")
            if offset == 0:
                self._emit(
                    "SEM004",
                    "voffset needs a non-zero integer offset",
                    _extent(node.args[1]) or node_pos(node),
                )
                offset = None
        else:
            offset = -1 if func == "previous" else 1
        if offset is None or child.op is None:
            return _Sub.poison()
        op = ValueOffset(child.op, offset)
        # SEM011: reaching over more non-null records than the bounded
        # input span can ever hold.
        if child.span is not None and not child.span.is_empty:
            length = child.span.length()
            if length is not None and op.reach > length:
                direction = "back" if op.looks_back else "ahead"
                self._emit(
                    "SEM011",
                    f"{func} can never produce a value: it reaches "
                    f"{op.reach} non-null record(s) {direction} but the "
                    f"input span holds only {length} position(s)",
                    node_pos(node),
                )
                return _Sub.poison()
        return self._finish(op, child)

    def _aggregate(self, node: Call, child: _Sub) -> _Sub:
        func = node.func
        agg = self._expect_name(node.args[1], "an aggregate function")
        if agg is not None and agg not in AGGREGATE_FUNCS:
            self._emit(
                "SEM006",
                f"unknown aggregate {agg!r}; expected one of "
                f"{sorted(AGGREGATE_FUNCS)}"
                + _suggest(agg, AGGREGATE_FUNCS),
                node_pos(node.args[1]),
            )
            agg = None
        attr = self._expect_name(node.args[2], "an attribute name")
        if attr is not None and child.schema is not None:
            if attr not in child.schema:
                schema_names = list(child.schema.names)
                self._emit(
                    "SEM002",
                    f"unknown column {attr!r}; input schema has {schema_names}"
                    + _suggest(attr, schema_names),
                    node_pos(node.args[2]),
                )
                attr = None
            elif agg is not None:
                try:
                    output_type(agg, child.schema.type_of(attr))
                except QueryError as exc:
                    self._emit("SEM003", str(exc), node_pos(node.args[2]))
                    attr = None

        width: Optional[int] = None
        name_index = 3
        if func == "window":
            width = self._expect_int(node.args[3], "a window width")
            if width is not None and width < 1:
                self._emit(
                    "SEM004",
                    f"window width must be a positive integer, got {width}",
                    _extent(node.args[3]),
                )
                width = None
            name_index = 4
        out_name: Optional[str] = None
        if len(node.args) > name_index:
            out_name = self._expect_name(node.args[name_index], "an output name")
            if out_name is None:
                return _Sub.poison()

        if agg is None or attr is None or child.op is None:
            return _Sub.poison()
        if func == "window":
            if width is None:
                return _Sub.poison()
            op: Operator = WindowAggregate(child.op, agg, attr, width, out_name)
            if child.span is not None and not child.span.is_empty:
                length = child.span.length()
                if length is not None and width > length:
                    self._emit(
                        "SEM010",
                        f"window width {width} exceeds the input span length "
                        f"{length}; every window is truncated",
                        node_pos(node),
                    )
        elif func == "cumulative":
            op = CumulativeAggregate(child.op, agg, attr, out_name)
        else:
            op = GlobalAggregate(child.op, agg, attr, out_name)
        return self._finish(op, child)

    def _compose(self, node: Call) -> _Sub:
        # Aliases on the two sequence slots are prefixes; one on the
        # predicate slot is useless.
        if len(node.aliases) > 2 and node.aliases[2] is not None:
            pos = None
            if len(node.alias_positions) > 2:
                pos = node.alias_positions[2]
            self._emit(
                "SEM008",
                f"alias {node.aliases[2]!r} on the compose predicate has no "
                "effect; only the two sequence arguments take prefixes",
                pos or node_pos(node),
            )

        left = self._seq(node.args[0])
        right = self._seq(node.args[1])
        prefixes = (
            node.aliases[0] if len(node.aliases) > 0 else None,
            node.aliases[1] if len(node.aliases) > 1 else None,
        )

        # The predicate-less compose derives the combined schema once;
        # the typed predicate is attached to it below.
        op: Optional[Compose] = None
        combined: Optional[RecordSchema] = None
        if left.op is not None and right.op is not None:
            op = Compose(left.op, right.op, None, prefixes)
            try:
                combined = op.schema
            except QueryError as exc:
                self._emit("SEM014", str(exc), node_pos(node))
                op = None

        if len(node.args) == 3:
            expr = self._predicate(node.args[2], combined, "compose")
            if expr is None or op is None:
                return _Sub.poison()
            op = op.with_predicate(expr)
            self._predicates[id(node)] = expr
        if op is None:
            return _Sub.poison()

        span: Optional[Span] = None
        if left.span is not None and right.span is not None:
            span = op.infer_span([left.span, right.span])
            if (
                span.is_empty
                and not left.span.is_empty
                and not right.span.is_empty
            ):
                self._emit(
                    "SEM011",
                    f"compose output span is empty: input spans "
                    f"{left.span!r} and {right.span!r} never overlap",
                    node_pos(node),
                )
                return _Sub.poison()
        return _Sub(op, combined, span)

    def _finish(self, op: Operator, child: _Sub) -> _Sub:
        """Derive the schema (by the algebra) and span of a single-input op."""
        span = op.infer_span([child.span]) if child.span is not None else None
        return _Sub(op, op.schema, span)

    # -- argument shapes ---------------------------------------------------

    def _expect_name(self, node, what: str) -> Optional[str]:
        if isinstance(node, (ColumnRef, SequenceRef)):
            return node.name
        self._emit(
            "SEM004",
            f"expected {what}, got {node!r}",
            _extent(node),
        )
        return None

    def _expect_int(self, node, what: str) -> Optional[int]:
        if isinstance(node, Literal) and isinstance(node.value, int) and not isinstance(
            node.value, bool
        ):
            return node.value
        if (
            isinstance(node, Unary)
            and node.op == "-"
            and isinstance(node.operand, Literal)
            and isinstance(node.operand.value, int)
            and not isinstance(node.operand.value, bool)
        ):
            return -node.operand.value
        self._emit(
            "SEM004",
            f"expected {what} (an integer), got {node!r}",
            _extent(node),
        )
        return None

    # -- value expressions -------------------------------------------------

    def _value(self, node, schema: Optional[RecordSchema]):
        """Type a value expression bottom-up against ``schema``.

        Returns ``(expr, atype)``; either may be None when that facet
        could not be derived (the diagnostic has already been emitted).
        """
        cls = node.__class__
        if cls is ColumnRef or cls is SequenceRef:
            expr = Col(node.name)
            if schema is None:
                return expr, None
            if node.name not in schema:
                schema_names = list(schema.names)
                self._emit(
                    "SEM002",
                    f"unknown column {node.name!r}; input schema has "
                    f"{schema_names}" + _suggest(node.name, schema_names),
                    node_pos(node),
                )
                return expr, None
            return expr, schema.type_of(node.name)
        if cls is Literal:
            expr = Lit(node.value)
            return expr, expr.infer_type(_EMPTY_SCHEMA)
        if cls is Unary:
            operand, otype = self._value(node.operand, schema)
            if node.op == "not":
                expr = Not(operand) if operand is not None else None
                return self._typed(node, expr, partial(boolean_operand, "not"), otype)
            expr = Arith("-", Lit(0), operand) if operand is not None else None
            return self._typed(node, expr, partial(Arith.result_type, "-", None), otype)
        if cls is Binary:
            return self._binary(node, schema)
        if cls is Call:
            self._emit(
                "SEM007",
                f"operator {node.func!r} cannot appear inside a predicate",
                node_pos(node),
            )
            return None, None
        self._emit(
            "SEM004",
            f"cannot analyze value expression {node!r}",
            _extent(node),
        )
        return None, None

    def _binary(self, node: Binary, schema: Optional[RecordSchema]):
        left, ltype = self._value(node.left, schema)
        right, rtype = self._value(node.right, schema)
        op = node.op
        built = left is not None and right is not None
        if op in ("and", "or"):
            # Each operand is typed, and reported, at its own extent.
            rule = partial(boolean_operand, op)
            for side, stype in ((node.left, ltype), (node.right, rtype)):
                if stype is not None and self._typed(side, side, rule, stype)[1] is None:
                    return None, None
            expr = (And if op == "and" else Or)(left, right) if built else None
            atype = AtomType.BOOL if ltype is not None and rtype is not None else None
            return expr, atype
        kind = Cmp if op in CMP_SWAP else Arith
        expr = kind(op, left, right) if built else None
        return self._typed(node, expr, partial(kind.result_type, op), ltype, rtype)

    def _typed(self, node, expr, rule, *types):
        """``(expr, rule(*types))``: one node typed by the algebra's rule.

        An unknown operand type (None) leaves the type unknown; a
        rejection is SEM003 at ``node``'s extent and poisons both.
        """
        if None in types:
            return expr, None
        try:
            return expr, rule(*types)
        except ExpressionError as exc:
            self._emit("SEM003", str(exc), _extent(node))
            return None, None

    # -- predicate lints ---------------------------------------------------

    def _degenerate_predicate(self, pred_ast, expr: Expr, context: str) -> None:
        """SEM013: constant or self-contradictory predicates.

        A column-free predicate, or else each column-free conjunct, is
        folded by the algebra's own ``Expr.eval``; one that raises (say,
        on division by zero) is left to run time.
        """
        columns = expr.columns()
        if columns and expr.__class__ is not And:
            return  # one conjunct over a column: never constant
        parts = conjuncts(expr) if columns else [expr]
        for part in parts:
            if part.columns():
                continue
            try:
                value = part.eval(_EMPTY_RECORD)
            except ExpressionError:
                continue
            if not value:
                self._emit(
                    "SEM013",
                    f"{context} predicate is constantly false; the result "
                    "is always empty",
                    _extent(pred_ast),
                )
                return
            what = f"{context} predicate" if part is expr else f"{context} conjunct {part!r}"
            self._emit(
                "SEM013",
                f"{what} is constantly true; it never filters anything",
                _extent(pred_ast),
                severity=Severity.WARNING,
            )

        # Feasibility of `col op literal` conjuncts, per column.
        intervals: dict[str, _Interval] = {}
        for part in parts:
            if not isinstance(part, Cmp):
                continue
            col, lit, op = None, None, part.op
            if isinstance(part.left, Col) and isinstance(part.right, Lit):
                col, lit = part.left, part.right
            elif isinstance(part.right, Col) and isinstance(part.left, Lit):
                col, lit, op = part.right, part.left, CMP_SWAP[op]
            if col is None:
                continue
            value = lit.value
            numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
            if numeric or op in ("==", "!="):
                intervals.setdefault(col.name, _Interval()).add(op, value)
        for name, interval in sorted(intervals.items()):
            if not interval.feasible():
                self._emit(
                    "SEM013",
                    f"contradictory {context} predicate: no value of "
                    f"{name!r} satisfies all conjuncts",
                    _extent(pred_ast),
                )
                return

    # -- dead-column analysis ----------------------------------------------

    def _dead_columns(self) -> None:
        """SEM012: top-down used-columns pass (only when schemas resolved)."""
        if not self._has_inner_project or self._report.errors:
            return
        root_schema = self._schemas.get(id(self._ast))
        if root_schema is None:
            return
        self._mark_used(self._ast, set(root_schema.names), is_root=True)

    def _mark_used(self, node, used: set, is_root: bool = False) -> None:
        if not isinstance(node, Call):
            return
        func = node.func
        if func == "select":
            pred = self._predicates.get(id(node))
            pred_cols = set(pred.columns()) if pred is not None else set()
            self._mark_used(node.args[0], used | pred_cols)
            return
        if func == "project":
            kept: list = []
            for arg in node.args[1:]:
                name = getattr(arg, "name", None)
                if name is None:
                    continue
                kept.append(name)
                if not is_root and name not in used:
                    self._emit(
                        "SEM012",
                        f"projected column {name!r} is never used by any "
                        "enclosing operator",
                        node_pos(arg),
                    )
            self._mark_used(node.args[0], set(kept) & used if not is_root else set(kept))
            return
        if func in ("window", "cumulative", "global_agg"):
            attr = getattr(node.args[2], "name", None)
            self._mark_used(node.args[0], {attr} if attr else set())
            return
        if func == "compose":
            pred = self._predicates.get(id(node))
            total = set(used) | (set(pred.columns()) if pred is not None else set())
            for index in (0, 1):
                side = node.args[index]
                raw = self._schemas.get(id(side))
                if raw is None:
                    continue
                prefix = node.aliases[index] if index < len(node.aliases) else None
                if prefix:
                    head = f"{prefix}_"
                    side_used = {
                        name[len(head):]
                        for name in total
                        if name.startswith(head) and name[len(head):] in raw
                    }
                else:
                    side_used = {name for name in total if name in raw}
                self._mark_used(side, side_used)
            return
        # shift / previous / next / voffset: schema passthrough.
        if node.args:
            self._mark_used(node.args[0], used)


# ---------------------------------------------------------------------------
# Entry points


def analyze_ast(ast, env: Environment, source: str = "") -> AnalysisResult:
    """Analyze an already-parsed query AST against ``env``."""
    return _Analyzer(source, env, ast).run()


def analyze(source: str, env: Environment) -> AnalysisResult:
    """Parse and semantically analyze a query text against ``env``.

    Raises:
        ParseError: on lexical/syntax errors (semantic problems are
            *reported*, not raised — inspect ``result.report``).
    """
    return analyze_ast(parse(source), env, source)
