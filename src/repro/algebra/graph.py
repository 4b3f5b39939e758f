"""Sequence queries: validated trees of operators (paper Section 2.2).

A :class:`Query` wraps the root operator of a tree whose leaves are
base or constant sequences.  It provides validation (tree-ness and type
checking), span inference, and evaluation entry points that defer to
the naive reference evaluator or the optimizing engine.  Hand-built and
text-compiled queries alike go through the one constructor, and so
through :meth:`Query.validate`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import QueryError
from repro.model.base import BaseSequence
from repro.model.schema import RecordSchema
from repro.model.span import Span
from repro.algebra.leaves import ConstantLeaf, SequenceLeaf
from repro.algebra.node import Operator
from repro.algebra.scope import ScopeSpec


class Query:
    """A declarative sequence query: a validated operator tree."""

    def __init__(self, root: Operator):
        self.root = root
        #: Front-end analysis report (a
        #: :class:`repro.analysis.VerificationReport`) attached by
        #: :func:`repro.lang.compile_query`; None for programmatically
        #: built queries that never went through the analyzer.
        self.analysis = None
        #: Full front-end annotations (a
        #: :class:`repro.lang.AnalysisResult`): inferred spans and leaf
        #: scopes the span/scope accessors consume instead of
        #: re-deriving.  None without the analyzer.
        self.annotations = None
        self.validate()

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check tree-ness (no shared operators) and type-correctness.

        Raises:
            QueryError: if a node is used as input to more than one
                operator (Section 2.2 restricts queries to trees; DAGs
                are the Section 5 extension) or the tree fails to type
                check.
        """
        seen: set[int] = set()
        for node in self.root.walk():
            if id(node) in seen:
                raise QueryError(
                    f"operator {node.describe()!r} feeds more than one "
                    "operator; query graphs must be trees "
                    "(see repro.extensions.dag for DAG support)"
                )
            seen.add(id(node))
        self.root.type_check()

    # -- structure -------------------------------------------------------------

    @property
    def schema(self) -> RecordSchema:
        """The output schema of the query."""
        return self.root.schema

    def operators(self) -> Iterator[Operator]:
        """All operators, pre-order."""
        return self.root.walk()

    def leaves(self) -> list[Operator]:
        """All leaf nodes (base/constant sequences), left to right."""
        return [node for node in self.root.walk() if node.is_leaf]

    def base_leaves(self) -> list[SequenceLeaf]:
        """Only the base-sequence leaves."""
        return [node for node in self.root.walk() if isinstance(node, SequenceLeaf)]

    @property
    def warnings(self) -> list:
        """Warning-severity diagnostics collected by the front-end analyzer."""
        if self.analysis is None:
            return []
        return self.analysis.warnings

    # -- spans --------------------------------------------------------------------

    def leaf_scopes(self) -> dict[int, "ScopeSpec"]:
        """The composed scope of the whole query on each leaf (Prop 2.1).

        Keys are ``id()`` of the leaf nodes; a query whose composed
        scopes are all sequential admits pure stream evaluation
        (Theorem 3.1).
        """
        annotations = self.annotations
        if annotations is not None and annotations.root is self.root:
            return annotations.leaf_scopes
        return self.root.query_scope_on_leaves()

    def inferred_span(self) -> Span:
        """Bottom-up inferred output span of the root."""
        annotations = self.annotations
        if (
            annotations is not None
            and annotations.root is self.root
            and annotations.span is not None
        ):
            return annotations.span

        def infer(node: Operator) -> Span:
            return node.infer_span([infer(child) for child in node.inputs])

        return infer(self.root)

    def default_span(self) -> Span:
        """The span evaluated when the caller gives none.

        The inferred root span, with any unbounded end clipped to the
        hull of the base leaves' spans — the query template's position
        sequence defaults to "everywhere the data lives".
        """
        span = self.inferred_span()
        if span.is_bounded:
            return span
        hull = Span.EMPTY
        for leaf in self.leaves():
            leaf_span = (
                leaf.sequence.span
                if isinstance(leaf, SequenceLeaf)
                else leaf.infer_span([])
            )
            if leaf_span.is_bounded:
                hull = hull.hull(leaf_span)
        if hull.is_empty:
            raise QueryError(
                "cannot bound the evaluation span: pass an explicit span"
            )
        start = span.start if span.start is not None else hull.start
        end = span.end if span.end is not None else hull.end
        return Span(start, end)

    # -- evaluation ------------------------------------------------------------------

    def run_naive(self, span: Optional[Span] = None) -> BaseSequence:
        """Evaluate with the naive reference evaluator (the oracle)."""
        from repro.execution.naive import evaluate_naive

        return evaluate_naive(self, span)

    def run(self, span: Optional[Span] = None, **kwargs) -> BaseSequence:
        """Optimize and evaluate with the stream engine."""
        from repro.execution.engine import run_query

        return run_query(self, span=span, **kwargs)

    def explain(self, span: Optional[Span] = None, **kwargs) -> str:
        """The EXPLAIN text of the plan the optimizer would choose."""
        from repro.optimizer.optimizer import optimize

        return optimize(self, span=span, **kwargs).explain()

    def pretty(self) -> str:
        """A tree rendering of the query."""
        return self.root.pretty()

    def __repr__(self) -> str:
        return f"Query({self.root.describe()})"
