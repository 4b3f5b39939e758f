"""Logical query-graph rules: scope closure, span flow, schema flow.

These rules make the paper's correctness results executable:

* ``scope-closure`` — Proposition 2.1: composed scopes stay inside the
  scope calculus (fixed-size composes to fixed-size via the Minkowski
  sum of offset sets; sequential composes to sequential), and every
  operator's *declared* scope agrees with its parameters.
* ``span-containment`` — Section 3.2 / optimizer Step 2: annotated
  spans match bottom-up inference, restricted spans stay inside
  inferred spans, and every child's restricted span covers what its
  parent reads (Step 2.b), so execution can never silently read
  positions the optimizer did not account for.
* ``schema-flow`` — Section 2.2 typing: every attribute an expression
  or operator parameter reads is produced below it, and cached schemas
  agree with recomputation from the children.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.algebra.aggregate import (
    CumulativeAggregate,
    GlobalAggregate,
    WindowAggregate,
    _AggregateBase,
)
from repro.algebra.compose import Compose
from repro.algebra.node import Operator
from repro.algebra.offsets import PositionalOffset, ValueOffset
from repro.algebra.project import Project
from repro.algebra.scope import ScopeSpec
from repro.algebra.select import Select
from repro.analysis.base import CORRUPTION_ERRORS, QueryContext, query_rule
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.errors import QueryError


def _minkowski(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    """Independent recomputation of the relative-scope composition."""
    return frozenset(x + y for x in a for y in b)


def _expected_scope(node: Operator, input_index: int) -> Optional[ScopeSpec]:
    """The scope ``node`` must declare on one input, from its parameters.

    Returns None for operator classes the core calculus does not know
    (extension operators declare their own scopes and are only subject
    to the closure checks).
    """
    if isinstance(node, (Select, Project, Compose)):
        return ScopeSpec.unit()
    if isinstance(node, PositionalOffset):
        return ScopeSpec.shifted(node.offset)
    if isinstance(node, ValueOffset):
        if node.looks_back:
            return ScopeSpec.variable_past(reach=node.reach)
        return ScopeSpec.variable_future(reach=node.reach)
    if isinstance(node, WindowAggregate):
        return ScopeSpec.window(node.width)
    if isinstance(node, CumulativeAggregate):
        return ScopeSpec.all_past()
    if isinstance(node, GlobalAggregate):
        return ScopeSpec.everything()
    return None


@query_rule("scope-closure", citation="Prop 2.1")
def check_scope_closure(ctx: QueryContext) -> Iterator[Diagnostic]:
    """Recompute composed scopes bottom-up and check Prop 2.1 closure."""
    # 1. Declared-scope agreement: each operator's scope_on must match
    #    what its parameters imply.
    for node in ctx.query.operators():
        for k in range(node.arity):
            try:
                declared = node.scope_on(k)
            except CORRUPTION_ERRORS as exc:
                yield Diagnostic(
                    "scope-closure", Severity.ERROR, ctx.path(node),
                    f"scope_on({k}) raised: {exc}", "Prop 2.1",
                )
                continue
            if not isinstance(declared, ScopeSpec):
                yield Diagnostic(
                    "scope-closure", Severity.ERROR, ctx.path(node),
                    f"scope_on({k}) returned {declared!r}, not a ScopeSpec",
                    "Prop 2.1",
                )
                continue
            if declared.kind not in ScopeSpec.VALID_KINDS:
                yield Diagnostic(
                    "scope-closure", Severity.ERROR, ctx.path(node),
                    f"scope_on({k}) has unknown kind {declared.kind!r}",
                    "Prop 2.1",
                )
                continue
            expected = _expected_scope(node, k)
            if expected is not None and declared != expected:
                yield Diagnostic(
                    "scope-closure", Severity.ERROR, ctx.path(node),
                    f"declared scope {declared!r} on input {k} disagrees "
                    f"with the operator's parameters (expected {expected!r})",
                    "Prop 2.1",
                )

    # 2. Closure along every root-to-leaf composition path.
    def walk(node: Operator, so_far: ScopeSpec) -> Iterator[Diagnostic]:
        for k, child in enumerate(node.inputs):
            try:
                edge = node.scope_on(k)
                combined = so_far.compose(edge)
            except CORRUPTION_ERRORS as exc:
                yield Diagnostic(
                    "scope-closure", Severity.ERROR, ctx.path(child),
                    f"scope composition failed on the path from the root: {exc}",
                    "Prop 2.1",
                )
                continue
            if so_far.is_fixed_size and edge.is_fixed_size:
                if not combined.is_fixed_size:
                    yield Diagnostic(
                        "scope-closure", Severity.ERROR, ctx.path(child),
                        f"fixed-size scopes composed to non-fixed "
                        f"{combined!r} ({so_far!r} o {edge!r})",
                        "Prop 2.1",
                    )
                else:
                    reference = _minkowski(so_far.offsets, edge.offsets)
                    if combined.offsets != reference:
                        yield Diagnostic(
                            "scope-closure", Severity.ERROR, ctx.path(child),
                            f"relative composition {so_far!r} o {edge!r} gave "
                            f"offsets {sorted(combined.offsets)}, expected the "
                            f"Minkowski sum {sorted(reference)}",
                            "Prop 2.1",
                        )
            if (
                so_far.is_sequential
                and edge.is_sequential
                and not combined.is_sequential
            ):
                yield Diagnostic(
                    "scope-closure", Severity.ERROR, ctx.path(child),
                    f"sequential scopes composed to non-sequential "
                    f"{combined!r} ({so_far!r} o {edge!r})",
                    "Prop 2.1",
                )
            yield from walk(child, combined)

    yield from walk(ctx.query.root, ScopeSpec.unit())

    # 3. The composed-scope summary must agree with an independent fold.
    try:
        composed = ctx.query.root.query_scope_on_leaves()
    except QueryError as exc:
        yield Diagnostic(
            "scope-closure", Severity.ERROR, "root",
            f"query_scope_on_leaves failed: {exc}", "Prop 2.1",
        )
        return
    leaf_ids = {id(leaf) for leaf in ctx.query.leaves()}
    if set(composed) != leaf_ids:
        yield Diagnostic(
            "scope-closure", Severity.ERROR, "root",
            "composed scope map does not cover exactly the leaves of the tree",
            "Prop 2.1",
        )


@query_rule("span-containment", citation="Sec 3.2 Step 2", needs_annotations=True)
def check_span_containment(ctx: QueryContext) -> Iterator[Diagnostic]:
    """Annotated spans agree with Step 2.a/2.b propagation."""
    annotated = ctx.annotated
    if annotated is None:  # pragma: no cover - verifier gates on this
        return
    annotations = annotated.annotations
    for node in ctx.query.operators():
        annotation = annotations.get(id(node))
        if annotation is None:
            yield Diagnostic(
                "span-containment", Severity.ERROR, ctx.path(node),
                "node has no annotation", "Sec 3.2 Step 2",
            )
            continue

        # Density is a probability.
        if not (0.0 <= annotation.density <= 1.0):
            yield Diagnostic(
                "span-containment", Severity.ERROR, ctx.path(node),
                f"density {annotation.density!r} outside [0, 1]",
                "Sec 3.2 Step 2.a",
            )

        # Step 2.a agreement: the annotated span is the bottom-up inference.
        child_annotations = [annotations.get(id(child)) for child in node.inputs]
        if all(a is not None for a in child_annotations):
            try:
                inferred = node.infer_span([a.span for a in child_annotations])
            except CORRUPTION_ERRORS as exc:
                yield Diagnostic(
                    "span-containment", Severity.ERROR, ctx.path(node),
                    f"span inference raised: {exc}", "Sec 3.2 Step 2.a",
                )
                inferred = None
            if inferred is not None and inferred != annotation.span:
                yield Diagnostic(
                    "span-containment", Severity.ERROR, ctx.path(node),
                    f"annotated span {annotation.span} disagrees with "
                    f"bottom-up inference {inferred}",
                    "Sec 3.2 Step 2.a",
                )

        # Step 2.b containment: execution reads only within the inferred span.
        if not annotation.span.covers(annotation.restricted_span):
            yield Diagnostic(
                "span-containment", Severity.ERROR, ctx.path(node),
                f"restricted span {annotation.restricted_span} is not "
                f"contained in the inferred span {annotation.span}",
                "Sec 3.2 Step 2.b",
            )
            continue

        # Step 2.b coverage: children provide what this node reads.
        if node.is_leaf or any(a is None for a in child_annotations):
            continue
        try:
            needed = node.required_input_spans(
                annotation.restricted_span, [a.span for a in child_annotations]
            )
        except CORRUPTION_ERRORS as exc:
            yield Diagnostic(
                "span-containment", Severity.ERROR, ctx.path(node),
                f"required_input_spans raised: {exc}", "Sec 3.2 Step 2.b",
            )
            continue
        for child, child_annotation, need in zip(
            node.inputs, child_annotations, needed
        ):
            required = need.intersect(child_annotation.span)
            if not child_annotation.restricted_span.covers(required):
                yield Diagnostic(
                    "span-containment", Severity.ERROR, ctx.path(child),
                    f"restricted span {child_annotation.restricted_span} does "
                    f"not cover {required}, which the parent "
                    f"{node.describe()!r} reads",
                    "Sec 3.2 Step 2.b",
                )

    # The evaluation span must be served by the root.
    root_annotation = annotations.get(id(ctx.query.root))
    if root_annotation is not None:
        served = annotated.output_span.intersect(root_annotation.span)
        if not root_annotation.restricted_span.covers(served):
            yield Diagnostic(
                "span-containment", Severity.ERROR, "root",
                f"root restricted span {root_annotation.restricted_span} does "
                f"not cover the evaluation span {annotated.output_span}",
                "Sec 3.2 Step 2.b",
            )


def _reads_from(node: Operator) -> list[tuple[str, frozenset[str]]]:
    """(description, attribute names) pairs the operator reads.

    Attribute names are in the coordinate system of the operator's
    *combined input* — for a Compose, the prefixed output names.
    """
    reads: list[tuple[str, frozenset[str]]] = []
    if isinstance(node, Select):
        reads.append(("selection predicate", node.predicate.columns()))
    if isinstance(node, Compose) and node.predicate is not None:
        reads.append(("compose predicate", node.predicate.columns()))
    if isinstance(node, Project):
        reads.append(("projection list", frozenset(node.names)))
    if isinstance(node, _AggregateBase):
        reads.append(("aggregate input", frozenset((node.attr,))))
    return reads


@query_rule("schema-flow", citation="Sec 2.2")
def check_schema_flow(ctx: QueryContext) -> Iterator[Diagnostic]:
    """Every attribute read is produced below; cached schemas agree."""
    for node in ctx.query.operators():
        if node.is_leaf:
            continue
        # Recompute the output schema from the children — this re-runs
        # full type checking of predicates and parameters.
        try:
            recomputed = node._infer_schema([child.schema for child in node.inputs])
        except QueryError as exc:
            yield Diagnostic(
                "schema-flow", Severity.ERROR, ctx.path(node),
                f"schema recomputation failed: {exc}", "Sec 2.2",
            )
            continue
        if recomputed != node.schema:
            yield Diagnostic(
                "schema-flow", Severity.ERROR, ctx.path(node),
                f"cached schema {node.schema!r} disagrees with "
                f"recomputation {recomputed!r}",
                "Sec 2.2",
            )

        # Visible-attribute checks with pointed messages.
        if isinstance(node, Compose):
            available = frozenset(node.schema.names)
        else:
            available = frozenset(node.inputs[0].schema.names)
        for description, columns in _reads_from(node):
            missing = columns - available
            if missing:
                yield Diagnostic(
                    "schema-flow", Severity.ERROR, ctx.path(node),
                    f"{description} reads {sorted(missing)}, which no input "
                    "produces (a projection below dropped a live column, or "
                    "the expression references an unknown attribute)",
                    "Sec 2.2",
                )
