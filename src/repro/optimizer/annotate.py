"""Meta-information propagation (paper Section 4, Step 2).

Step 2.a walks the query graph bottom-up, adorning every node with its
schema (type checking), span, density, and available column statistics.
Step 2.b walks top-down from the requested output span, restricting
each node's span to what is actually needed — the *global span
optimization* of Section 3.2 (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import OptimizerError
from repro.model.info import SequenceInfo
from repro.model.span import Span
from repro.algebra.compose import Compose
from repro.algebra.graph import Query
from repro.algebra.leaves import ConstantLeaf, SequenceLeaf
from repro.algebra.node import Operator
from repro.algebra.project import Project
from repro.catalog.catalog import Catalog, CatalogEntry, leaf_meta
from repro.catalog.stats import ColumnStats


@dataclass
class Annotation:
    """Optimizer metadata attached to one operator node.

    Attributes:
        span: bottom-up inferred span of the node's output.
        density: estimated output density over that span.
        colstats: statistics of output columns, keyed by (possibly
            prefixed) output-schema attribute name; used for
            selectivity estimation higher up the graph.
        restricted_span: the span after top-down restriction (Step 2.b);
            execution only ever needs these positions.
    """

    span: Span
    density: float
    colstats: dict[str, ColumnStats] = field(default_factory=dict)
    restricted_span: Span = Span.EMPTY

    @property
    def info(self) -> SequenceInfo:
        """The node metadata as a :class:`SequenceInfo`."""
        return SequenceInfo(span=self.span, density=self.density)

    def expected_records(self) -> float:
        """Estimated non-null records within the restricted span."""
        length = self.restricted_span.length()
        if length is None:
            raise OptimizerError(
                f"restricted span {self.restricted_span} is unbounded"
            )
        return length * self.density

    def stats_lookup(self, name: str) -> Optional[ColumnStats]:
        """A :data:`StatsLookup`-compatible accessor over ``colstats``."""
        return self.colstats.get(name)


@dataclass
class AnnotatedQuery:
    """A query plus per-node annotations and the evaluation span."""

    query: Query
    annotations: dict[int, Annotation]
    output_span: Span

    def of(self, node: Operator) -> Annotation:
        """The annotation of ``node``.

        Raises:
            OptimizerError: if the node is not part of this query.
        """
        try:
            return self.annotations[id(node)]
        except KeyError:
            raise OptimizerError(
                f"node {node.describe()!r} has no annotation"
            ) from None


def leaf_entry(node: Operator, catalog: Optional[Catalog]) -> Optional[CatalogEntry]:
    """The catalog entry of a direct leaf node, if registered."""
    if not isinstance(node, SequenceLeaf) or catalog is None:
        return None
    return catalog.entry_for_sequence(node.sequence, alias=node.alias)


def _leaf_annotation(node: Operator, catalog: Optional[Catalog]) -> Annotation:
    """Bottom-up metadata for a leaf, preferring catalog statistics."""
    if isinstance(node, ConstantLeaf):
        return Annotation(span=node.constant.span, density=1.0)
    if not isinstance(node, SequenceLeaf):
        raise OptimizerError(
            f"leaf annotation needs a sequence or constant leaf, got "
            f"{node.describe()!r}"
        )
    entry = leaf_entry(node, catalog)
    if entry is not None:
        info = entry.info
        colstats = dict(entry.stats.columns) if entry.stats is not None else {}
        return Annotation(span=info.span, density=info.density, colstats=colstats)
    meta = leaf_meta(node.sequence)
    return Annotation(span=meta.span, density=meta.density)


def _propagate_colstats(node: Operator, child_stats: list[dict[str, ColumnStats]]) -> dict[str, ColumnStats]:
    """Column statistics of a node's output, derived from its children.

    Selections and offsets pass statistics through unchanged (a
    simplifying uniformity assumption); projections filter; composes
    merge under their prefixes; aggregates produce fresh columns with
    no statistics.
    """
    if isinstance(node, Project):
        source = child_stats[0]
        return {name: source[name] for name in node.names if name in source}
    if isinstance(node, Compose):
        merged: dict[str, ColumnStats] = {}
        for index, stats in enumerate(child_stats):
            prefix = node.prefixes[index]
            for name, cs in stats.items():
                key = f"{prefix}_{name}" if prefix else name
                merged[key] = cs
        return merged
    if node.arity == 1 and node.schema == node.inputs[0].schema:
        return dict(child_stats[0])
    return {}


def annotate(
    query: Query,
    catalog: Optional[Catalog] = None,
    span: Optional[Span] = None,
    restrict_spans: bool = True,
) -> AnnotatedQuery:
    """Run Steps 2.a and 2.b over ``query``.

    Args:
        query: the (possibly rewritten) query tree.
        catalog: source of base-sequence statistics and correlations.
        span: the requested output span (the query template's position
            sequence); defaults to the query's own bounded default.
        restrict_spans: apply the top-down global span optimization
            (Section 3.2).  Disable to measure its benefit: each node
            then keeps its full inferred span when that span is
            bounded, falling back to the propagated requirement only
            where inference is unbounded.

    Returns:
        The annotated query, with every node's inferred and restricted
        spans and densities filled in.
    """
    annotations: dict[int, Annotation] = {}

    def up(node: Operator) -> Annotation:
        if node.is_leaf:
            annotation = _leaf_annotation(node, catalog)
        else:
            child_annotations = [up(child) for child in node.inputs]
            infos = [a.info for a in child_annotations]
            child_stats = [a.colstats for a in child_annotations]
            out_span = node.infer_span([a.span for a in child_annotations])
            merged = _propagate_colstats(node, child_stats)
            density = node.infer_density(infos, stats=lambda n: merged.get(n))
            if isinstance(node, Compose) and catalog is not None:
                left = leaf_entry(node.inputs[0], catalog)
                right = leaf_entry(node.inputs[1], catalog)
                if left is not None and right is not None:
                    density *= catalog.correlation(left.name, right.name)
            annotation = Annotation(
                span=out_span,
                density=max(0.0, min(1.0, density)),
                colstats=merged,
            )
        annotations[id(node)] = annotation
        return annotation

    root_annotation = up(query.root)

    requested = query.default_span() if span is None else span
    output_span = root_annotation.span.intersect(requested)

    def down(node: Operator, required: Span) -> None:
        annotation = annotations[id(node)]
        restricted = annotation.span.intersect(required)
        if not restrict_spans and annotation.span.is_bounded:
            restricted = annotation.span
        annotation.restricted_span = restricted
        if node.is_leaf:
            return
        child_spans = [annotations[id(child)].span for child in node.inputs]
        needed = node.required_input_spans(annotation.restricted_span, child_spans)
        for child, child_required in zip(node.inputs, needed):
            down(child, child_required)

    down(query.root, output_span)
    return AnnotatedQuery(query=query, annotations=annotations, output_span=output_span)
