"""Physical query evaluation plans.

A plan is a tree of :class:`PhysicalPlan` nodes, each naming the
strategy the executor must use (access modes, join strategies, caching
strategies) together with the optimizer's estimates.  The Start
operator of the query template (Figure 6) corresponds to executing the
root plan in stream mode over the plan's span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import OptimizerError
from repro.model.schema import RecordSchema
from repro.model.span import Span
from repro.algebra.expressions import Expr
from repro.algebra.node import Operator
from repro.optimizer.costmodel import AccessCosts

#: Access modes a plan can be executed in.
STREAM = "stream"
PROBE = "probe"


@dataclass(frozen=True)
class ChainStep:
    """One unit-scope operation applied to a flowing record.

    Exactly one of the payload fields is set, per ``kind``:
    ``select`` (predicate), ``project`` (names), ``shift`` (offset),
    ``rename`` (schema replacing the record's, for compose prefixes).
    """

    kind: str
    predicate: Optional[Expr] = None
    names: Optional[tuple[str, ...]] = None
    offset: int = 0
    schema: Optional[RecordSchema] = None

    def describe(self) -> str:
        """One-line rendering of the step."""
        if self.kind == "select":
            return f"select[{self.predicate!r}]"
        if self.kind == "project":
            return f"project[{', '.join(self.names or ())}]"
        if self.kind == "shift":
            return f"shift[{self.offset:+d}]"
        if self.kind == "rename":
            return f"rename[{self.schema!r}]"
        raise OptimizerError(f"unknown chain step kind {self.kind!r}")


@dataclass
class PhysicalPlan:
    """A node of the physical plan tree.

    Attributes:
        kind: the physical operator:
            ``scan`` / ``probe-source`` (leaf access), ``chain`` (unit
            ops over a child), ``lockstep`` / ``stream-probe`` /
            ``probe-stream`` (the stream join strategies of Section
            3.3), ``probe-join`` (probed-mode positional join),
            ``window-agg`` (Cache-Strategy-A or naive), ``value-offset``
            (Cache-Strategy-B or naive), ``cumulative-agg``,
            ``global-agg``.
        mode: the access mode this plan delivers (stream or probe).
        node: the logical operator this plan node implements (leaves:
            the leaf node; joins: the Compose anchor or None for
            reordered joins).
        children: input plans, already fixed in their own modes.
        schema: output record schema.
        span: the restricted output span this plan produces.
        density: estimated output density.
        costs: the optimizer's estimates for this subtree.
        strategy: refinement tag, e.g. ``cache-a`` vs ``naive`` for a
            window aggregate, or the probe order of a probe-join.
        steps: for ``chain`` plans, the unit operations applied.
        predicate: for join plans, the predicate applied on composed
            records (already conjoined).
        cache_size: declared cache size for caching strategies
            (Theorem 3.1's scope-sized caches), None if no cache.
    """

    kind: str
    mode: str
    node: Optional[Operator]
    children: tuple["PhysicalPlan", ...]
    schema: RecordSchema
    span: Span
    density: float
    costs: AccessCosts
    strategy: str = ""
    steps: tuple[ChainStep, ...] = ()
    predicate: Optional[Expr] = None
    cache_size: Optional[int] = None

    @property
    def est_cost(self) -> float:
        """The estimate in this plan's mode (stream total or probe unit)."""
        if self.mode == STREAM:
            return self.costs.stream_total
        return self.costs.probe_unit

    def describe(self) -> str:
        """One-line rendering with the strategy and cost."""
        bits = [self.kind]
        if self.strategy:
            bits.append(f"({self.strategy})")
        if self.steps:
            bits.append("[" + "; ".join(step.describe() for step in self.steps) + "]")
        if self.predicate is not None:
            bits.append(f"on {self.predicate!r}")
        if self.cache_size is not None:
            bits.append(f"cache={self.cache_size}")
        bits.append(f"mode={self.mode}")
        bits.append(f"span={self.span}")
        bits.append(f"cost={self.est_cost:.2f}")
        return " ".join(bits)

    def pretty(self, indent: int = 0) -> str:
        """Multi-line tree rendering (the EXPLAIN output)."""
        lines = ["  " * indent + self.describe()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def walk(self) -> Iterator["PhysicalPlan"]:
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dot(self, name: str = "plan") -> str:
        """Graphviz DOT text of this plan tree.

        Node labels show the physical operator, its strategy/steps and
        estimated cost; edges point from consumers to producers.
        """
        lines = [f"digraph {name} {{", "  node [shape=box, fontname=monospace];"]
        counter = [0]

        def visit(plan: "PhysicalPlan") -> str:
            identifier = f"n{counter[0]}"
            counter[0] += 1
            bits = [plan.kind]
            if plan.strategy:
                bits.append(f"({plan.strategy})")
            if plan.steps:
                bits.append("; ".join(step.describe() for step in plan.steps))
            if plan.cache_size is not None:
                bits.append(f"cache={plan.cache_size}")
            bits.append(f"cost={plan.est_cost:.2f}")
            label = "\\n".join(bits).replace('"', "'")
            lines.append(f'  {identifier} [label="{label}"];')
            for child in plan.children:
                child_id = visit(child)
                lines.append(f"  {identifier} -> {child_id};")
            return identifier

        visit(self)
        lines.append("}")
        return "\n".join(lines)


@dataclass
class OptimizedPlan:
    """The optimizer's final output for a query.

    Attributes:
        plan: the root physical plan (stream mode).
        output_span: the span the Start operator will drive.
        estimated_cost: total estimated stream cost.
        plans_considered: join plans evaluated during enumeration
            (Property 4.1a measures this as N * 2^(N-1) per block).
        peak_plans_stored: maximum candidate plans retained at once
            (Property 4.1b: C(N, ceil(N/2))).
        block_count: number of query blocks planned.
        rewrites: names of rewrite rules fired (Step 3).
    """

    plan: PhysicalPlan
    output_span: Span
    estimated_cost: float
    plans_considered: int
    peak_plans_stored: int
    block_count: int
    rewrites: list[str]

    def explain(self) -> str:
        """Human-readable plan description."""
        header = (
            f"-- estimated cost {self.estimated_cost:.2f}, span {self.output_span}, "
            f"{self.block_count} block(s), {self.plans_considered} join plans "
            f"considered (peak {self.peak_plans_stored} stored)"
        )
        rewrites = (
            "-- rewrites: " + ", ".join(self.rewrites) if self.rewrites else "-- rewrites: none"
        )
        return "\n".join([header, rewrites, self.plan.pretty()])
