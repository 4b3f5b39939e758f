"""Block-wise plan generation (paper Section 4.1, Figure 7).

For each block, in topological order, this module produces the
cheapest **stream-mode** and **probed-mode** evaluation plan of the
block's output — the sequence analogue of the Selinger algorithm's
per-interesting-order retention.  Join blocks are enumerated bottom-up
over left-deep join orders; each join considers Join-Strategy-A (both
directions, each probing the other input's own probed plan) and
Join-Strategy-B (lock-step).  Non-unit-scope blocks choose between the
naive algorithm and the applicable caching strategy (Cache-Strategy-A
for fixed scopes, Cache-Strategy-B for value offsets).

Every formula and every strategy choice is the cost model's
(:mod:`repro.optimizer.costmodel`): this module asks a chooser for
``(costs, strategy)`` and builds the plan pair that goes with the
answer.  The one place it compares two costs itself is the dynamic
program's retention step (:func:`_retain`).

The enumeration counts the join plans it evaluates and the peak number
of retained candidates, which the benchmarks check against Property
4.1: time O(N * 2^(N-1)) and space C(N, ceil(N/2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import OptimizerError
from repro.model.schema import RecordSchema
from repro.model.span import Span
from repro.algebra.aggregate import CumulativeAggregate, GlobalAggregate, WindowAggregate
from repro.algebra.expressions import Expr, conjoin
from repro.algebra.leaves import ConstantLeaf
from repro.algebra.node import Operator
from repro.algebra.offsets import PositionalOffset, ValueOffset
from repro.algebra.project import Project
from repro.algebra.select import Select
from repro.catalog.catalog import Catalog, leaf_meta
from repro.optimizer.annotate import AnnotatedQuery, leaf_entry
from repro.optimizer.blocks import Block, BlockInput, JoinBlock, UnaryBlock
from repro.optimizer.costmodel import AccessCosts, CostModel
from repro.optimizer.plans import PROBE, STREAM, ChainStep, PhysicalPlan


@dataclass
class PlanStats:
    """Instrumentation of the enumeration (Property 4.1)."""

    plans_considered: int = 0
    peak_plans_stored: int = 0
    blocks_planned: int = 0


@dataclass(slots=True)
class PlannedOutput:
    """The two retained plans for the output of a block, a block input
    or (inside the join enumeration) a subset of a block's inputs."""

    schema: RecordSchema
    span: Span
    density: float
    costs: AccessCosts
    stream_plan: PhysicalPlan
    probe_plan: PhysicalPlan

    @classmethod
    def of(
        cls,
        kind: str,
        node: Optional[Operator],
        schema: RecordSchema,
        span: Span,
        density: float,
        costs: AccessCosts,
        stream_children: tuple[PhysicalPlan, ...],
        probe_children: tuple[PhysicalPlan, ...],
        *,
        probe_kind: Optional[str] = None,
        strategy: str = "",
        probe_strategy: str = "",
        steps: tuple[ChainStep, ...] = (),
        predicate: Optional[Expr] = None,
        cache_size: Optional[int] = None,
    ) -> "PlannedOutput":
        """Both access modes of one operator, from one set of estimates.

        The two plans share everything but their children, the strategy
        tag, the declared cache (stream mode only) and — for leaves and
        joins — the plan kind.
        """
        return cls(
            schema, span, density, costs,
            PhysicalPlan(
                kind, STREAM, node, stream_children, schema, span, density,
                costs, strategy, steps, predicate, cache_size,
            ),
            PhysicalPlan(
                probe_kind or kind, PROBE, node, probe_children, schema, span,
                density, costs, probe_strategy, steps, predicate,
            ),
        )

    def chained(
        self,
        node: Optional[Operator],
        schema: RecordSchema,
        span: Span,
        density: float,
        costs: AccessCosts,
        steps: tuple[ChainStep, ...],
    ) -> "PlannedOutput":
        """Unit-scope ``steps`` applied over both plans of this pair."""
        return PlannedOutput.of(
            "chain", node, schema, span, density, costs,
            (self.stream_plan,), (self.probe_plan,), steps=steps,
        )


@dataclass(frozen=True)
class UnaryRule:
    """How Step 5 plans one non-unit-scope operator class (Section 4.1.2).

    The planning-side mirror of ``execution.context.OPERATORS``.

    Attributes:
        kind: the plan kind of both access modes.
        choose: ``(model, child costs, op, output length, child density)
            -> (costs, stream strategy)``, asked of the cost model.
        cache_size: the scope-sized cache (Theorem 3.1) a caching stream
            strategy declares, from the operator; None if it keeps none.
        probe_child: the access mode the *probed* plan reads its child
            in.  PROBE means the naive algorithm; STREAM means the
            probed plan replays the stream strategy's one computation.
    """

    kind: str
    choose: Callable[[CostModel, AccessCosts, Any, int, float], tuple[AccessCosts, str]]
    cache_size: Optional[Callable[[Any], int]] = None
    probe_child: str = PROBE


UNARY_RULES: dict[type, UnaryRule] = {
    WindowAggregate: UnaryRule(
        "window-agg",
        lambda model, child, op, length, density: model.window_agg_costs(
            child, op.width, length, density
        ),
        cache_size=lambda op: op.width,
    ),
    ValueOffset: UnaryRule(
        "value-offset",
        lambda model, child, op, length, density: model.value_offset_costs(
            child, op.reach, length, density
        ),
        cache_size=lambda op: op.reach,
    ),
    CumulativeAggregate: UnaryRule(
        "cumulative-agg",
        lambda model, child, op, length, density: (
            model.cumulative_costs(child, length), "running",
        ),
    ),
    GlobalAggregate: UnaryRule(
        "global-agg",
        lambda model, child, op, length, density: (
            model.global_agg_costs(child, length), "compute-once",
        ),
        probe_child=STREAM,
    ),
}


def _span_length(span: Span) -> int:
    length = span.length()
    if length is None:
        raise OptimizerError(f"planner needs bounded spans, got {span}")
    return length


def _retain(
    level: dict[frozenset[int], PlannedOutput],
    subset: frozenset[int],
    candidate: PlannedOutput,
) -> None:
    """DP retention: per subset keep the cheapest stream plan and the
    cheapest probed plan, independently (an earlier candidate wins a
    tie).  The only comparison of two costs in this module."""
    best = level.get(subset)
    if best is None:
        level[subset] = candidate
        return
    stream = candidate if candidate.costs.stream_total < best.costs.stream_total else best
    probe = candidate if candidate.costs.probe_unit < best.costs.probe_unit else best
    if stream is best and probe is best:
        return
    costs = AccessCosts(
        stream.costs.stream_total, probe.costs.probe_unit, probe.costs.setup
    )
    level[subset] = PlannedOutput(
        best.schema, best.span, best.density, costs,
        stream.stream_plan, probe.probe_plan,
    )


class BlockPlanner:
    """Plans a block tree bottom-up (Steps 5 and 6)."""

    def __init__(
        self,
        annotated: AnnotatedQuery,
        catalog: Optional[Catalog] = None,
        model: Optional[CostModel] = None,
    ):
        self.annotated = annotated
        self.catalog = catalog
        self.model = model or CostModel()
        self.stats = PlanStats()

    # -- leaf and input planning -----------------------------------------------

    def _leaf_output(self, leaf) -> PlannedOutput:
        annotation = self.annotated.of(leaf)
        if isinstance(leaf, ConstantLeaf):
            costs = self.model.constant_costs()
        else:
            costs = self.model.base_costs(
                leaf_meta(leaf.sequence).profile,
                annotation.span,
                annotation.restricted_span,
            )
        return PlannedOutput.of(
            "scan", leaf, leaf.schema, annotation.restricted_span,
            annotation.density, costs, (), (), probe_kind="probe-source",
        )

    def _chain_steps(self, block_input: BlockInput) -> tuple[tuple[ChainStep, ...], int]:
        """Chain steps for an input, plus its predicate conjunct count."""
        steps: list[ChainStep] = []
        conjunct_count = 0
        for op in block_input.chain:
            if isinstance(op, Select):
                steps.append(ChainStep("select", predicate=op.predicate))
                conjunct_count += 1
            elif isinstance(op, Project):
                steps.append(ChainStep("project", names=op.names))
            elif isinstance(op, PositionalOffset):
                steps.append(ChainStep("shift", offset=op.offset))
            else:  # pragma: no cover - blocks.py only emits the above
                raise OptimizerError(f"unexpected chain op {op.describe()!r}")
        if block_input.prefix:
            steps.append(ChainStep("rename", schema=block_input.block_schema()))
        return tuple(steps), conjunct_count

    def _plan_input(self, block_input: BlockInput) -> PlannedOutput:
        if block_input.leaf is not None:
            source = self._leaf_output(block_input.leaf)
        else:
            if block_input.source is None:
                raise OptimizerError(
                    f"block input {block_input.describe()!r} has neither a "
                    "leaf nor a source block"
                )
            source = self.plan(block_input.source)
        steps, conjunct_count = self._chain_steps(block_input)
        if not steps:
            return source

        annotation = self.annotated.of(block_input.top)
        costs = self.model.chain_costs(
            source.costs, annotation.expected_records(), conjunct_count
        )
        return source.chained(
            block_input.top, block_input.block_schema(),
            annotation.restricted_span, annotation.density, costs, steps,
        )

    # -- join block enumeration ----------------------------------------------------

    def plan(self, block: Block) -> PlannedOutput:
        """Plan a block tree, returning the block output's plan pair."""
        if isinstance(block, UnaryBlock):
            return self._plan_unary(block)
        return self._plan_join(block)

    def _block_colstats(self, block: JoinBlock) -> dict[str, object]:
        """Column statistics of a join block's inputs, under the
        (prefixed) names the block's predicates use."""
        colstats: dict[str, object] = {}
        for block_input in block.inputs:
            prefix = block_input.prefix
            for key, stat in self.annotated.of(block_input.top).colstats.items():
                colstats[f"{prefix}_{key}" if prefix else key] = stat
        return colstats

    def _leaf_pair_correlation(
        self, block: JoinBlock, subset: frozenset[int], j: int
    ) -> float:
        """The catalog's correlation of two base sequences joined directly."""
        if self.catalog is None or len(subset) != 1:
            return 1.0
        (i,) = subset
        left_entry = leaf_entry(block.inputs[i].leaf, self.catalog)
        right_entry = leaf_entry(block.inputs[j].leaf, self.catalog)
        if left_entry is None or right_entry is None:
            return 1.0
        return self.catalog.correlation(left_entry.name, right_entry.name)

    def _plan_join(self, block: JoinBlock) -> PlannedOutput:
        self.stats.blocks_planned += 1
        inputs = [self._plan_input(block_input) for block_input in block.inputs]
        names = [frozenset(planned.schema.names) for planned in inputs]
        n = len(inputs)
        stats_lookup = self._block_colstats(block).get

        def applied(cover: frozenset[str], constant: bool = False) -> list[Expr]:
            return [
                p for p in block.predicates
                if p.columns() <= cover and (constant or p.columns())
            ]

        def singleton(j: int) -> PlannedOutput:
            """Input ``j`` with the predicates over it alone applied
            (input 0 also takes the column-free ones, exactly once)."""
            self.stats.plans_considered += 1
            planned = inputs[j]
            preds = applied(names[j], constant=j == 0)
            if not preds:
                return planned
            predicate = conjoin(preds)
            costs = self.model.chain_costs(
                planned.costs, planned.density * _span_length(planned.span), len(preds)
            )
            return planned.chained(
                None, planned.schema, planned.span,
                planned.density * predicate.selectivity(stats_lookup), costs,
                (ChainStep("select", predicate=predicate),),
            )

        def join(subset: frozenset[int], left: PlannedOutput, j: int) -> PlannedOutput:
            """``left`` (the retained pair of ``subset``) joined with input ``j``."""
            self.stats.plans_considered += 1
            # Extend with the *singleton entry* (not the raw input): it
            # carries any single-input predicates already applied, with
            # the matching density and cost adjustments.
            right = singletons[j]
            left_names = frozenset().union(*(names[i] for i in subset))
            new_preds = [
                p
                for p in applied(left_names | names[j])
                if not (p.columns() <= left_names) and not (p.columns() <= names[j])
            ]
            out_span = left.span.intersect(right.span)
            length = _span_length(out_span)
            selectivity = 1.0
            for pred in new_preds:
                selectivity *= pred.selectivity(stats_lookup)
            density = (
                left.density
                * right.density
                * selectivity
                * self._leaf_pair_correlation(block, subset, j)
            )
            density = max(0.0, min(1.0, density))

            # Section 4.1.3, both access modes, from the one cost model.
            stream_cost, strategy = self.model.join_stream_cost(
                left.costs, right.costs, left.density, right.density, length, len(new_preds)
            )
            probe_unit, probe_strategy = self.model.join_probe_cost(
                left.costs, right.costs, left.density, right.density, len(new_preds)
            )
            costs = AccessCosts(
                stream_cost, probe_unit, left.costs.setup + right.costs.setup
            )
            stream_children = {
                "lockstep": (left.stream_plan, right.stream_plan),
                "stream-probe": (left.stream_plan, right.probe_plan),
                "probe-stream": (left.probe_plan, right.stream_plan),
            }[strategy]
            joined = PlannedOutput.of(
                strategy, None, left.schema.concat(right.schema), out_span,
                density, costs, stream_children, (left.probe_plan, right.probe_plan),
                probe_kind="probe-join", probe_strategy=probe_strategy,
                predicate=conjoin(new_preds) if new_preds else None,
            )
            # Subset schemas are canonicalized to ascending input index
            # (a free reorder projection) so pairs for the same subset
            # are interchangeable however the DP reached them.
            ordered = sorted(subset | {j})
            canonical = inputs[ordered[0]].schema
            for i in ordered[1:]:
                canonical = canonical.concat(inputs[i].schema)
            if tuple(joined.schema.names) == tuple(canonical.names):
                return joined
            return joined.chained(
                None, canonical, out_span, density, costs,
                (ChainStep("project", names=tuple(canonical.names)),),
            )

        singletons = [singleton(j) for j in range(n)]
        level = {frozenset((j,)): entry for j, entry in enumerate(singletons)}
        peak = len(level)
        for _size in range(2, n + 1):
            next_level: dict[frozenset[int], PlannedOutput] = {}
            for subset, entry in level.items():
                for j in range(n):
                    if j not in subset:
                        _retain(next_level, subset | {j}, join(subset, entry, j))
            level = next_level
            peak = max(peak, len(level))

        self.stats.peak_plans_stored = max(self.stats.peak_plans_stored, peak)
        return self._finish_join_block(block, level[frozenset(range(n))])

    def _finish_join_block(
        self, block: JoinBlock, final: PlannedOutput
    ) -> PlannedOutput:
        """Apply the post-shift and the final projection to the root schema."""
        root_schema = block.root.schema
        steps: list[ChainStep] = []
        if block.post_shift:
            steps.append(ChainStep("shift", offset=block.post_shift))
        if tuple(root_schema.names) != tuple(final.schema.names):
            steps.append(ChainStep("project", names=tuple(root_schema.names)))
        if not steps:
            return final
        costs = self.model.chain_costs(
            final.costs, final.density * _span_length(final.span), 0
        )
        return final.chained(
            block.root, root_schema,
            self.annotated.of(block.root).restricted_span, final.density, costs,
            tuple(steps),
        )

    # -- non-unit-scope blocks (Section 4.1.2) ----------------------------------------

    def _plan_unary(self, block: UnaryBlock) -> PlannedOutput:
        self.stats.blocks_planned += 1
        child = self.plan(block.child)
        op = block.root
        rule = UNARY_RULES.get(type(op))
        if rule is None:  # pragma: no cover - blocks.py only emits the above
            raise OptimizerError(f"unknown unary block operator {op.describe()!r}")
        annotation = self.annotated.of(op)
        out_span = annotation.restricted_span
        costs, strategy = rule.choose(
            self.model, child.costs, op, _span_length(out_span), child.density
        )
        naive = strategy == "naive"
        replays = rule.probe_child == STREAM
        return PlannedOutput.of(
            rule.kind, op, op.schema, out_span, annotation.density, costs,
            (child.probe_plan if naive else child.stream_plan,),
            (child.stream_plan if replays else child.probe_plan,),
            strategy=strategy,
            probe_strategy=strategy if replays else "naive",
            cache_size=None if naive or rule.cache_size is None else rule.cache_size(op),
        )
