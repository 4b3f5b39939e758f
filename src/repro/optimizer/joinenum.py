"""Block-wise plan generation (paper Section 4.1, Figure 7).

For each block, in topological order, this module produces the
cheapest **stream-mode** and **probed-mode** evaluation plan of the
block's output — the sequence analogue of the Selinger algorithm's
per-interesting-order retention.  Join blocks are enumerated bottom-up
over left-deep join orders; each join considers Join-Strategy-A (both
directions, optionally against a materialized inner) and
Join-Strategy-B (lock-step).  Non-unit-scope blocks choose between the
naive algorithm and the applicable caching strategy (Cache-Strategy-A
for fixed scopes, Cache-Strategy-B for value offsets).

The enumeration counts the join plans it evaluates and the peak number
of retained candidates, which the benchmarks check against Property
4.1: time O(N * 2^(N-1)) and space C(N, ceil(N/2)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from repro.errors import OptimizerError
from repro.model.schema import RecordSchema
from repro.model.span import Span
from repro.algebra.aggregate import CumulativeAggregate, GlobalAggregate, WindowAggregate
from repro.algebra.expressions import Expr, conjoin
from repro.algebra.leaves import ConstantLeaf
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
    per_block: list[tuple[int, int, int]] = field(default_factory=list)
    """(inputs, considered, peak) per join block."""


@dataclass
class PlannedOutput:
    """The two retained plans for a block (or block input) output."""

    schema: RecordSchema
    span: Span
    density: float
    costs: AccessCosts
    stream_plan: PhysicalPlan
    probe_plan: PhysicalPlan


@dataclass(slots=True)
class JoinEntry:
    """The retained plan pair for one subset of a join block's inputs."""

    indices: frozenset[int]
    schema: RecordSchema
    span: Span
    density: float
    costs: AccessCosts
    stream_plan: PhysicalPlan
    probe_plan: PhysicalPlan


def _span_length(span: Span) -> int:
    length = span.length()
    if length is None:
        raise OptimizerError(f"planner needs bounded spans, got {span}")
    return length


class BlockPlanner:
    """Plans a block tree bottom-up (Steps 5 and 6)."""

    def __init__(
        self,
        annotated: AnnotatedQuery,
        catalog: Optional[Catalog] = None,
        model: Optional[CostModel] = None,
        consider_materialize: bool = True,
    ):
        self.annotated = annotated
        self.catalog = catalog
        self.model = model or CostModel()
        self.consider_materialize = consider_materialize
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
        common = dict(
            node=leaf,
            children=(),
            schema=leaf.schema,
            span=annotation.restricted_span,
            density=annotation.density,
            costs=costs,
        )
        return PlannedOutput(
            schema=leaf.schema,
            span=annotation.restricted_span,
            density=annotation.density,
            costs=costs,
            stream_plan=PhysicalPlan(kind="scan", mode=STREAM, **common),
            probe_plan=PhysicalPlan(kind="probe-source", mode=PROBE, **common),
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
        schema = block_input.block_schema()
        costs = self.model.chain_costs(
            source.costs, annotation.expected_records(), conjunct_count
        )
        common = dict(
            node=block_input.top,
            schema=schema,
            span=annotation.restricted_span,
            density=annotation.density,
            costs=costs,
            steps=steps,
        )
        return PlannedOutput(
            schema=schema,
            span=annotation.restricted_span,
            density=annotation.density,
            costs=costs,
            stream_plan=PhysicalPlan(
                kind="chain", mode=STREAM, children=(source.stream_plan,), **common
            ),
            probe_plan=PhysicalPlan(
                kind="chain", mode=PROBE, children=(source.probe_plan,), **common
            ),
        )

    def _maybe_materialized(self, output: PlannedOutput) -> PhysicalPlan:
        """The cheaper prober for an input: native or materialized stream."""
        if not self.consider_materialize:
            return output.probe_plan
        expected = output.density * _span_length(output.span)
        mat_costs = self.model.materialize_costs(
            output.costs.stream_total, expected
        )
        # Compare assuming roughly one probe per output position.
        probes = max(1.0, expected)
        if mat_costs.probes(probes) < output.costs.probes(probes):
            return PhysicalPlan(
                kind="materialize",
                mode=PROBE,
                node=None,
                children=(output.stream_plan,),
                schema=output.schema,
                span=output.span,
                density=output.density,
                costs=mat_costs,
            )
        return output.probe_plan

    # -- join block enumeration ----------------------------------------------------

    def plan(self, block: Block) -> PlannedOutput:
        """Plan a block tree, returning the block output's plan pair."""
        if isinstance(block, UnaryBlock):
            return self._plan_unary(block)
        return self._plan_join(block)

    def _plan_join(self, block: JoinBlock) -> PlannedOutput:
        self.stats.blocks_planned += 1
        inputs = [self._plan_input(block_input) for block_input in block.inputs]
        names = [frozenset(planned.schema.names) for planned in inputs]
        n = len(inputs)

        colstats: dict[str, object] = {}
        for block_input in block.inputs:
            annotation = self.annotated.of(block_input.top)
            prefix = block_input.prefix
            for key, stat in annotation.colstats.items():
                colstats[f"{prefix}_{key}" if prefix else key] = stat
        stats_lookup = colstats.get

        def applied(cover: frozenset[str]) -> list[Expr]:
            return [
                p for p in block.predicates if p.columns() and p.columns() <= cover
            ]

        considered_before = self.stats.plans_considered
        peak_before_block = 0

        def singleton(j: int) -> JoinEntry:
            self.stats.plans_considered += 1
            planned = inputs[j]
            density = planned.density
            span = planned.span
            preds = applied(names[j])
            costs = planned.costs
            stream_plan, probe_plan = planned.stream_plan, planned.probe_plan
            if preds:
                predicate = conjoin(preds)
                selectivity = predicate.selectivity(stats_lookup)
                density = density * selectivity
                step = (ChainStep("select", predicate=predicate),)
                costs = self.model.chain_costs(
                    costs, planned.density * _span_length(span), len(preds)
                )
                common = dict(
                    node=None,
                    schema=planned.schema,
                    span=span,
                    density=density,
                    costs=costs,
                    steps=step,
                )
                stream_plan = PhysicalPlan(
                    kind="chain", mode=STREAM, children=(stream_plan,), **common
                )
                probe_plan = PhysicalPlan(
                    kind="chain", mode=PROBE, children=(probe_plan,), **common
                )
            return JoinEntry(
                indices=frozenset((j,)),
                schema=planned.schema,
                span=span,
                density=density,
                costs=costs,
                stream_plan=stream_plan,
                probe_plan=probe_plan,
            )

        def leaf_pair_correlation(s_entry: JoinEntry, j: int) -> float:
            if self.catalog is None or len(s_entry.indices) != 1:
                return 1.0
            (i,) = s_entry.indices
            left_entry = leaf_entry(block.inputs[i].leaf, self.catalog)
            right_entry = leaf_entry(block.inputs[j].leaf, self.catalog)
            if left_entry is None or right_entry is None:
                return 1.0
            return self.catalog.correlation(left_entry.name, right_entry.name)

        def canonical_schema(indices: frozenset[int]) -> RecordSchema:
            """Subset schemas are canonicalized to ascending input index
            so entries for the same subset are interchangeable however
            the DP reached them."""
            combined = inputs[min(indices)].schema
            for i in sorted(indices)[1:]:
                combined = combined.concat(inputs[i].schema)
            return combined

        def reordered(plan: PhysicalPlan, schema: RecordSchema) -> PhysicalPlan:
            """Wrap a plan in a (free) reorder projection if its column
            order is not canonical."""
            if tuple(plan.schema.names) == tuple(schema.names):
                return plan
            return PhysicalPlan(
                kind="chain",
                mode=plan.mode,
                node=None,
                children=(plan,),
                schema=schema,
                span=plan.span,
                density=plan.density,
                costs=plan.costs,
                steps=(ChainStep("project", names=tuple(schema.names)),),
            )

        def join(s_entry: JoinEntry, j: int) -> JoinEntry:
            self.stats.plans_considered += 1
            # Extend with the *singleton entry* (not the raw input): it
            # carries any single-input predicates already applied, with
            # the matching density and cost adjustments.
            right = singleton_entries[j]
            union = s_entry.indices | {j}
            cover = frozenset().union(*(names[i] for i in union))
            new_preds = [
                p
                for p in applied(cover)
                if not (p.columns() <= frozenset().union(*(names[i] for i in s_entry.indices)))
                and not (p.columns() <= names[j])
            ]
            out_span = s_entry.span.intersect(right.span)
            length = _span_length(out_span)
            selectivity = 1.0
            for pred in new_preds:
                selectivity *= pred.selectivity(stats_lookup)
            density = (
                s_entry.density
                * right.density
                * selectivity
                * leaf_pair_correlation(s_entry, j)
            )
            density = max(0.0, min(1.0, density))
            schema = s_entry.schema.concat(right.schema)
            predicate = conjoin(new_preds) if new_preds else None

            # -- stream-mode candidates (Section 4.1.3 stream formula) --
            right_prober = self._maybe_materialized(right)
            left_prober_costs = s_entry.costs
            n_left = s_entry.density * length
            n_right = right.density * length
            pred_cost = (
                s_entry.density
                * right.density
                * length
                * max(1, len(new_preds))
                * self.model.params.predicate_cost
            )
            stream_candidates = {
                "lockstep": (
                    s_entry.costs.stream_total + right.costs.stream_total,
                    (s_entry.stream_plan, right.stream_plan),
                ),
                "stream-probe": (
                    s_entry.costs.stream_total + right_prober.costs.probes(n_left),
                    (s_entry.stream_plan, right_prober),
                ),
                "probe-stream": (
                    right.costs.stream_total + left_prober_costs.probes(n_right),
                    (s_entry.probe_plan, right.stream_plan),
                ),
            }
            strategy = min(stream_candidates, key=lambda k: stream_candidates[k][0])
            stream_cost = stream_candidates[strategy][0] + pred_cost
            stream_children = stream_candidates[strategy][1]
            stream_plan = PhysicalPlan(
                kind=strategy,
                mode=STREAM,
                node=None,
                children=stream_children,
                schema=schema,
                span=out_span,
                density=density,
                costs=AccessCosts(stream_total=stream_cost, probe_unit=0.0),
                predicate=predicate,
            )

            # -- probed-mode candidates (Section 4.1.3 probed formula) --
            probe_unit, probe_strategy = self.model.join_probe_cost(
                s_entry.costs, right.costs, s_entry.density, right.density,
                len(new_preds),
            )
            probe_setup = s_entry.costs.setup + right.costs.setup
            probe_costs = AccessCosts(
                stream_total=stream_cost, probe_unit=probe_unit, setup=probe_setup
            )
            probe_plan = PhysicalPlan(
                kind="probe-join",
                mode=PROBE,
                node=None,
                children=(s_entry.probe_plan, right.probe_plan),
                schema=schema,
                span=out_span,
                density=density,
                costs=probe_costs,
                strategy=probe_strategy,
                predicate=predicate,
            )

            costs = AccessCosts(
                stream_total=stream_cost, probe_unit=probe_unit, setup=probe_setup
            )
            stream_plan.costs = costs
            canonical = canonical_schema(union)
            return JoinEntry(
                indices=union,
                schema=canonical,
                span=out_span,
                density=density,
                costs=costs,
                stream_plan=reordered(stream_plan, canonical),
                probe_plan=reordered(probe_plan, canonical),
            )

        singleton_entries = [singleton(j) for j in range(n)]
        level: dict[frozenset[int], JoinEntry] = {
            entry.indices: entry for entry in singleton_entries
        }
        singletons = dict(level)
        peak_before_block = max(peak_before_block, len(level))

        for _size in range(2, n + 1):
            next_level: dict[frozenset[int], JoinEntry] = {}
            for subset, entry in level.items():
                for j in range(n):
                    if j in subset:
                        continue
                    candidate = join(entry, j)
                    best = next_level.get(candidate.indices)
                    if best is None:
                        next_level[candidate.indices] = candidate
                    else:
                        merged = best
                        if candidate.costs.stream_total < best.costs.stream_total:
                            merged = JoinEntry(
                                indices=best.indices,
                                schema=best.schema,
                                span=best.span,
                                density=best.density,
                                costs=AccessCosts(
                                    stream_total=candidate.costs.stream_total,
                                    probe_unit=merged.costs.probe_unit,
                                    setup=merged.costs.setup,
                                ),
                                stream_plan=candidate.stream_plan,
                                probe_plan=best.probe_plan,
                            )
                        if candidate.costs.probe_unit < merged.costs.probe_unit:
                            merged = JoinEntry(
                                indices=merged.indices,
                                schema=merged.schema,
                                span=merged.span,
                                density=merged.density,
                                costs=AccessCosts(
                                    stream_total=merged.costs.stream_total,
                                    probe_unit=candidate.costs.probe_unit,
                                    setup=candidate.costs.setup,
                                ),
                                stream_plan=merged.stream_plan,
                                probe_plan=candidate.probe_plan,
                            )
                        next_level[candidate.indices] = merged
            level = next_level
            peak_before_block = max(peak_before_block, len(level))

        final = level[frozenset(range(n))] if n > 1 else singletons[frozenset((0,))]

        considered = self.stats.plans_considered - considered_before
        self.stats.peak_plans_stored = max(
            self.stats.peak_plans_stored, peak_before_block
        )
        self.stats.per_block.append((n, considered, peak_before_block))

        return self._finish_join_block(block, final)

    def _finish_join_block(self, block: JoinBlock, final: JoinEntry) -> PlannedOutput:
        """Apply the post-shift and the final projection to the root schema."""
        annotation = self.annotated.of(block.root)
        root_schema = block.root.schema
        steps: list[ChainStep] = []
        if block.post_shift:
            steps.append(ChainStep("shift", offset=block.post_shift))
        if tuple(root_schema.names) != tuple(final.schema.names):
            steps.append(ChainStep("project", names=tuple(root_schema.names)))
        if not steps:
            return PlannedOutput(
                schema=final.schema,
                span=final.span,
                density=final.density,
                costs=final.costs,
                stream_plan=final.stream_plan,
                probe_plan=final.probe_plan,
            )
        costs = self.model.chain_costs(
            final.costs, final.density * _span_length(final.span), 0
        )
        common = dict(
            node=block.root,
            schema=root_schema,
            span=annotation.restricted_span,
            density=final.density,
            costs=costs,
            steps=tuple(steps),
        )
        return PlannedOutput(
            schema=root_schema,
            span=annotation.restricted_span,
            density=final.density,
            costs=costs,
            stream_plan=PhysicalPlan(
                kind="chain", mode=STREAM, children=(final.stream_plan,), **common
            ),
            probe_plan=PhysicalPlan(
                kind="chain", mode=PROBE, children=(final.probe_plan,), **common
            ),
        )

    # -- non-unit-scope blocks (Section 4.1.2) ----------------------------------------

    def _plan_unary(self, block: UnaryBlock) -> PlannedOutput:
        self.stats.blocks_planned += 1
        child = self.plan(block.child)
        op = block.root
        annotation = self.annotated.of(op)
        out_span = annotation.restricted_span
        length = _span_length(out_span)

        if isinstance(op, WindowAggregate):
            costs, naive_stream = self.model.window_agg_costs(
                child.costs, op.width, length, child.density
            )
            cache_a_cost = (
                child.costs.stream_total
                + length * (2 * self.model.params.cache_op_cost + self.model.params.record_cost)
            )
            if cache_a_cost <= naive_stream:
                strategy, stream_child, cache = "cache-a", child.stream_plan, op.width
            else:
                strategy, stream_child, cache = "naive", child.probe_plan, None
            stream_plan = PhysicalPlan(
                kind="window-agg", mode=STREAM, node=op, children=(stream_child,),
                schema=op.schema, span=out_span, density=annotation.density,
                costs=costs, strategy=strategy, cache_size=cache,
            )
            probe_plan = PhysicalPlan(
                kind="window-agg", mode=PROBE, node=op, children=(child.probe_plan,),
                schema=op.schema, span=out_span, density=annotation.density,
                costs=costs, strategy="naive",
            )
        elif isinstance(op, ValueOffset):
            costs = self.model.value_offset_costs(
                child.costs, op.reach, length, max(child.density, 1e-9)
            )
            naive_stream = length * costs.probe_unit
            if costs.stream_total <= naive_stream:
                strategy, stream_child, cache = "incremental", child.stream_plan, op.reach
            else:
                strategy, stream_child, cache = "naive", child.probe_plan, None
            stream_plan = PhysicalPlan(
                kind="value-offset", mode=STREAM, node=op, children=(stream_child,),
                schema=op.schema, span=out_span, density=annotation.density,
                costs=costs, strategy=strategy, cache_size=cache,
            )
            probe_plan = PhysicalPlan(
                kind="value-offset", mode=PROBE, node=op, children=(child.probe_plan,),
                schema=op.schema, span=out_span, density=annotation.density,
                costs=costs, strategy="naive",
            )
        elif isinstance(op, CumulativeAggregate):
            costs = self.model.cumulative_costs(child.costs, length)
            stream_plan = PhysicalPlan(
                kind="cumulative-agg", mode=STREAM, node=op,
                children=(child.stream_plan,), schema=op.schema, span=out_span,
                density=annotation.density, costs=costs, strategy="running",
            )
            probe_plan = PhysicalPlan(
                kind="cumulative-agg", mode=PROBE, node=op,
                children=(child.probe_plan,), schema=op.schema, span=out_span,
                density=annotation.density, costs=costs, strategy="naive",
            )
        elif isinstance(op, GlobalAggregate):
            costs = self.model.global_agg_costs(child.costs, length)
            stream_plan = PhysicalPlan(
                kind="global-agg", mode=STREAM, node=op,
                children=(child.stream_plan,), schema=op.schema, span=out_span,
                density=annotation.density, costs=costs, strategy="compute-once",
            )
            probe_plan = PhysicalPlan(
                kind="global-agg", mode=PROBE, node=op,
                children=(child.stream_plan,), schema=op.schema, span=out_span,
                density=annotation.density, costs=costs, strategy="compute-once",
            )
        else:  # pragma: no cover - blocks.py only emits the above
            raise OptimizerError(f"unknown unary block operator {op.describe()!r}")

        return PlannedOutput(
            schema=op.schema,
            span=out_span,
            density=annotation.density,
            costs=costs,
            stream_plan=stream_plan,
            probe_plan=probe_plan,
        )
