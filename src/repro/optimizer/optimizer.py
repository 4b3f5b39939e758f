"""The six-step query optimization algorithm (paper Section 4).

``optimize`` runs:

1. query specification — the caller supplies a validated
   :class:`~repro.algebra.graph.Query` and (optionally) a requested
   span (the query template's position sequence, Figure 6);
2. meta-information propagation — bottom-up annotation plus top-down
   span restriction (:mod:`repro.optimizer.annotate`);
3. query transformations — the Section 3.1 heuristics
   (:mod:`repro.optimizer.rewrite`);
4. block identification (:mod:`repro.optimizer.blocks`);
5. block-wise plan generation (:mod:`repro.optimizer.joinenum`);
6. plan selection — the cheapest stream-access plan at the Start
   operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.model.span import Span
from repro.algebra.graph import Query
from repro.analysis import hooks
from repro.catalog.catalog import Catalog
from repro.obs.tracer import CATEGORY_OPTIMIZER, Tracer, maybe_span
from repro.optimizer.annotate import AnnotatedQuery, annotate
from repro.optimizer.blocks import block_tree, count_blocks
from repro.optimizer.costmodel import CostModel, CostParams
from repro.optimizer.joinenum import BlockPlanner, PlannedOutput, PlanStats
from repro.optimizer.plans import OptimizedPlan
from repro.optimizer.rewrite import RewriteTrace, apply_rewrites


@dataclass
class OptimizationResult:
    """Everything the optimizer produced, for inspection and execution.

    Attributes:
        plan: the selected plan and its headline numbers.
        planned: what Step 5 retained for the query's root block — the
            cheapest stream-mode plan (the one Step 6 selects) and the
            cheapest probed-mode plan, with their shared estimates.
        rewritten: the transformed query actually planned.
        annotated: per-node metadata of the rewritten query.
        stats: enumeration instrumentation (Property 4.1 counters).
        trace: rewrite rules fired.
    """

    plan: OptimizedPlan
    planned: PlannedOutput
    rewritten: Query
    annotated: AnnotatedQuery
    stats: PlanStats
    trace: RewriteTrace

    def explain(self) -> str:
        """The EXPLAIN text of the chosen plan."""
        return self.plan.explain()


def optimize(
    query: Query,
    catalog: Optional[Catalog] = None,
    span: Optional[Span] = None,
    params: Optional[CostParams] = None,
    rewrite: bool = True,
    restrict_spans: bool = True,
    tracer: Optional[Tracer] = None,
) -> OptimizationResult:
    """Produce the cheapest stream-access evaluation plan for ``query``.

    Args:
        query: the declarative query.
        catalog: base-sequence metadata source (spans, densities,
            histograms, correlations, access profiles).
        span: the requested output span; defaults to the query's
            natural bounded span.
        params: cost-model constants.
        rewrite: apply Step 3 transformations (disable to measure their
            benefit).
        restrict_spans: apply the top-down global span optimization
            (Section 3.2); disable only to measure its benefit.
        tracer: when active, the run records an ``optimize`` span with
            one child per optimizer step (rewrite, annotate, blocks,
            plan-gen, selection — Steps 3, 2, 4, 5, 6; Step 1 is the
            caller's query specification).
    """
    with maybe_span(tracer, "optimize", CATEGORY_OPTIMIZER):
        with maybe_span(tracer, "rewrite", CATEGORY_OPTIMIZER) as rewrite_span:
            if rewrite:
                rewritten, trace = apply_rewrites(query)
            else:
                rewritten, trace = query, RewriteTrace()
            # Opt-in self-check (REPRO_VERIFY=1): every recorded rewrite
            # step must replay as legal and equivalence-preserving.
            hooks.verify_rewrites_hook(trace)
            if rewrite_span is not None:
                rewrite_span.attrs["rules_fired"] = list(trace.applied)

        with maybe_span(tracer, "annotate", CATEGORY_OPTIMIZER) as annotate_span:
            annotated = annotate(
                rewritten, catalog, span, restrict_spans=restrict_spans
            )
            # Opt-in self-check: scope closure, span propagation and
            # schema flow of the annotated query.
            hooks.verify_query_hook(rewritten, annotated)
            if annotate_span is not None:
                annotate_span.attrs["output_span"] = str(annotated.output_span)

        with maybe_span(tracer, "blocks", CATEGORY_OPTIMIZER) as blocks_span:
            blocks = block_tree(rewritten.root)
            if blocks_span is not None:
                blocks_span.attrs["block_count"] = count_blocks(blocks)

        with maybe_span(tracer, "plan-gen", CATEGORY_OPTIMIZER) as plangen_span:
            planner = BlockPlanner(annotated, catalog=catalog, model=CostModel(params))
            output = planner.plan(blocks)
            if plangen_span is not None:
                plangen_span.attrs["plans_considered"] = (
                    planner.stats.plans_considered
                )
                plangen_span.attrs["peak_plans_stored"] = (
                    planner.stats.peak_plans_stored
                )

        with maybe_span(tracer, "selection", CATEGORY_OPTIMIZER) as select_span:
            # Opt-in self-check: cache finiteness and cost sanity of the
            # generated plan.
            hooks.verify_plan_hook(output.stream_plan)
            plan = OptimizedPlan(
                plan=output.stream_plan,
                output_span=annotated.output_span,
                estimated_cost=output.costs.stream_total,
                plans_considered=planner.stats.plans_considered,
                peak_plans_stored=planner.stats.peak_plans_stored,
                block_count=count_blocks(blocks),
                rewrites=list(trace.applied),
            )
            if select_span is not None:
                select_span.attrs["estimated_cost"] = round(
                    plan.estimated_cost, 6
                )
    return OptimizationResult(
        plan=plan,
        planned=output,
        rewritten=rewritten,
        annotated=annotated,
        stats=planner.stats,
        trace=trace,
    )
