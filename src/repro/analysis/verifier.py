"""Entry points of the static verifier.

``verify_query`` runs the logical-graph rules over a
:class:`~repro.algebra.graph.Query`; ``verify_plan`` runs the
physical-plan rules over a :class:`~repro.optimizer.plans.PhysicalPlan`
(or an :class:`~repro.optimizer.plans.OptimizedPlan`);
``verify_rewrites`` audits a recorded rewrite trace; and
``verify_optimization`` runs all three over one optimizer output.
Every entry point returns a
:class:`~repro.analysis.diagnostics.VerificationReport` — call
``raise_if_errors()`` on it to turn error findings into a
:class:`~repro.errors.VerificationError`.
"""

from __future__ import annotations

from typing import Optional, Union

# Importing the rule modules populates the registries.
import repro.analysis.plan_rules  # noqa: F401 - registration side effect
import repro.analysis.query_rules  # noqa: F401 - registration side effect
from repro.algebra.graph import Query
from repro.analysis.base import (
    PLAN_RULES,
    QUERY_RULES,
    PlanContext,
    QueryContext,
    run_rule,
)
from repro.analysis.diagnostics import Diagnostic, Severity, VerificationReport
from repro.analysis.rewrite_audit import audit_rewrites
from repro.catalog.catalog import Catalog
from repro.errors import ReproError
from repro.model.span import Span
from repro.optimizer.annotate import AnnotatedQuery, annotate
from repro.optimizer.optimizer import OptimizationResult
from repro.optimizer.plans import OptimizedPlan, PhysicalPlan
from repro.optimizer.rewrite import RewriteTrace


def verify_query(
    query: Query,
    annotated: Optional[AnnotatedQuery] = None,
    *,
    catalog: Optional[Catalog] = None,
    span: Optional[Span] = None,
    with_annotations: bool = True,
) -> VerificationReport:
    """Run every logical-graph rule over ``query``.

    Args:
        query: the query graph to verify.
        annotated: optimizer annotations to check, if the caller already
            has them (e.g. from an :func:`~repro.optimizer.optimize`
            run).
        catalog: used to compute annotations when ``annotated`` is not
            supplied.
        span: evaluation span for computed annotations.
        with_annotations: compute annotations when not supplied, so the
            span-containment rule can run; a failure to annotate is
            itself reported as an error finding rather than raised.
    """
    report = VerificationReport(subject="query")
    if annotated is None and with_annotations:
        try:
            annotated = annotate(query, catalog, span)
        except ReproError as exc:
            report.add(
                Diagnostic(
                    "span-containment", Severity.ERROR, "root",
                    f"span annotation failed: {exc}", "Sec 3.2 Step 2",
                )
            )
            report.rules_run.append("span-containment")
    context = QueryContext(query=query, annotated=annotated)
    for info in QUERY_RULES:
        if info.needs_annotations and context.annotated is None:
            continue
        if info.rule_id not in report.rules_run:
            report.rules_run.append(info.rule_id)
        report.diagnostics.extend(run_rule(info, context))
    return report


def verify_plan(plan: Union[PhysicalPlan, OptimizedPlan]) -> VerificationReport:
    """Run every physical-plan rule over ``plan``."""
    root = plan.plan if isinstance(plan, OptimizedPlan) else plan
    report = VerificationReport(subject="plan")
    context = PlanContext(plan=root)
    for info in PLAN_RULES:
        report.rules_run.append(info.rule_id)
        report.diagnostics.extend(run_rule(info, context))
    return report


def verify_rewrites(trace: RewriteTrace) -> VerificationReport:
    """Audit a recorded rewrite trace (Prop 3.1 / Def 3.1)."""
    return audit_rewrites(trace)


def verify_optimization(result: OptimizationResult) -> VerificationReport:
    """Verify one optimizer output end to end.

    Runs the logical rules over the rewritten query with its
    annotations, audits the rewrite trace, and runs the physical rules
    over the chosen plan; the findings are folded into one report.
    """
    report = VerificationReport(subject="optimization")
    report.extend(verify_query(result.rewritten, result.annotated))
    report.extend(verify_rewrites(result.trace))
    report.extend(verify_plan(result.plan))
    return report
