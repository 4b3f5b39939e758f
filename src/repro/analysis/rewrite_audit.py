"""Replay a rewrite trace and re-verify every step's legality.

The optimizer records each rule application as a
:class:`~repro.optimizer.rewrite.RewriteStep` with the subtree before
and after.  This audit re-checks each step against:

* **Proposition 3.1** — a push rule must satisfy
  :func:`~repro.optimizer.rewrite.is_legal_push` for the operator it
  moved and the operator it moved through; a selection pushed through a
  value offset or aggregate (non-unit scope) is flagged here.
* **Definition 3.1** equivalence — the replacement subtree produces the
  same schema and the same composed input scope on every leaf, so the
  rewritten query reads the same scopes of the same inputs.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.base import CORRUPTION_ERRORS
from repro.analysis.diagnostics import Diagnostic, Severity, VerificationReport
from repro.optimizer.rewrite import RewriteStep, RewriteTrace, is_legal_push

RULE_ID = "rewrite-legality"
CITATION = "Prop 3.1 / Def 3.1"

#: Rule names the Section 3.1 engine can emit; anything else in a trace
#: did not come from the rewrite engine.
KNOWN_RULES = frozenset(
    {
        "combine_selects",
        "combine_projects",
        "combine_offsets",
        "drop_zero_offset",
        "push_select_through_project",
        "push_select_into_compose",
        "push_project_into_compose",
        "push_offset_through_select",
        "push_offset_through_project",
        "push_offset_through_compose",
        "push_offset_through_window",
    }
)


def audit_step(step: RewriteStep, path: str) -> Iterator[Diagnostic]:
    """Diagnostics for one recorded rule application."""
    if step.rule not in KNOWN_RULES:
        yield Diagnostic(
            RULE_ID, Severity.WARNING, path,
            f"trace records unknown rewrite rule {step.rule!r}",
            CITATION,
        )

    # Prop 3.1: re-verify the push the rule claims to have performed.
    if step.rule.startswith("push"):
        mover = step.before
        if not mover.inputs:
            yield Diagnostic(
                RULE_ID, Severity.ERROR, path,
                f"push step's before-tree {mover.describe()!r} has no input "
                "to push through",
                CITATION,
            )
        else:
            through = mover.inputs[0]
            if not is_legal_push(mover, through):
                yield Diagnostic(
                    RULE_ID, Severity.ERROR, path,
                    f"replayed push of {mover.describe()!r} through "
                    f"{through.describe()!r} is illegal: the operator moved "
                    "through does not have unit-size relative scope for this "
                    "mover (Section 3.1's negative rules)",
                    CITATION,
                )

    # Def 3.1: same function of the same inputs — schema preserved ...
    try:
        before_schema = step.before.schema
        after_schema = step.after.schema
    except CORRUPTION_ERRORS as exc:
        yield Diagnostic(
            RULE_ID, Severity.ERROR, path,
            f"schema comparison failed while replaying the step: {exc}",
            CITATION,
        )
        return
    if before_schema != after_schema:
        yield Diagnostic(
            RULE_ID, Severity.ERROR, path,
            f"rewrite changed the output schema from {before_schema!r} to "
            f"{after_schema!r}",
            CITATION,
        )

    # ... and the composed input scope of every leaf preserved.
    try:
        before_scopes = step.before.query_scope_on_leaves()
        after_scopes = step.after.query_scope_on_leaves()
    except CORRUPTION_ERRORS as exc:
        yield Diagnostic(
            RULE_ID, Severity.ERROR, path,
            f"scope comparison failed while replaying the step: {exc}",
            CITATION,
        )
        return
    if before_scopes != after_scopes:
        yield Diagnostic(
            RULE_ID, Severity.ERROR, path,
            "rewrite changed the composed input scopes of the subtree's "
            "leaves — the transformed query reads different input scopes "
            "(Definition 3.1 equivalence violated)",
            CITATION,
        )


def audit_rewrites(trace: RewriteTrace) -> VerificationReport:
    """Re-verify every recorded rewrite step; returns the report."""
    report = VerificationReport(subject="rewrite", rules_run=[RULE_ID])
    for index, step in enumerate(trace.steps):
        report.diagnostics.extend(audit_step(step, f"step[{index}]:{step.rule}"))
    return report
