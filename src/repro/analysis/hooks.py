"""Opt-in verification hooks for the optimizer and the executor.

Setting ``REPRO_VERIFY=1`` in the environment makes the optimizer
verify its own intermediate results (after annotation, after
rewriting, after plan generation) and makes the executor verify a plan
before running it — the plan rules, cache finiteness and cost sanity;
partition and effect soundness stay with their certificate checkers.
Any error-severity finding raises
:class:`~repro.errors.VerificationError`.  With the variable unset the
hooks cost one dictionary lookup and import nothing.

This module deliberately imports nothing from the rest of the library
at module level, so the optimizer and executor can import it without
creating import cycles; the verifier is loaded lazily on the first
enabled call.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.graph import Query
    from repro.analysis.diagnostics import VerificationReport
    from repro.optimizer.annotate import AnnotatedQuery
    from repro.optimizer.plans import OptimizedPlan, PhysicalPlan
    from repro.optimizer.rewrite import RewriteTrace

#: Environment variable gating the hooks.
ENV_VAR = "REPRO_VERIFY"

_DISABLED_VALUES = frozenset({"", "0", "false", "no", "off"})


def enabled() -> bool:
    """Whether ``REPRO_VERIFY`` asks for verification."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in _DISABLED_VALUES


def verify_query_hook(
    query: "Query", annotated: "Optional[AnnotatedQuery]" = None
) -> "Optional[VerificationReport]":
    """Verify a query graph (with annotations if given); raise on errors."""
    if not enabled():
        return None
    from repro.analysis.verifier import verify_query

    return verify_query(
        query, annotated, with_annotations=annotated is not None
    ).raise_if_errors()


def verify_rewrites_hook(trace: "RewriteTrace") -> "Optional[VerificationReport]":
    """Audit a rewrite trace; raise on errors."""
    if not enabled():
        return None
    from repro.analysis.verifier import verify_rewrites

    return verify_rewrites(trace).raise_if_errors()


def verify_plan_hook(
    plan: "PhysicalPlan | OptimizedPlan",
) -> "Optional[VerificationReport]":
    """Verify a physical plan; raise on errors."""
    if not enabled():
        return None
    from repro.analysis.verifier import verify_plan

    return verify_plan(plan).raise_if_errors()
