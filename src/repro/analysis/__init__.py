"""Static analysis of query graphs, physical plans and query source text.

A rule-based verifier that checks the paper's correctness invariants
without running anything: scope closure (Proposition 2.1), span
propagation (Section 3.2 Step 2), schema flow (Section 2.2), rewrite
legality (Proposition 3.1 / Definition 3.1), cache finiteness
(Theorem 3.1 / Lemma 3.2) and cost sanity (Section 4.1).

Entry points: :func:`verify_query`, :func:`verify_plan`,
:func:`verify_rewrites`, :func:`verify_optimization`; the ``repro
lint`` and ``repro verify-plan`` CLI subcommands and the opt-in
``REPRO_VERIFY=1`` hooks (:mod:`repro.analysis.hooks`) build on them.
Partition and effect soundness are certificates, not plan rules
(:func:`certify` / :func:`check_certificate`, :func:`certify_effects` /
:func:`check_effect_certificate`): each derives its claim from the plan
when asked, so a plan carries no analysis claims for the verifier to
audit.

Attributes are loaded lazily (PEP 562) so that the optimizer and the
executor can import :mod:`repro.analysis.hooks` without dragging in
the verifier (and, through its plan rules, the execution layer) at
import time — the hooks only load the verifier when ``REPRO_VERIFY``
is actually set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

_EXPORTS = {
    "Diagnostic": "repro.analysis.diagnostics",
    "Severity": "repro.analysis.diagnostics",
    "SourceDiagnostic": "repro.analysis.diagnostics",
    "VerificationReport": "repro.analysis.diagnostics",
    "PLAN_RULES": "repro.analysis.base",
    "QUERY_RULES": "repro.analysis.base",
    "PlanContext": "repro.analysis.base",
    "QueryContext": "repro.analysis.base",
    "RuleInfo": "repro.analysis.base",
    "plan_fingerprint": "repro.analysis.base",
    "plan_rule": "repro.analysis.base",
    "query_rule": "repro.analysis.base",
    "EffectCertificate": "repro.analysis.effects",
    "EffectCounters": "repro.analysis.effects",
    "EffectSpec": "repro.analysis.effects",
    "Interval": "repro.analysis.effects",
    "analyze_effects": "repro.analysis.effects",
    "analyze_expr": "repro.analysis.effects",
    "certify_effects": "repro.analysis.effects",
    "check_effect_certificate": "repro.analysis.effects",
    "require_effect_certificate": "repro.analysis.effects",
    "require_spec": "repro.analysis.effects",
    "PartitionCertificate": "repro.analysis.partition",
    "PartitionContract": "repro.analysis.partition",
    "PartitionCounters": "repro.analysis.partition",
    "analyze_partition": "repro.analysis.partition",
    "certify": "repro.analysis.partition",
    "check_certificate": "repro.analysis.partition",
    "derive_contract": "repro.analysis.partition",
    "require_certificate": "repro.analysis.partition",
    "audit_rewrites": "repro.analysis.rewrite_audit",
    "verify_optimization": "repro.analysis.verifier",
    "verify_plan": "repro.analysis.verifier",
    "verify_query": "repro.analysis.verifier",
    "verify_rewrites": "repro.analysis.verifier",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static import surface for type checkers
    from repro.analysis.base import (
        PLAN_RULES,
        QUERY_RULES,
        PlanContext,
        QueryContext,
        RuleInfo,
        plan_fingerprint,
        plan_rule,
        query_rule,
    )
    from repro.analysis.diagnostics import (
        Diagnostic,
        Severity,
        SourceDiagnostic,
        VerificationReport,
    )
    from repro.analysis.effects import (
        EffectCertificate,
        EffectCounters,
        EffectSpec,
        Interval,
        analyze_effects,
        analyze_expr,
        certify_effects,
        check_effect_certificate,
        require_effect_certificate,
        require_spec,
    )
    from repro.analysis.partition import (
        PartitionCertificate,
        PartitionContract,
        PartitionCounters,
        analyze_partition,
        certify,
        check_certificate,
        derive_contract,
        require_certificate,
    )
    from repro.analysis.rewrite_audit import audit_rewrites
    from repro.analysis.verifier import (
        verify_optimization,
        verify_plan,
        verify_query,
        verify_rewrites,
    )


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
