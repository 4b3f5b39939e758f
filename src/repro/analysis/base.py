"""The rule framework of the static verifier.

A *rule* is a generator function taking a context object and yielding
:class:`~repro.analysis.diagnostics.Diagnostic` findings.  Rules are
registered with the :func:`query_rule` / :func:`plan_rule` decorators
and executed by :mod:`repro.analysis.verifier`, which builds the
context, runs every registered rule and collects the findings into a
report.  Rules never raise on a bad graph — they *report*; a rule that
itself crashes is converted into an ``ERROR`` finding so one broken
invariant cannot hide another.

Also here: the frame the partition and effect certificate analyses
share (:class:`CertificateAnalysis`) — the structural plan fingerprint,
the span, report and counters around a prover or checker run, the
typed refusal, and the typed parsing of certificates that arrive from
outside the process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Union,
)

from repro.analysis.diagnostics import Diagnostic, Severity, VerificationReport
from repro.counters import CounterSet
from repro.errors import ReproError, VerificationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.graph import Query
    from repro.algebra.node import Operator
    from repro.obs.tracer import Tracer
    from repro.optimizer.annotate import AnnotatedQuery
    from repro.optimizer.plans import OptimizedPlan, PhysicalPlan
    from repro.optimizer.rewrite import RewriteTrace

#: What a rule reports, instead of crashing on, when a corrupted graph
#: makes a recomputation raise: the library's typed errors, and the
#: ``AttributeError``/``TypeError`` a wrongly typed patched value (a
#: ``scope_on`` returning a string) raises.
CORRUPTION_ERRORS = (ReproError, AttributeError, TypeError)


@dataclass
class QueryContext:
    """Everything a logical-graph rule may inspect.

    Attributes:
        query: the query under verification.
        annotated: optimizer annotations, when the query has been
            through Step 2 (span rules need them; scope/schema rules
            do not).
        paths: node path strings keyed by ``id(node)``.
    """

    query: "Query"
    annotated: Optional["AnnotatedQuery"] = None
    paths: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.paths:
            self.paths = operator_paths(self.query.root)

    def path(self, node: "Operator") -> str:
        """The path of ``node``; its description if it is not in the tree."""
        return self.paths.get(id(node), node.describe())


@dataclass
class PlanContext:
    """Everything a physical-plan rule may inspect."""

    plan: "PhysicalPlan"
    paths: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.paths:
            self.paths = plan_paths(self.plan)

    def path(self, node: "PhysicalPlan") -> str:
        """The path of ``node``; its kind if it is not in the tree."""
        return self.paths.get(id(node), node.kind)


def operator_paths(root: "Operator") -> dict[int, str]:
    """Slash-separated paths for every operator, keyed by ``id(node)``."""
    paths: dict[int, str] = {}

    def visit(node: "Operator", prefix: str) -> None:
        paths[id(node)] = prefix
        for index, child in enumerate(node.inputs):
            visit(child, f"{prefix}/{index}:{child.name}")

    visit(root, f"root:{root.name}")
    return paths


def plan_paths(root: "PhysicalPlan") -> dict[int, str]:
    """Slash-separated paths for every plan node, keyed by ``id(node)``."""
    paths: dict[int, str] = {}

    def visit(node: "PhysicalPlan", prefix: str) -> None:
        paths[id(node)] = prefix
        for index, child in enumerate(node.children):
            visit(child, f"{prefix}/{index}:{child.kind}")

    visit(root, f"root:{root.kind}")
    return paths


def root_plan(plan: "Union[PhysicalPlan, OptimizedPlan]") -> "PhysicalPlan":
    """The root physical plan of either accepted plan type."""
    root = getattr(plan, "plan", None)
    if root is not None:
        return root  # type: ignore[no-any-return]
    return plan  # type: ignore[return-value]


def plan_fingerprint(plan: "Union[PhysicalPlan, OptimizedPlan]") -> str:
    """A structural hash binding a certificate to one plan.

    Covers everything partition and effect soundness depend on: tree
    shape, plan kinds, access modes, strategies, spans, chain steps,
    cache sizes, output schemas and predicates.  Cost estimates are
    deliberately excluded — re-costing a plan does not invalidate its
    certificates.
    """
    root = root_plan(plan)
    paths = plan_paths(root)
    lines: list[str] = []
    for node in root.walk():
        fields = (
            paths[id(node)], node.kind, node.mode, node.strategy, repr(node.span),
            repr(node.cache_size), ";".join(step.describe() for step in node.steps),
            ",".join(node.schema.names), repr(node.predicate),
        )
        lines.append("|".join(fields))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


# -- the certificate frame ----------------------------------------------------


@dataclass
class CertificateCounters(CounterSet):
    """The counters every certificate analysis keeps.

    Attributes:
        certificates_issued: certificates the prover produced.
        certificates_rejected: prover runs that ended in error findings
            instead of a certificate.
        checks_run: independent certificate re-verifications.
        checks_failed: re-verifications that produced error findings.
    """

    certificates_issued: int = 0
    certificates_rejected: int = 0
    checks_run: int = 0
    checks_failed: int = 0


class Certificate:
    """JSON text for a certificate class with ``to_dict``/``from_dict``."""

    #: How parse errors name the certificate.
    KIND: ClassVar[str] = "certificate"

    def to_json(self) -> str:
        """The certificate as pretty-printed JSON text."""
        return json.dumps(self.to_dict(), indent=2)  # type: ignore[attr-defined]

    @classmethod
    def from_json(cls, text: str) -> Any:
        """Parse a certificate from :meth:`to_json` output; bad text is typed."""
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ReproError(f"{cls.KIND} is not valid JSON: {error}") from None
        if not isinstance(data, dict):
            raise ReproError(f"{cls.KIND} JSON must be an object")
        return cls.from_dict(data)  # type: ignore[attr-defined]


def object_entries(items: list, what: str) -> list[Mapping[str, object]]:
    """``items`` unchanged once every entry is known to be an object."""
    for item in items:
        if not isinstance(item, Mapping):
            raise ReproError(f"{what} entries must be objects, got {item!r}")
    return items


@dataclass(frozen=True)
class CertificateAnalysis:
    """The prover/checker frame one certificate analysis fills in.

    The analysis supplies only its derivation and its comparison; the
    frame owns the rest — the tracer span and the report, the
    issued/rejected/checks counters, rejecting a certificate issued for
    another plan before comparing anything, and the typed error a
    refused plan or a rejected certificate raises.

    Attributes:
        name: span and report prefix (``<name>-certify``, ``<name>-check``).
        noun: names the checked certificate (``<noun>-certificate``).
        rules: every rule identifier the analysis reports under.
        refusal: headline of the error a refused plan raises.
        error: the typed soundness error.
        fingerprint_rule: the rule a fingerprint mismatch reports under.
        citation: the paper result that finding cites.
        counters: the module-level default counters.
    """

    name: str
    noun: str
    rules: tuple[str, ...]
    refusal: str
    error: type[VerificationError]
    fingerprint_rule: str
    citation: str
    counters: CertificateCounters

    def prove(
        self,
        plan: "Union[PhysicalPlan, OptimizedPlan]",
        derive: Callable[["PhysicalPlan", VerificationReport, Any], Any],
        counters: Optional[CertificateCounters],
        tracer: "Optional[Tracer]",
        **attrs: object,
    ) -> tuple[Any, VerificationReport]:
        """``(certificate, report)`` of ``derive(root, report, counters)``.

        ``derive`` returns ``None`` exactly when it reported an error.
        """
        from repro.obs.tracer import CATEGORY_ANALYSIS, maybe_span

        counters = self.counters if counters is None else counters
        report = VerificationReport(subject=self.name, rules_run=list(self.rules))
        with maybe_span(tracer, f"{self.name}-certify", CATEGORY_ANALYSIS, **attrs):
            certificate = derive(root_plan(plan), report, counters)
            if certificate is None:
                counters.certificates_rejected += 1
            else:
                counters.certificates_issued += 1
        return certificate, report

    def certify(self, proved: tuple[Any, VerificationReport]) -> Any:
        """The certificate of a :meth:`prove` result, or the typed refusal."""
        certificate, report = proved
        if certificate is None:
            self._raise(self.refusal, report)
        return certificate

    def check(
        self,
        plan: "Union[PhysicalPlan, OptimizedPlan]",
        cert: Any,
        compare: Callable[["PhysicalPlan", Any, VerificationReport, Any], None],
        counters: Optional[CertificateCounters],
        tracer: "Optional[Tracer]",
        **attrs: object,
    ) -> VerificationReport:
        """Re-verify ``cert`` with ``compare(root, cert, report, counters)``.

        A certificate whose fingerprint names another plan is rejected
        before anything is compared.
        """
        from repro.obs.tracer import CATEGORY_ANALYSIS, maybe_span

        counters = self.counters if counters is None else counters
        report = VerificationReport(
            subject=f"{self.noun}-certificate", rules_run=list(self.rules)
        )
        with maybe_span(tracer, f"{self.name}-check", CATEGORY_ANALYSIS, **attrs):
            counters.checks_run += 1
            root = root_plan(plan)
            if cert.fingerprint != plan_fingerprint(root):
                report.add(
                    Diagnostic(
                        self.fingerprint_rule, Severity.ERROR, "root",
                        f"certificate fingerprint {cert.fingerprint[:23]}... was "
                        "issued for a different plan (structural hash mismatch)",
                        self.citation,
                    )
                )
            else:
                compare(root, cert, report, counters)
            if not report.ok:
                counters.checks_failed += 1
        return report

    def require(self, report: VerificationReport, cert: Any) -> Any:
        """``cert`` once its check ``report`` is clean; the typed error otherwise."""
        if not report.ok:
            self._raise(f"{self.noun} certificate rejected", report)
        return cert

    def _raise(self, headline: str, report: VerificationReport) -> None:
        raise self.error(f"{headline}: {report.error_summary()}", report=report)


@dataclass(frozen=True)
class RuleInfo:
    """Registration record of one rule (its crash findings carry ``rule_id``)."""

    rule_id: str
    citation: str
    check: Callable[..., Iterator[Diagnostic]]
    needs_annotations: bool = False


#: Registered logical-graph rules, in registration order.
QUERY_RULES: list[RuleInfo] = []
#: Registered physical-plan rules, in registration order.
PLAN_RULES: list[RuleInfo] = []


def query_rule(rule_id: str, citation: str = "", needs_annotations: bool = False):
    """Register a logical-graph rule.

    The decorated generator receives a :class:`QueryContext` and yields
    diagnostics; ``needs_annotations`` rules are skipped when the
    context has no :class:`~repro.optimizer.annotate.AnnotatedQuery`.
    """

    def decorate(func: Callable[[QueryContext], Iterable[Diagnostic]]):
        QUERY_RULES.append(RuleInfo(rule_id, citation, func, needs_annotations))
        return func

    return decorate


def plan_rule(rule_id: str, citation: str = ""):
    """Register a physical-plan rule (receives a :class:`PlanContext`)."""

    def decorate(func: Callable[[PlanContext], Iterable[Diagnostic]]):
        PLAN_RULES.append(RuleInfo(rule_id, citation, func))
        return func

    return decorate


def run_rule(info: RuleInfo, context) -> list[Diagnostic]:
    """Execute one rule, converting a rule crash into an ERROR finding.

    A rule that raises mid-scan has usually tripped over the very
    corruption it exists to detect (e.g. a schema recomputation raising
    on an unknown column), so the exception text becomes the finding.
    """
    try:
        findings = list(info.check(context))
    except Exception as exc:  # noqa: BLE001 - findings must not be lost
        return [
            Diagnostic(
                rule=info.rule_id,
                severity=Severity.ERROR,
                path="root",
                message=f"rule crashed while checking: {exc}",
                citation=info.citation,
            )
        ]
    # Backfill the registry citation so every emitted finding carries
    # one even when the rule body omitted it.
    return [
        dataclasses.replace(d, citation=info.citation)
        if not d.citation and info.citation
        else d
        for d in findings
    ]
