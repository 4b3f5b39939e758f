"""The rule framework of the static verifier.

A *rule* is a generator function taking a context object and yielding
:class:`~repro.analysis.diagnostics.Diagnostic` findings.  Rules are
registered with the :func:`query_rule` / :func:`plan_rule` decorators
and executed by :mod:`repro.analysis.verifier`, which builds the
context, runs every registered rule and collects the findings into a
report.  Rules never raise on a bad graph — they *report*; a rule that
itself crashes is converted into an ``ERROR`` finding so one broken
invariant cannot hide another.

Also here: what the partition and effect certificate analyses share —
unwrapping a plan argument, raising a typed soundness error from a
report, and the typed parsing of certificates that arrive from outside
the process.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NoReturn,
    Optional,
    Union,
)

from repro.analysis.diagnostics import Diagnostic, Severity, VerificationReport
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.graph import Query
    from repro.algebra.node import Operator
    from repro.optimizer.annotate import AnnotatedQuery
    from repro.optimizer.plans import OptimizedPlan, PhysicalPlan
    from repro.optimizer.rewrite import RewriteTrace


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


def raise_unsound(
    error_type: type[ReproError], headline: str, report: VerificationReport
) -> NoReturn:
    """Raise a typed soundness error naming the report's first finding."""
    raise error_type(f"{headline}: {report.error_summary()}", report=report)


# -- certificates from outside the process ------------------------------------


def json_object(text: str, what: str) -> dict:
    """Parse JSON text that must hold one object; anything else is typed."""
    try:
        data = json.loads(text)
    except ValueError as error:
        raise ReproError(f"{what} is not valid JSON: {error}") from None
    if not isinstance(data, dict):
        raise ReproError(f"{what} JSON must be an object")
    return data


def object_entries(items: list, what: str) -> list[Mapping[str, object]]:
    """``items`` unchanged once every entry is known to be an object."""
    for item in items:
        if not isinstance(item, Mapping):
            raise ReproError(f"{what} entries must be objects, got {item!r}")
    return items


@dataclass(frozen=True)
class RuleInfo:
    """Registration record of one rule."""

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
