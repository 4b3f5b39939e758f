"""Structured diagnostics emitted by the static plan verifier.

Every finding carries the rule that produced it, a severity, a node
path into the query graph or physical plan, a human-readable message
and the paper result the violated invariant comes from (Proposition
2.1, the Step-2 span propagation, Proposition 3.1, Theorem 3.1, ...).
A :class:`VerificationReport` collects the findings of one verification
pass and renders them as text or JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import VerificationError


class Severity(str, Enum):
    """How bad a finding is.

    ``ERROR`` findings mean the graph/plan violates a correctness
    invariant and must not be executed; ``WARNING`` findings are
    suspicious but not provably wrong; ``INFO`` findings are
    informational.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:  # pragma: no cover - display sugar
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static verifier.

    Attributes:
        rule: the rule identifier, e.g. ``scope-closure``.
        severity: :class:`Severity` of the finding.
        path: slash-separated node path from the root, e.g.
            ``root/select[...]/0:compose``.
        message: what is wrong, in terms of the violated invariant.
        citation: the paper result the rule checks, e.g. ``Prop 2.1``.
    """

    rule: str
    severity: Severity
    path: str
    message: str
    citation: str = ""

    def render(self) -> str:
        """One-line rendering: ``severity [rule] path: message (citation)``."""
        cite = f"  ({self.citation})" if self.citation else ""
        return f"{self.severity.value:7s} [{self.rule}] {self.path}: {self.message}{cite}"

    def to_dict(self) -> dict:
        """A JSON-serializable dict of this finding.

        ``rule_id`` duplicates ``rule`` under the name downstream
        tooling keys on (the registry's
        :attr:`~repro.analysis.base.RuleInfo.rule_id`); ``rule`` is
        kept for backward compatibility.
        """
        return {
            "rule": self.rule,
            "rule_id": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "message": self.message,
            "citation": self.citation,
        }


@dataclass(frozen=True)
class SourceDiagnostic(Diagnostic):
    """A finding anchored to query *source text* rather than a graph node.

    Produced by the front-end semantic analyzer
    (:mod:`repro.lang.analyzer`): in addition to the rule/severity/
    path/message of a :class:`Diagnostic` it carries the 1-based source
    location of the offending characters and a prerendered caret
    excerpt.

    Attributes:
        line: 1-based source line (0 when unknown).
        column: 1-based column of the first offending character.
        end_column: column one past the last offending character.
        excerpt: two-line source excerpt with a caret underline.
    """

    line: int = 0
    column: int = 0
    end_column: int = 0
    excerpt: str = ""

    def render(self) -> str:
        """``severity [rule] line:col: message (citation)`` plus the excerpt."""
        cite = f"  ({self.citation})" if self.citation else ""
        where = f"{self.line}:{self.column}" if self.line else self.path
        head = f"{self.severity.value:7s} [{self.rule}] {where}: {self.message}{cite}"
        if self.excerpt:
            return f"{head}\n{self.excerpt}"
        return head

    def to_dict(self) -> dict:
        """A JSON-serializable dict including the source location."""
        data = super().to_dict()
        data.update(
            line=self.line,
            column=self.column,
            end_column=self.end_column,
            excerpt=self.excerpt,
        )
        return data


@dataclass
class VerificationReport:
    """All findings of one verification pass over a query or plan.

    Attributes:
        subject: what was verified (``query``, ``plan``, ``rewrite``,
            or a combination).
        diagnostics: the findings, in rule-evaluation order.
        rules_run: identifiers of the rules that executed.
    """

    subject: str = "query"
    diagnostics: list[Diagnostic] = field(default_factory=list)
    rules_run: list[str] = field(default_factory=list)

    # -- accumulation -------------------------------------------------------

    def add(self, diagnostic: Diagnostic) -> None:
        """Append one finding."""
        self.diagnostics.append(diagnostic)

    def extend(self, other: "VerificationReport") -> "VerificationReport":
        """Fold another report's findings and rule list into this one."""
        self.diagnostics.extend(other.diagnostics)
        for rule in other.rules_run:
            if rule not in self.rules_run:
                self.rules_run.append(rule)
        return self

    # -- classification ---------------------------------------------------------

    @property
    def errors(self) -> list[Diagnostic]:
        """Error-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        """Warning-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """Whether no error-severity finding was produced."""
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)

    def by_rule(self, rule: str) -> list[Diagnostic]:
        """Findings produced by one rule."""
        return [d for d in self.diagnostics if d.rule == rule]

    def raise_if_errors(self) -> "VerificationReport":
        """Raise :class:`~repro.errors.VerificationError` on error findings."""
        if not self.ok:
            raise VerificationError(
                f"static verification of {self.subject} failed: "
                f"{self.error_summary()}",
                report=self,
            )
        return self

    def error_summary(self) -> str:
        """The first error finding, plus how many more there are."""
        errors = self.errors
        suffix = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
        return f"{errors[0].render()}{suffix}"

    # -- rendering ------------------------------------------------------------------

    def render_text(self) -> str:
        """Multi-line human-readable report."""
        header = (
            f"verified {self.subject}: {len(self.rules_run)} rule(s), "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        lines = [header]
        lines.extend(d.render() for d in self.diagnostics)
        if not self.diagnostics:
            lines.append("all checks passed")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-serializable dict of the whole report."""
        return {
            "subject": self.subject,
            "ok": self.ok,
            "rules_run": list(self.rules_run),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def render_json(self) -> str:
        """The report as pretty-printed JSON text."""
        return json.dumps(self.to_dict(), indent=2)
