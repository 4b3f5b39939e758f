"""Expression effect & strictness analysis: certify vectorization safety.

The paper's pushdown and block-formation legality arguments (Section
3.1) quietly assume that predicates are pure, deterministic and total —
and so do two load-bearing parts of this repository: the fused batch
codegen in :mod:`repro.algebra.expressions` (an unguarded dense loop is
only sound when the expression cannot raise mid-batch) and the
partition certifier of :mod:`repro.analysis.partition` (re-running an
expression per partition is only sound when it is deterministic).  This
module makes those assumptions *checked*: a bottom-up abstract
interpretation over the :class:`~repro.algebra.expressions.Expr` tree
computes a per-node :class:`EffectSpec` —

* **purity / determinism** — no observable side effects; equal inputs
  give equal outputs (all built-in nodes qualify; custom subclasses do
  not);
* **totality** — which exceptions can escape ``eval``: division by
  zero (:data:`EXC_DIV_ZERO`), type confusion (:data:`EXC_TYPE`), or
  the :data:`EXC_UNKNOWN` top element for expressions the analysis
  cannot model;
* **null-strictness** — the expression reads only its own record's
  attribute values, so masked-out (Null) positions cannot influence
  surviving outputs;
* a conservative **value-domain interval** for numeric expressions
  (point intervals for literals, interval arithmetic upward), which is
  how ``x / 2`` proves total while ``x / y`` does not.

Lifted to plans, :func:`analyze_effects` certifies every select and
compose predicate of a physical plan and emits a serializable
:class:`EffectCertificate` with the same prover/checker split as the
partition certificate: :func:`check_effect_certificate` re-derives
every per-site spec from the plan alone.  Plans containing unknown
expressions are refused with typed ``EFX*`` findings
(:class:`~repro.errors.EffectSoundnessError` /
:class:`~repro.errors.UnknownEffectError`), never silently assumed
safe.  The batch operators derive their kernel gate the same way: they
call :func:`analyze_expr` on each predicate when they open, so no plan
carries effect claims.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, ClassVar, Iterator, Mapping, Optional, Union

from repro.algebra.expressions import And, Arith, Cmp, Col, Expr, Lit, Not, Or
from repro.analysis.base import (
    Certificate,
    CertificateAnalysis,
    CertificateCounters,
    object_entries,
    plan_fingerprint,
    plan_paths,
    root_plan,
)
from repro.analysis.diagnostics import Diagnostic, Severity, VerificationReport
from repro.errors import (
    EffectSoundnessError,
    ExpressionError,
    ReproError,
    UnknownEffectError,
)
from repro.model.schema import RecordSchema
from repro.model.types import AtomType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer
    from repro.optimizer.plans import OptimizedPlan, PhysicalPlan

# -- rule identifiers ---------------------------------------------------------

#: Claimed purity/determinism disagrees with the derived spec (or the
#: certificate is bound to a different plan).
EFX_PURE = "EFX-PURE"
#: Claimed totality understates the derived escaping-exception set.
EFX_TOTAL = "EFX-TOTAL"
#: Claimed null-strictness is not derivable.
EFX_NULL = "EFX-NULL"
#: Claimed value domain does not cover the derived domain.
EFX_DOMAIN = "EFX-DOMAIN"
#: A claim covers an expression the analysis cannot model (interpreted
#: fallback), or misses a site entirely.
EFX_FALLBACK = "EFX-FALLBACK"

#: All effect rule identifiers, in severity-triage order.
EFX_RULES = (EFX_PURE, EFX_TOTAL, EFX_NULL, EFX_DOMAIN, EFX_FALLBACK)

# -- exception tags -----------------------------------------------------------

#: ``ExpressionError`` raised when a divisor evaluates to zero.
EXC_DIV_ZERO = "div-by-zero"
#: A ``TypeError``/``ExpressionError`` from ill-typed operands.
EXC_TYPE = "type-confusion"
#: Anything at all: the expression is outside the modeled language.
EXC_UNKNOWN = "unknown"

#: Every exception tag the lattice tracks.
EXCEPTION_TAGS = (EXC_DIV_ZERO, EXC_TYPE, EXC_UNKNOWN)


@dataclass
class EffectCounters(CertificateCounters):
    """Counters of effect-analysis work.

    Attributes:
        specs_derived: per-expression specs computed bottom-up.
        unknown_exprs: expressions that hit the lattice top element.
    """

    specs_derived: int = 0
    unknown_exprs: int = 0


#: Module-level default counters; read them out with
#: ``repro.obs.metrics.collect(effects=EFFECT_COUNTERS)``.
EFFECT_COUNTERS = EffectCounters()


# -- value-domain intervals ---------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A conservative numeric value range; ``None`` bounds are infinite."""

    low: Optional[float] = None
    high: Optional[float] = None

    def __post_init__(self) -> None:
        if self.low is not None and self.high is not None and self.low > self.high:
            raise ReproError(f"interval low {self.low} exceeds high {self.high}")

    @staticmethod
    def top() -> "Interval":
        """The unbounded interval (no information)."""
        return _TOP_INTERVAL

    @staticmethod
    def point(value: float) -> "Interval":
        """The singleton interval of one known value."""
        return Interval(value, value)

    @property
    def is_top(self) -> bool:
        """Whether both bounds are infinite."""
        return self.low is None and self.high is None

    def contains_zero(self) -> bool:
        """Whether 0 may lie in the range (the division-safety test)."""
        if self.low is not None and self.low > 0:
            return False
        if self.high is not None and self.high < 0:
            return False
        return True

    def covers(self, other: "Interval") -> bool:
        """Whether every value of ``other`` lies inside this interval."""
        if self.low is not None and (other.low is None or other.low < self.low):
            return False
        if self.high is not None and (other.high is None or other.high > self.high):
            return False
        return True

    def to_dict(self) -> dict[str, object]:
        """A JSON-serializable dict (``None`` bounds stay ``null``)."""
        return {"low": self.low, "high": self.high}

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "Interval":
        """Rebuild an interval from :meth:`to_dict` output."""
        low = data.get("low")
        high = data.get("high")
        if low is not None and not isinstance(low, (int, float)):
            raise ReproError(f"interval low must be a number or null, got {low!r}")
        if high is not None and not isinstance(high, (int, float)):
            raise ReproError(f"interval high must be a number or null, got {high!r}")
        return Interval(
            float(low) if low is not None else None,
            float(high) if high is not None else None,
        )

    def __repr__(self) -> str:
        lo = "-inf" if self.low is None else f"{self.low:g}"
        hi = "+inf" if self.high is None else f"{self.high:g}"
        return f"[{lo}, {hi}]"


_TOP_INTERVAL = Interval(None, None)


def _add_bound(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """Sum of two bounds, where ``None`` (infinite) absorbs."""
    if a is None or b is None:
        return None
    return a + b


def interval_arith(op: str, left: Interval, right: Interval) -> Interval:
    """Interval arithmetic for the four built-in operators.

    Conservative by construction: the result covers every value the
    concrete operation can produce on operands drawn from the inputs.
    Unbounded multiplications and divisions fall to
    :meth:`Interval.top` rather than reasoning about signed infinities.
    """
    if op == "+":
        return Interval(_add_bound(left.low, right.low), _add_bound(left.high, right.high))
    if op == "-":
        low = _add_bound(left.low, -right.high if right.high is not None else None)
        high = _add_bound(left.high, -right.low if right.low is not None else None)
        return Interval(low, high)
    if op in ("*", "/"):
        if (
            left.low is None
            or left.high is None
            or right.low is None
            or right.high is None
            or (op == "/" and right.contains_zero())
        ):
            return Interval.top()
        apply = operator.mul if op == "*" else operator.truediv
        corners = [
            apply(a, b) for a in (left.low, left.high) for b in (right.low, right.high)
        ]
        return Interval(min(corners), max(corners))
    raise ReproError(f"unknown arithmetic operator {op!r}")


# -- the effect lattice -------------------------------------------------------


@dataclass(frozen=True)
class EffectSpec:
    """The abstract effect of evaluating one expression.

    Attributes:
        pure: evaluation has no observable side effects.
        deterministic: equal inputs always give equal outputs.
        exceptions: tags (:data:`EXCEPTION_TAGS`) of exceptions that
            may escape ``eval``; empty means total.
        null_strict: the expression reads only the record's own
            attribute values, so Null (masked-out) positions cannot
            influence surviving outputs.
        domain: conservative numeric value range, ``None`` for
            non-numeric or unmodeled expressions.
    """

    pure: bool
    deterministic: bool
    exceptions: frozenset[str]
    null_strict: bool
    domain: Optional[Interval] = None

    def __post_init__(self) -> None:
        unknown_tags = self.exceptions - frozenset(EXCEPTION_TAGS)
        if unknown_tags:
            raise ReproError(f"unknown exception tags {sorted(unknown_tags)}")

    @property
    def total(self) -> bool:
        """Whether no exception can escape evaluation."""
        return not self.exceptions

    @property
    def is_unknown(self) -> bool:
        """Whether this is the lattice top element."""
        return EXC_UNKNOWN in self.exceptions

    @property
    def vectorization_safe(self) -> bool:
        """Whether an unguarded dense loop over the expression is sound.

        Requires all four guarantees: pure (no effects to replay),
        deterministic (re-evaluation is harmless), total (no exception
        can abort the batch mid-loop) and null-strict (discarding the
        masked positions afterwards loses nothing).
        """
        return self.pure and self.deterministic and self.total and self.null_strict

    @staticmethod
    def unknown() -> "EffectSpec":
        """The top element: nothing may be assumed about the expression."""
        return _UNKNOWN_SPEC

    def to_dict(self) -> dict[str, object]:
        """A JSON-serializable dict of this spec."""
        return {
            "pure": self.pure,
            "deterministic": self.deterministic,
            "exceptions": sorted(self.exceptions),
            "null_strict": self.null_strict,
            "domain": self.domain.to_dict() if self.domain is not None else None,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "EffectSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        exceptions = data.get("exceptions")
        if not isinstance(exceptions, (list, tuple)) or not all(
            isinstance(tag, str) for tag in exceptions
        ):
            raise ReproError(f"spec exceptions must be a list of tags, got {exceptions!r}")
        domain = data.get("domain")
        if domain is not None and not isinstance(domain, Mapping):
            raise ReproError(f"spec domain must be an interval object, got {domain!r}")
        return EffectSpec(
            pure=bool(data.get("pure")),
            deterministic=bool(data.get("deterministic")),
            exceptions=frozenset(str(tag) for tag in exceptions),
            null_strict=bool(data.get("null_strict")),
            domain=Interval.from_dict(domain) if domain is not None else None,
        )

    def describe(self) -> str:
        """One-line rendering: ``pure total null-strict domain=[...]``."""
        bits = [
            "pure" if self.pure else "impure",
            "deterministic" if self.deterministic else "nondeterministic",
            "total" if self.total else f"raises({','.join(sorted(self.exceptions))})",
            "null-strict" if self.null_strict else "non-strict",
        ]
        if self.domain is not None:
            bits.append(f"domain={self.domain!r}")
        return " ".join(bits)


_UNKNOWN_SPEC = EffectSpec(
    pure=False,
    deterministic=False,
    exceptions=frozenset((EXC_UNKNOWN,)),
    null_strict=False,
    domain=None,
)


def _analyze(
    expr: Expr, schema: RecordSchema
) -> tuple[EffectSpec, Optional[AtomType]]:
    """One bottom-up composition step: ``(spec, static type)``.

    The static type rides along so each Arith/Cmp node asks the
    algebra's own typing rule (``result_type``) of its operands' types;
    a rejection is type confusion (``EXC_TYPE``), not an exception.
    ``None`` means the type is already confused (or unknowable) below.
    """
    if type(expr) is Col:
        if expr.name not in schema:
            return EffectSpec(True, True, frozenset((EXC_TYPE,)), True, None), None
        atype = schema.type_of(expr.name)
        domain = Interval.top() if atype in (AtomType.INT, AtomType.FLOAT) else None
        return EffectSpec(True, True, frozenset(), True, domain), atype
    if type(expr) is Lit:
        atype = expr.infer_type(schema)
        domain = None
        if atype is AtomType.INT or atype is AtomType.FLOAT:
            assert isinstance(expr.value, (int, float))
            domain = Interval.point(float(expr.value))
        return EffectSpec(True, True, frozenset(), True, domain), atype
    if type(expr) is Arith:
        left_spec, left_type = _analyze(expr.left, schema)
        right_spec, right_type = _analyze(expr.right, schema)
        exceptions = left_spec.exceptions | right_spec.exceptions
        result_type = None
        if left_type is not None and right_type is not None:
            try:
                result_type = Arith.result_type(expr.op, left_type, right_type)
            except ExpressionError:
                exceptions |= {EXC_TYPE}
        domain = None
        if (
            result_type is not None
            and left_spec.domain is not None
            and right_spec.domain is not None
        ):
            if expr.op == "/" and right_spec.domain.contains_zero():
                exceptions |= {EXC_DIV_ZERO}
            domain = interval_arith(expr.op, left_spec.domain, right_spec.domain)
        elif expr.op == "/":
            # No divisor domain to exclude zero with: assume the worst.
            exceptions |= {EXC_DIV_ZERO}
        return _both(left_spec, right_spec, exceptions, domain), result_type
    if type(expr) is Cmp:
        left_spec, left_type = _analyze(expr.left, schema)
        right_spec, right_type = _analyze(expr.right, schema)
        exceptions = left_spec.exceptions | right_spec.exceptions
        if left_type is not None and right_type is not None:
            try:
                Cmp.result_type(expr.op, left_type, right_type)
            except ExpressionError:
                exceptions |= {EXC_TYPE}
        return _both(left_spec, right_spec, exceptions), AtomType.BOOL
    if type(expr) is And or type(expr) is Or:
        left_spec, _ = _analyze(expr.left, schema)
        right_spec, _ = _analyze(expr.right, schema)
        # bool() coercion is total on every atom type, so the
        # connectives add no exceptions of their own.
        exceptions = left_spec.exceptions | right_spec.exceptions
        return _both(left_spec, right_spec, exceptions), AtomType.BOOL
    if type(expr) is Not:
        operand_spec, _ = _analyze(expr.operand, schema)
        return replace(operand_spec, domain=None), AtomType.BOOL
    return EffectSpec.unknown(), None


def _both(
    left: EffectSpec,
    right: EffectSpec,
    exceptions: frozenset[str],
    domain: Optional[Interval] = None,
) -> EffectSpec:
    """The spec of a node over two operands: a guarantee holds if both have it."""
    return EffectSpec(
        pure=left.pure and right.pure,
        deterministic=left.deterministic and right.deterministic,
        exceptions=exceptions,
        null_strict=left.null_strict and right.null_strict,
        domain=domain,
    )


def analyze_expr(
    expr: Expr,
    schema: RecordSchema,
    *,
    counters: Optional[EffectCounters] = None,
) -> EffectSpec:
    """The effect spec of ``expr`` under ``schema``.

    Never raises on unknown expressions — custom
    :class:`~repro.algebra.expressions.Expr` subclasses land on the
    lattice top element (:meth:`EffectSpec.unknown`); callers that must
    refuse unknowns use :func:`require_spec`.
    """
    counters = counters if counters is not None else EFFECT_COUNTERS
    spec, _ = _analyze(expr, schema)
    counters.specs_derived += 1
    if spec.is_unknown:
        counters.unknown_exprs += 1
    return spec


def require_spec(
    expr: Expr,
    schema: RecordSchema,
    *,
    counters: Optional[EffectCounters] = None,
) -> EffectSpec:
    """Like :func:`analyze_expr`, but refuse the lattice top element.

    Raises:
        UnknownEffectError: when ``expr`` (or a subexpression) is a
            custom node the analysis cannot model.
    """
    spec = analyze_expr(expr, schema, counters=counters)
    if spec.is_unknown:
        culprit = _first_unknown(expr)
        name = type(culprit).__name__ if culprit is not None else type(expr).__name__
        raise UnknownEffectError(
            f"cannot model the effects of expression node {name!r} in "
            f"{expr!r}: custom Expr subclasses may do arbitrary work in "
            "eval, so nothing is assumed about their purity, totality or "
            "strictness",
            expr_type=name,
        )
    return spec


def _first_unknown(expr: Expr) -> Optional[Expr]:
    """The leftmost subexpression outside the modeled language."""
    if type(expr) in (Arith, Cmp, And, Or):
        left = getattr(expr, "left")
        right = getattr(expr, "right")
        assert isinstance(left, Expr) and isinstance(right, Expr)
        return _first_unknown(left) or _first_unknown(right)
    if type(expr) is Not:
        return _first_unknown(expr.operand)
    if type(expr) in (Col, Lit):
        return None
    return expr


# -- plan expression sites ----------------------------------------------------


def node_expression_sites(
    node: "PhysicalPlan",
) -> list[tuple[str, Expr, RecordSchema]]:
    """The ``(local key, expression, input schema)`` sites of one node.

    Chain select predicates are keyed ``step<i>`` and evaluated against
    the schema flowing at that step (projects and renames change it);
    join predicates are keyed ``predicate`` and evaluated against the
    node's combined schema.  Projections in this algebra are name
    tuples, so selects and join predicates are the only expression
    sites a plan can carry.
    """
    sites: list[tuple[str, Expr, RecordSchema]] = []
    if node.kind == "chain" and node.children:
        schema = node.children[0].schema
        for index, step in enumerate(node.steps):
            if step.kind == "select" and step.predicate is not None:
                sites.append((f"step{index}", step.predicate, schema))
            elif step.kind == "project" and step.names is not None:
                schema = schema.project(step.names)
            elif step.kind == "rename" and step.schema is not None:
                schema = step.schema
    if node.predicate is not None:
        sites.append(("predicate", node.predicate, node.schema))
    return sites


def plan_expression_sites(
    plan: "Union[PhysicalPlan, OptimizedPlan]",
) -> list[tuple[str, Expr, RecordSchema]]:
    """Every expression site of a plan tree, keyed ``<path>#<local>``."""
    root = root_plan(plan)
    paths = plan_paths(root)
    return [
        (f"{paths[id(node)]}#{local}", expr, schema)
        for node in root.walk()
        for local, expr, schema in node_expression_sites(node)
    ]


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class EffectSite:
    """One certified expression site of a plan.

    Attributes:
        path: global site key ``<plan path>#<local key>``.
        expression: the expression's ``repr`` (human audit trail; the
            checker re-derives from the plan, not from this text).
        spec: the certified effect spec.
    """

    path: str
    expression: str
    spec: EffectSpec

    def to_dict(self) -> dict[str, object]:
        """A JSON-serializable dict of this site."""
        return {
            "path": self.path,
            "expression": self.expression,
            "spec": self.spec.to_dict(),
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "EffectSite":
        """Rebuild a site from :meth:`to_dict` output."""
        path = data.get("path")
        expression = data.get("expression")
        spec = data.get("spec")
        if not isinstance(path, str) or not isinstance(expression, str):
            raise ReproError("effect site needs str path and expression")
        if not isinstance(spec, Mapping):
            raise ReproError("effect site spec must be an object")
        return EffectSite(path, expression, EffectSpec.from_dict(spec))


@dataclass(frozen=True)
class EffectCertificate(Certificate):
    """A machine-checkable claim that a plan's expressions are modeled.

    Attributes:
        fingerprint: structural hash binding the certificate to one
            plan (:func:`repro.analysis.base.plan_fingerprint`).
        sites: the per-expression specs, in plan pre-order.
    """

    KIND: ClassVar[str] = "effect certificate"

    fingerprint: str
    sites: tuple[EffectSite, ...]
    version: int = 1

    @property
    def vectorization_safe_sites(self) -> tuple[EffectSite, ...]:
        """Sites whose spec licenses the unguarded dense loop."""
        return tuple(site for site in self.sites if site.spec.vectorization_safe)

    def to_dict(self) -> dict[str, object]:
        """A JSON-serializable dict of the whole certificate."""
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "sites": [site.to_dict() for site in self.sites],
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "EffectCertificate":
        """Rebuild a certificate from :meth:`to_dict` output."""
        fingerprint = data.get("fingerprint")
        sites = data.get("sites")
        if not isinstance(fingerprint, str):
            raise ReproError("effect certificate needs a str fingerprint")
        if not isinstance(sites, list):
            raise ReproError("effect certificate sites must be a list")
        version = data.get("version")
        return EffectCertificate(
            fingerprint=fingerprint,
            sites=tuple(
                EffectSite.from_dict(site)
                for site in object_entries(sites, "effect certificate sites")
            ),
            version=version if isinstance(version, int) else 1,
        )


# -- the shared comparison ----------------------------------------------------


def effect_findings(
    claims: list[tuple[str, EffectSpec]],
    derived: Mapping[str, EffectSpec],
) -> Iterator[Diagnostic]:
    """A certificate's claimed specs against the derived ones, by site key.

    Claims are judged in the *sound* direction: a claim may understate
    what is derivable — fewer guarantees, more escaping exceptions, a
    wider domain, or the top element itself — but never overstate it,
    and coverage must be total both ways.
    """
    for key in sorted(derived.keys() - {key for key, _spec in claims}):
        yield _finding(
            EFX_FALLBACK, key,
            "plan expression site is missing from the certificate: coverage "
            "must be total for the claims to mean anything",
        )
    for key, claimed in claims:
        truth = derived.get(key)
        if truth is None:
            yield _finding(
                EFX_FALLBACK, key,
                "certificate claims a spec for a site the plan does not have",
            )
            continue
        if truth.is_unknown:
            if not claimed.is_unknown:
                yield _finding(
                    EFX_FALLBACK, key,
                    f"certificate claims {claimed.describe()} for an expression "
                    "the analysis cannot model (interpreted fallback only)",
                )
            continue
        if (claimed.pure and not truth.pure) or (
            claimed.deterministic and not truth.deterministic
        ):
            yield _finding(
                EFX_PURE, key,
                f"certificate claims purity/determinism ({claimed.describe()}) "
                f"the analysis cannot derive ({truth.describe()})",
            )
        if not claimed.exceptions >= truth.exceptions:
            missing = sorted(truth.exceptions - claimed.exceptions)
            yield _finding(
                EFX_TOTAL, key,
                "certificate understates the escaping exceptions: derived "
                f"{sorted(truth.exceptions)} but claimed "
                f"{sorted(claimed.exceptions)} (missing {missing}) — an "
                "unguarded loop could abort mid-batch",
            )
        if claimed.null_strict and not truth.null_strict:
            yield _finding(
                EFX_NULL, key,
                "certificate claims null-strictness the analysis cannot "
                "derive: masked-out positions could influence surviving "
                "outputs",
            )
        if claimed.domain is not None and (
            truth.domain is None or not claimed.domain.covers(truth.domain)
        ):
            yield _finding(
                EFX_DOMAIN, key,
                f"certificate claims value domain {claimed.domain!r} but the "
                "derived domain is "
                f"{repr(truth.domain) if truth.domain else 'non-numeric'} — "
                "the claim does not cover every producible value",
            )


def _finding(rule: str, key: str, message: str) -> Diagnostic:
    """One effect error finding at site ``key``; every one cites Sec 3.1."""
    return Diagnostic(rule, Severity.ERROR, key, message, "Sec 3.1")


# -- the prover and the checker -----------------------------------------------


def _prove(
    root: "PhysicalPlan", report: VerificationReport, counters: EffectCounters
) -> Optional[EffectCertificate]:
    """The certificate of every site's spec, or None on an unknown site."""
    sites: list[EffectSite] = []
    for key, expr, schema in plan_expression_sites(root):
        spec = analyze_expr(expr, schema, counters=counters)
        if spec.is_unknown:
            culprit = _first_unknown(expr)
            name = type(culprit if culprit is not None else expr).__name__
            report.add(
                _finding(
                    EFX_FALLBACK, key,
                    f"expression {expr!r} contains the unmodeled node "
                    f"{name!r}: its effects are the lattice top element, "
                    "so the plan cannot be effect-certified",
                )
            )
            continue
        sites.append(EffectSite(path=key, expression=repr(expr), spec=spec))
    if not report.ok:
        return None
    return EffectCertificate(fingerprint=plan_fingerprint(root), sites=tuple(sites))


def _compare(
    root: "PhysicalPlan",
    cert: EffectCertificate,
    report: VerificationReport,
    counters: EffectCounters,
) -> None:
    """The certificate's sites against specs re-derived from the plan."""
    derived = {
        key: analyze_expr(expr, schema, counters=counters)
        for key, expr, schema in plan_expression_sites(root)
    }
    claims = [(site.path, site.spec) for site in cert.sites]
    report.diagnostics.extend(effect_findings(claims, derived))


#: The prover/checker frame: spans, reports, counters, typed errors.
_FRAME = CertificateAnalysis(
    name="effects",
    noun="effect",
    rules=EFX_RULES,
    refusal="plan is not effect-certifiable",
    error=EffectSoundnessError,
    fingerprint_rule=EFX_PURE,
    citation="Sec 3.1",
    counters=EFFECT_COUNTERS,
)


def analyze_effects(
    plan: "Union[PhysicalPlan, OptimizedPlan]",
    *,
    counters: Optional[EffectCounters] = None,
    tracer: "Optional[Tracer]" = None,
) -> tuple[Optional[EffectCertificate], VerificationReport]:
    """Derive an effect certificate, or the diagnostics refusing one.

    Every expression site must be inside the modeled language; a single
    unknown node refuses the whole plan with an ``EFX-FALLBACK`` error
    (the spec of everything downstream of an unmodeled node is the top
    element, so certifying around it would be unsound).  Non-total
    sites (e.g. a division whose divisor may be zero) do *not* refuse —
    the certificate records their escaping exceptions truthfully, and
    consumers that need totality gate on ``spec.total`` themselves.

    Returns:
        ``(certificate, report)`` — the certificate is ``None`` exactly
        when the report carries error findings.
    """
    return _FRAME.prove(plan, _prove, counters, tracer)


def certify_effects(
    plan: "Union[PhysicalPlan, OptimizedPlan]",
    *,
    counters: Optional[EffectCounters] = None,
    tracer: "Optional[Tracer]" = None,
) -> EffectCertificate:
    """Prove every expression of a plan effect-modeled, or refuse.

    Raises:
        EffectSoundnessError: when the plan cannot be certified; the
            error's report carries the typed ``EFX*`` findings.
    """
    return _FRAME.certify(analyze_effects(plan, counters=counters, tracer=tracer))


def check_effect_certificate(
    plan: "Union[PhysicalPlan, OptimizedPlan]",
    cert: EffectCertificate,
    *,
    counters: Optional[EffectCounters] = None,
    tracer: "Optional[Tracer]" = None,
) -> VerificationReport:
    """Independently re-verify every certified spec against the plan.

    Recomputes the per-site specs from ``plan`` alone — sharing no
    prover state — and judges each certificate claim with
    :func:`effect_findings`.  Fingerprint mismatch rejects immediately,
    exactly like the partition checker.
    """
    return _FRAME.check(plan, cert, _compare, counters, tracer)


def require_effect_certificate(
    plan: "Union[PhysicalPlan, OptimizedPlan]",
    cert: EffectCertificate,
    *,
    counters: Optional[EffectCounters] = None,
    tracer: "Optional[Tracer]" = None,
) -> EffectCertificate:
    """Check a certificate and raise on any error finding.

    Raises:
        EffectSoundnessError: when re-verification fails.
    """
    return _FRAME.require(
        check_effect_certificate(plan, cert, counters=counters, tracer=tracer), cert
    )
