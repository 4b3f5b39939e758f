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
safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Union

from repro.algebra.expressions import And, Arith, Cmp, Col, Expr, Lit, Not, Or
from repro.analysis.base import (
    json_object,
    object_entries,
    plan_paths,
    raise_unsound,
    root_plan,
)
from repro.analysis.diagnostics import Diagnostic, Severity, VerificationReport
from repro.analysis.partition import plan_fingerprint
from repro.counters import CounterSet
from repro.errors import EffectSoundnessError, ReproError, UnknownEffectError
from repro.model.schema import RecordSchema
from repro.model.types import AtomType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer
    from repro.optimizer.plans import OptimizedPlan, PhysicalPlan

# -- rule identifiers ---------------------------------------------------------

#: Claimed purity/determinism disagrees with the derived spec (or the
#: effect metadata is malformed).
EFX_PURE = "EFX-PURE"
#: Claimed totality understates the derived escaping-exception set.
EFX_TOTAL = "EFX-TOTAL"
#: Claimed null-strictness is not derivable.
EFX_NULL = "EFX-NULL"
#: Claimed value domain does not cover the derived domain.
EFX_DOMAIN = "EFX-DOMAIN"
#: Certified metadata covers an expression the analysis cannot model
#: (interpreted fallback), or misses a site entirely.
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
class EffectCounters(CounterSet):
    """Counters of effect-analysis work.

    Attributes:
        specs_derived: per-expression specs computed bottom-up.
        unknown_exprs: expressions that hit the lattice top element.
        certificates_issued: certificates the prover produced.
        certificates_rejected: prover runs refused with ``EFX*``
            findings instead of a certificate.
        checks_run: independent certificate re-verifications.
        checks_failed: re-verifications that produced error findings.
    """

    specs_derived: int = 0
    unknown_exprs: int = 0
    certificates_issued: int = 0
    certificates_rejected: int = 0
    checks_run: int = 0
    checks_failed: int = 0


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
    if op == "*":
        if None in (left.low, left.high, right.low, right.high):
            return Interval.top()
        assert left.low is not None and left.high is not None
        assert right.low is not None and right.high is not None
        products = [
            left.low * right.low,
            left.low * right.high,
            left.high * right.low,
            left.high * right.high,
        ]
        return Interval(min(products), max(products))
    if op == "/":
        if None in (left.low, left.high, right.low, right.high) or (
            right.contains_zero()
        ):
            return Interval.top()
        assert left.low is not None and left.high is not None
        assert right.low is not None and right.high is not None
        quotients = [
            left.low / right.low,
            left.low / right.high,
            left.high / right.low,
            left.high / right.high,
        ]
        return Interval(min(quotients), max(quotients))
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
        bits = []
        bits.append("pure" if self.pure else "impure")
        bits.append("deterministic" if self.deterministic else "nondeterministic")
        bits.append("total" if self.total else f"raises({','.join(sorted(self.exceptions))})")
        bits.append("null-strict" if self.null_strict else "non-strict")
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


def _domain_of_type(atype: Optional[AtomType]) -> Optional[Interval]:
    """The starting domain for a value of one static type."""
    if atype is AtomType.INT or atype is AtomType.FLOAT:
        return Interval.top()
    return None


def _analyze(
    expr: Expr, schema: RecordSchema
) -> tuple[EffectSpec, Optional[AtomType]]:
    """One bottom-up composition step: ``(spec, static type)``.

    The static type rides along so type-confusion detection mirrors
    :meth:`~repro.algebra.expressions.Expr.infer_type` without raising;
    ``None`` means the type is already confused (or unknowable) below.
    """
    if type(expr) is Col:
        if expr.name in schema:
            atype = schema.type_of(expr.name)
            return (
                EffectSpec(True, True, frozenset(), True, _domain_of_type(atype)),
                atype,
            )
        return EffectSpec(True, True, frozenset((EXC_TYPE,)), True, None), None
    if type(expr) is Lit:
        atype = expr.infer_type(schema)
        domain: Optional[Interval] = None
        if atype is AtomType.INT or atype is AtomType.FLOAT:
            assert isinstance(expr.value, (int, float))
            domain = Interval.point(float(expr.value))
        return EffectSpec(True, True, frozenset(), True, domain), atype
    if type(expr) is Arith:
        left_spec, left_type = _analyze(expr.left, schema)
        right_spec, right_type = _analyze(expr.right, schema)
        exceptions = left_spec.exceptions | right_spec.exceptions
        numeric = (
            left_type is not None
            and right_type is not None
            and left_type.is_numeric
            and right_type.is_numeric
        )
        if left_type is not None and right_type is not None and not numeric:
            exceptions |= {EXC_TYPE}
        domain = None
        if numeric and left_spec.domain is not None and right_spec.domain is not None:
            if expr.op == "/" and right_spec.domain.contains_zero():
                exceptions |= {EXC_DIV_ZERO}
            domain = interval_arith(expr.op, left_spec.domain, right_spec.domain)
        elif expr.op == "/":
            # No divisor domain to exclude zero with: assume the worst.
            exceptions |= {EXC_DIV_ZERO}
        return (
            EffectSpec(
                pure=left_spec.pure and right_spec.pure,
                deterministic=left_spec.deterministic and right_spec.deterministic,
                exceptions=exceptions,
                null_strict=left_spec.null_strict and right_spec.null_strict,
                domain=domain if numeric else None,
            ),
            AtomType.FLOAT
            if expr.op == "/" and numeric
            else (_common(left_type, right_type) if numeric else None),
        )
    if type(expr) is Cmp:
        left_spec, left_type = _analyze(expr.left, schema)
        right_spec, right_type = _analyze(expr.right, schema)
        exceptions = left_spec.exceptions | right_spec.exceptions
        if left_type is not None and right_type is not None:
            comparable = left_type is right_type or (
                left_type.is_numeric and right_type.is_numeric
            )
            orderable = expr.op in ("==", "!=") or left_type is not AtomType.BOOL
            if not (comparable and orderable):
                exceptions |= {EXC_TYPE}
        return (
            EffectSpec(
                pure=left_spec.pure and right_spec.pure,
                deterministic=left_spec.deterministic and right_spec.deterministic,
                exceptions=exceptions,
                null_strict=left_spec.null_strict and right_spec.null_strict,
                domain=None,
            ),
            AtomType.BOOL,
        )
    if type(expr) is And or type(expr) is Or:
        left_spec, _ = _analyze(expr.left, schema)
        right_spec, _ = _analyze(expr.right, schema)
        # bool() coercion is total on every atom type, so the
        # connectives add no exceptions of their own.
        return (
            EffectSpec(
                pure=left_spec.pure and right_spec.pure,
                deterministic=left_spec.deterministic and right_spec.deterministic,
                exceptions=left_spec.exceptions | right_spec.exceptions,
                null_strict=left_spec.null_strict and right_spec.null_strict,
                domain=None,
            ),
            AtomType.BOOL,
        )
    if type(expr) is Not:
        operand_spec, _ = _analyze(expr.operand, schema)
        return (
            EffectSpec(
                pure=operand_spec.pure,
                deterministic=operand_spec.deterministic,
                exceptions=operand_spec.exceptions,
                null_strict=operand_spec.null_strict,
                domain=None,
            ),
            AtomType.BOOL,
        )
    return EffectSpec.unknown(), None


def _common(left: Optional[AtomType], right: Optional[AtomType]) -> Optional[AtomType]:
    """Numeric widening without raising (both inputs already numeric)."""
    if left is None or right is None:
        return None
    if left is AtomType.FLOAT or right is AtomType.FLOAT:
        return AtomType.FLOAT
    return left


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
    paths: Optional[Mapping[int, str]] = None,
) -> list[tuple[str, Expr, RecordSchema]]:
    """Every expression site of a plan tree, keyed ``<path>#<local>``."""
    root = root_plan(plan)
    resolved = plan_paths(root) if paths is None else paths
    sites: list[tuple[str, Expr, RecordSchema]] = []
    for node in root.walk():
        for local, expr, schema in node_expression_sites(node):
            sites.append((f"{resolved[id(node)]}#{local}", expr, schema))
    return sites


def annotate_effects(plan: "Union[PhysicalPlan, OptimizedPlan]") -> dict[str, int]:
    """Derive and attach per-node effect metadata (the optimizer phase).

    Every node with expression sites gets
    ``extras["effects"] = {"sites": {local_key: spec_dict}}`` recording
    the *derived* spec truthfully — including the top element for
    unknown expressions, so the metadata never over-claims and the
    ``EFX*`` lint rules stay quiet on optimizer output.  Returns
    summary counts for span attribution.
    """
    root = root_plan(plan)
    total = unknown = safe = 0
    for node in root.walk():
        sites = node_expression_sites(node)
        if not sites:
            continue
        claimed: dict[str, dict[str, object]] = {}
        for local, expr, schema in sites:
            spec = analyze_expr(expr, schema)
            claimed[local] = spec.to_dict()
            total += 1
            if spec.is_unknown:
                unknown += 1
            if spec.vectorization_safe:
                safe += 1
        node.extras["effects"] = {"sites": claimed}
    return {"sites": total, "unknown": unknown, "vector_safe": safe}


def node_effect_specs(node: "PhysicalPlan") -> dict[str, EffectSpec]:
    """The certified specs one node's metadata claims, by local key.

    The executor-side accessor: malformed or absent metadata yields an
    empty mapping (the codegen then keeps its guarded loops, and the
    ``EFX*`` lint rules report the malformation separately).
    """
    meta = node.extras.get("effects")
    if not isinstance(meta, dict):
        return {}
    sites = meta.get("sites")
    if not isinstance(sites, dict):
        return {}
    specs: dict[str, EffectSpec] = {}
    for key, data in sites.items():
        if not isinstance(data, Mapping):
            continue
        try:
            specs[str(key)] = EffectSpec.from_dict(data)
        except ReproError:
            continue
    return specs


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
class EffectCertificate:
    """A machine-checkable claim that a plan's expressions are modeled.

    Attributes:
        fingerprint: structural hash binding the certificate to one
            plan (:func:`repro.analysis.partition.plan_fingerprint`).
        sites: the per-expression specs, in plan pre-order.
    """

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

    def to_json(self) -> str:
        """The certificate as pretty-printed JSON text."""
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_json(text: str) -> "EffectCertificate":
        """Parse a certificate from :meth:`to_json` output."""
        return EffectCertificate.from_dict(json_object(text, "effect certificate"))


# -- the prover ---------------------------------------------------------------


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
    from repro.obs.tracer import CATEGORY_ANALYSIS, maybe_span

    counters = counters if counters is not None else EFFECT_COUNTERS
    root = root_plan(plan)
    report = VerificationReport(subject="effects", rules_run=list(EFX_RULES))
    with maybe_span(tracer, "effects-certify", CATEGORY_ANALYSIS):
        paths = plan_paths(root)
        sites: list[EffectSite] = []
        for key, expr, schema in plan_expression_sites(root, paths):
            spec = analyze_expr(expr, schema, counters=counters)
            if spec.is_unknown:
                culprit = _first_unknown(expr)
                name = (
                    type(culprit).__name__
                    if culprit is not None
                    else type(expr).__name__
                )
                report.add(
                    Diagnostic(
                        EFX_FALLBACK, Severity.ERROR, key,
                        f"expression {expr!r} contains the unmodeled node "
                        f"{name!r}: its effects are the lattice top element, "
                        "so the plan cannot be effect-certified",
                        "Sec 3.1",
                    )
                )
                continue
            sites.append(EffectSite(path=key, expression=repr(expr), spec=spec))
        if not report.ok:
            counters.certificates_rejected += 1
            return None, report
        certificate = EffectCertificate(
            fingerprint=plan_fingerprint(root), sites=tuple(sites)
        )
        counters.certificates_issued += 1
    return certificate, report


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
    certificate, report = analyze_effects(plan, counters=counters, tracer=tracer)
    if certificate is None:
        raise_unsound(EffectSoundnessError, "plan is not effect-certifiable", report)
    return certificate


# -- the independent checker --------------------------------------------------


def check_effect_certificate(
    plan: "Union[PhysicalPlan, OptimizedPlan]",
    cert: EffectCertificate,
    *,
    counters: Optional[EffectCounters] = None,
    tracer: "Optional[Tracer]" = None,
) -> VerificationReport:
    """Independently re-verify every certified spec against the plan.

    Recomputes the per-site specs from ``plan`` alone — sharing no
    prover state — and checks each certificate claim in the *sound*
    direction: a certificate may understate capabilities (claim fewer
    guarantees than derivable) but never overstate them.  Fingerprint
    mismatch rejects immediately, exactly like the partition checker.
    """
    from repro.obs.tracer import CATEGORY_ANALYSIS, maybe_span

    counters = counters if counters is not None else EFFECT_COUNTERS
    root = root_plan(plan)
    report = VerificationReport(
        subject="effect-certificate", rules_run=list(EFX_RULES)
    )
    with maybe_span(tracer, "effects-check", CATEGORY_ANALYSIS):
        counters.checks_run += 1
        expected = plan_fingerprint(root)
        if cert.fingerprint != expected:
            report.add(
                Diagnostic(
                    EFX_PURE, Severity.ERROR, "root",
                    f"certificate fingerprint {cert.fingerprint[:23]}... was "
                    "issued for a different plan (structural hash mismatch)",
                    "Sec 3.1",
                )
            )
            counters.checks_failed += 1
            return report
        derived: dict[str, EffectSpec] = {}
        for key, expr, schema in plan_expression_sites(root):
            derived[key] = analyze_expr(expr, schema, counters=counters)
        claimed_keys = {site.path for site in cert.sites}
        for key in sorted(set(derived) - claimed_keys):
            report.add(
                Diagnostic(
                    EFX_FALLBACK, Severity.ERROR, key,
                    "plan expression site is missing from the certificate: "
                    "coverage must be total for the certificate to mean "
                    "anything",
                    "Sec 3.1",
                )
            )
        for site in cert.sites:
            truth = derived.get(site.path)
            if truth is None:
                report.add(
                    Diagnostic(
                        EFX_FALLBACK, Severity.ERROR, site.path,
                        "certificate claims a spec for a site the plan does "
                        "not have",
                        "Sec 3.1",
                    )
                )
                continue
            _check_site(site, truth, report)
        if not report.ok:
            counters.checks_failed += 1
    return report


def _check_site(
    site: EffectSite, truth: EffectSpec, report: VerificationReport
) -> None:
    """One site's claims against the independently derived spec."""
    claimed = site.spec
    if truth.is_unknown:
        report.add(
            Diagnostic(
                EFX_FALLBACK, Severity.ERROR, site.path,
                f"certificate claims {claimed.describe()} for an expression "
                "the analysis cannot model (interpreted fallback only)",
                "Sec 3.1",
            )
        )
        return
    if (claimed.pure and not truth.pure) or (
        claimed.deterministic and not truth.deterministic
    ):
        report.add(
            Diagnostic(
                EFX_PURE, Severity.ERROR, site.path,
                f"certificate claims purity/determinism ({claimed.describe()})"
                f" the analysis cannot derive ({truth.describe()})",
                "Sec 3.1",
            )
        )
    if not claimed.exceptions >= truth.exceptions:
        missing = sorted(truth.exceptions - claimed.exceptions)
        report.add(
            Diagnostic(
                EFX_TOTAL, Severity.ERROR, site.path,
                f"certificate understates the escaping exceptions: derived "
                f"{sorted(truth.exceptions)} but claimed "
                f"{sorted(claimed.exceptions)} (missing {missing}) — an "
                "unguarded loop could abort mid-batch",
                "Sec 3.1",
            )
        )
    if claimed.null_strict and not truth.null_strict:
        report.add(
            Diagnostic(
                EFX_NULL, Severity.ERROR, site.path,
                "certificate claims null-strictness the analysis cannot "
                "derive: masked-out positions could influence surviving "
                "outputs",
                "Sec 3.1",
            )
        )
    if claimed.domain is not None:
        if truth.domain is None or not claimed.domain.covers(truth.domain):
            report.add(
                Diagnostic(
                    EFX_DOMAIN, Severity.ERROR, site.path,
                    f"certificate claims value domain {claimed.domain!r} but "
                    f"the derived domain is "
                    f"{repr(truth.domain) if truth.domain else 'non-numeric'} "
                    "— the claim does not cover every producible value",
                    "Sec 3.1",
                )
            )


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
    report = check_effect_certificate(plan, cert, counters=counters, tracer=tracer)
    if not report.ok:
        raise_unsound(EffectSoundnessError, "effect certificate rejected", report)
    return cert

