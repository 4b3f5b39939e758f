"""Exception hierarchy for the sequence query processing library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated Python
errors.  Subclasses partition failures by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A record schema is malformed, or a record does not match its schema."""


class SpanError(ReproError):
    """An invalid span operation, e.g. iterating an unbounded span."""


class QueryError(ReproError):
    """A query graph is malformed (type errors, arity errors, cycles)."""


class ExpressionError(QueryError):
    """An expression is ill-typed or references an unknown column.

    A subclass of :class:`QueryError`: an ill-typed expression inside a
    query is a query error.
    """


class OptimizerError(ReproError):
    """The optimizer could not produce a plan for a well-formed query."""


class ExecutionError(ReproError):
    """A physical plan failed during evaluation."""


class QueryGuardError(ExecutionError):
    """A query was stopped by its :class:`~repro.execution.guard.QueryGuard`.

    Base class for the three guard verdicts.  Guard errors are not
    internal failures — they are the governor doing its job — so the
    batch→row fallback never swallows them.

    Attributes:
        records_emitted: records the root had produced when the guard
            stopped the query (work completed so far).
    """

    def __init__(self, message: str, records_emitted: int = 0):
        super().__init__(message)
        self.records_emitted = records_emitted


class QueryTimeoutError(QueryGuardError):
    """The query exceeded its wall-clock deadline.

    Attributes:
        timeout_seconds: the configured deadline.
        elapsed_seconds: wall-clock time when the guard tripped.
    """

    def __init__(
        self,
        message: str,
        timeout_seconds: float = 0.0,
        elapsed_seconds: float = 0.0,
        records_emitted: int = 0,
    ):
        super().__init__(message, records_emitted=records_emitted)
        self.timeout_seconds = timeout_seconds
        self.elapsed_seconds = elapsed_seconds


class QueryCancelledError(QueryGuardError):
    """The query's cooperative cancellation token was triggered."""


class ResourceBudgetExceededError(QueryGuardError):
    """The query exceeded one of its hard resource budgets.

    Attributes:
        budget: which budget was violated — ``"records_emitted"``,
            ``"pages_read"`` or ``"cache_entries"``.
        limit: the configured budget.
        used: the observed value that exceeded it.
    """

    def __init__(
        self,
        message: str,
        budget: str = "",
        limit: int = 0,
        used: int = 0,
        records_emitted: int = 0,
    ):
        super().__init__(message, records_emitted=records_emitted)
        self.budget = budget
        self.limit = limit
        self.used = used


class StorageError(ReproError):
    """A failure in the paged storage substrate."""


class TransientStorageError(StorageError):
    """A storage fault that may succeed if the access is retried.

    Raised by the fault-injection layer (:mod:`repro.storage.faults`)
    for flaky-read faults; the buffer pool's
    :class:`~repro.storage.faults.RetryPolicy` retries these before
    giving up and re-raising.
    """


class PermanentStorageError(StorageError):
    """A storage fault that no number of retries can clear.

    E.g. a lost page.  Never retried: the error surfaces to the query
    immediately.
    """


class CorruptPageError(PermanentStorageError):
    """A page's content no longer matches its checksum.

    Corruption is *detected*, never silently returned: every disk read
    re-validates the page checksum (:meth:`repro.storage.page.Page.verify`)
    and raises this error on mismatch.  A corrupt page stays corrupt, so
    the error is permanent and is not retried.

    Attributes:
        page_id: the id of the corrupt page, or -1 if unknown.
    """

    def __init__(self, message: str, page_id: int = -1):
        super().__init__(message)
        self.page_id = page_id


class CatalogError(ReproError):
    """A catalog lookup or registration failed."""


class TraceFormatError(ReproError):
    """A serialized trace does not conform to the pinned trace schema.

    Raised by :mod:`repro.obs.schema` validation, naming the offending
    JSON path, so downstream tools can rely on the format contract.
    """


class VerificationError(ReproError):
    """A static verification pass found error-severity diagnostics.

    Raised by :mod:`repro.analysis` when a query graph or physical plan
    violates one of the paper's invariants (Proposition 2.1, the Step-2
    span propagation, Proposition 3.1, Theorem 3.1).

    Attributes:
        report: the :class:`repro.analysis.VerificationReport` whose
            error-severity diagnostics triggered the failure.
    """

    def __init__(self, message: str, report: object = None):
        super().__init__(message)
        self.report = report


class PartitionSoundnessError(VerificationError):
    """A plan could not be certified as parallel-decomposable.

    Raised by :mod:`repro.analysis.partition` when the prover refuses
    to issue a :class:`~repro.analysis.partition.PartitionCertificate`
    (an order-sensitive or blocking operator sits above a cut, or the
    requested cuts cannot tile the output span) and by the independent
    checker when a presented certificate fails re-verification.  The
    attached report carries the typed ``PART*`` diagnostics — a plan is
    rejected with a reasoned finding, never silently partitioned.
    """


class EffectSoundnessError(VerificationError):
    """An expression (or plan) could not be certified as effect-safe.

    Raised by :mod:`repro.analysis.effects` when the prover refuses to
    issue an :class:`~repro.analysis.effects.EffectCertificate` (a plan
    contains expressions whose effects cannot be modeled) and by the
    independent checker when a presented certificate fails
    re-verification.  The attached report carries the typed ``EFX*``
    diagnostics — a plan is refused with a reasoned finding, never
    silently assumed pure, total and null-strict.
    """


class UnknownEffectError(EffectSoundnessError):
    """The effect analysis met an expression it cannot model.

    The typed top element of the effect lattice: custom
    :class:`~repro.algebra.expressions.Expr` subclasses may perform
    arbitrary Python work in ``eval``, so nothing can be assumed about
    their purity, determinism, totality or strictness.  Raised by
    :func:`repro.analysis.effects.require_spec` (and the certifiers
    built on it) instead of guessing.

    Attributes:
        expr_type: the offending expression class name.
    """

    def __init__(self, message: str, expr_type: str = "", report: object = None):
        super().__init__(message, report=report)
        self.expr_type = expr_type


class ParseError(ReproError):
    """The query language text could not be parsed.

    Attributes:
        line: 1-based line of the offending token.
        column: 1-based column of the offending token.
        excerpt: optional source excerpt with a caret underline,
            appended to the message on its own lines.
    """

    def __init__(
        self,
        message: str,
        line: int = 0,
        column: int = 0,
        excerpt: str = "",
    ):
        location = f" (line {line}, column {column})" if line else ""
        rendered = f"{message}{location}"
        if excerpt:
            rendered = f"{rendered}\n{excerpt}"
        super().__init__(rendered)
        self.line = line
        self.column = column
        self.excerpt = excerpt


class SemanticError(ParseError):
    """Semantic analysis rejected a parsed query.

    Raised by :func:`repro.lang.compile_query` when the front-end
    analyzer (:mod:`repro.lang.analyzer`) produces error-severity
    diagnostics.  Unlike a plain :class:`ParseError` — which reports
    the first offending token — a SemanticError aggregates *all*
    diagnostics of the analysis pass, each with its own source
    location and caret excerpt.

    A subclass of :class:`ParseError`: both mean "this query text was
    rejected at compile time", and callers that catch ParseError for
    user-facing error reporting handle both uniformly.

    Attributes:
        diagnostics: the error- and warning-severity
            :class:`repro.analysis.SourceDiagnostic` findings, in
            source order.
    """

    def __init__(self, message: str, diagnostics: object = ()):
        diagnostics = list(diagnostics)  # type: ignore[call-overload]
        first = next(
            (d for d in diagnostics if getattr(d, "line", 0)), None
        )
        super().__init__(
            message,
            line=getattr(first, "line", 0),
            column=getattr(first, "column", 0),
        )
        self.diagnostics = diagnostics
