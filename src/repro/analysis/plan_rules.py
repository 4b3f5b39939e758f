"""Physical-plan rules: cache finiteness and cost sanity.

* ``cache-finiteness`` — Theorem 3.1 / Lemma 3.2: stream evaluation
  must terminate with bounded memory.  Every stream-mode node has a
  bounded span, every caching strategy declares a finite scope-sized
  cache, every node is executable in its declared access mode (a
  builder exists for stream nodes, a prober for probed nodes), and the
  join strategies of Section 3.3 receive inputs in the access modes
  they are defined for (Join-Strategy-A streams one side and probes
  the other; Join-Strategy-B streams both).
* ``cost-sanity`` — Section 4.1: estimates are finite and non-negative,
  densities are probabilities, and a stream plan never claims to be
  cheaper than a stream input it must fully consume (the formulas of
  Sections 4.1.1-4.1.3 all add non-negative work to their inputs).

Partition and effect soundness are not plan rules: a plan claims
neither, and their certificate checkers (:mod:`repro.analysis.partition`,
:mod:`repro.analysis.effects`) derive both from the plan itself.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from repro.algebra.offsets import ValueOffset
from repro.algebra.aggregate import WindowAggregate
from repro.analysis.base import PlanContext, plan_rule
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.execution.context import OPERATORS
from repro.optimizer.plans import PROBE, STREAM, PhysicalPlan

#: Plan kinds the operator table can open as a stream.
STREAMABLE_KINDS = frozenset(kind for kind, op in OPERATORS.items() if op.stream is not None)

#: Plan kinds the operator table can open as a prober.
PROBEABLE_KINDS = frozenset(kind for kind, op in OPERATORS.items() if op.probe is not None)

#: Required child modes per plan kind, where they are fixed.  ``None``
#: means "same as the parent"; global-agg always consumes a stream
#: regardless of its own mode.
_CHILD_MODES: dict[str, tuple[Optional[str], ...]] = {
    "scan": (),
    "probe-source": (),
    "lockstep": (STREAM, STREAM),
    "stream-probe": (STREAM, PROBE),
    "probe-stream": (PROBE, STREAM),
    "probe-join": (PROBE, PROBE),
    "chain": (None,),
    "global-agg": (STREAM,),
}

#: (strategy on a stream-mode node) -> required child mode, for the
#: unary operators that choose between a caching strategy over a
#: stream and the naive algorithm over a prober (Section 4.1.2).
_UNARY_STREAM_STRATEGIES: dict[str, dict[str, str]] = {
    "window-agg": {"cache-a": STREAM, "naive": PROBE},
    "value-offset": {"incremental": STREAM, "naive": PROBE},
    "cumulative-agg": {"running": STREAM, "naive": PROBE},
}


def _expected_cache(plan: PhysicalPlan) -> Optional[int]:
    """The scope-sized cache Theorem 3.1 prescribes for this strategy."""
    if plan.kind == "window-agg" and plan.strategy == "cache-a":
        if isinstance(plan.node, WindowAggregate):
            return plan.node.width
    if plan.kind == "value-offset" and plan.strategy == "incremental":
        if isinstance(plan.node, ValueOffset):
            return plan.node.reach
    return None


@plan_rule("cache-finiteness", citation="Thm 3.1 / Lem 3.2")
def check_cache_finiteness(ctx: PlanContext) -> Iterator[Diagnostic]:
    """Finite spans, finite caches, and executable access modes."""
    if ctx.plan.mode != STREAM:
        yield Diagnostic(
            "cache-finiteness", Severity.ERROR, "root",
            f"root plan must deliver a stream (the Start operator induces "
            f"stream access), got mode {ctx.plan.mode!r}",
            "Thm 3.1",
        )
    for plan in ctx.plan.walk():
        path = ctx.path(plan)
        if plan.mode not in (STREAM, PROBE):
            yield Diagnostic(
                "cache-finiteness", Severity.ERROR, path,
                f"unknown access mode {plan.mode!r}", "Thm 3.1",
            )
            continue

        # Executability: a builder/prober must exist for the mode.
        if plan.mode == STREAM and plan.kind not in STREAMABLE_KINDS:
            yield Diagnostic(
                "cache-finiteness", Severity.ERROR, path,
                f"plan kind {plan.kind!r} has no stream builder",
                "Thm 3.1",
            )
        if plan.mode == PROBE and plan.kind not in PROBEABLE_KINDS:
            yield Diagnostic(
                "cache-finiteness", Severity.ERROR, path,
                f"plan kind {plan.kind!r} has no prober — probed-mode nodes "
                "must be backed by a prober",
                "Thm 3.1",
            )

        # Finiteness: a stream visits every position of its span.
        if plan.mode == STREAM and not plan.span.is_bounded:
            yield Diagnostic(
                "cache-finiteness", Severity.ERROR, path,
                f"stream-mode plan has unbounded span {plan.span}; stream "
                "evaluation must visit finitely many positions",
                "Thm 3.1",
            )

        # Scope-sized caches: declared cache sizes match the operator's
        # (finite) scope.
        expected_cache = _expected_cache(plan)
        if expected_cache is not None:
            if plan.cache_size != expected_cache:
                yield Diagnostic(
                    "cache-finiteness", Severity.ERROR, path,
                    f"strategy {plan.strategy!r} declares cache size "
                    f"{plan.cache_size!r}, but the operator's scope needs "
                    f"{expected_cache}",
                    "Thm 3.1",
                )
            elif expected_cache < 1:
                yield Diagnostic(
                    "cache-finiteness", Severity.ERROR, path,
                    f"caching strategy with non-positive cache size "
                    f"{expected_cache}",
                    "Thm 3.1",
                )

        # Access-mode consistency of the Section 3.3 join strategies
        # and the Section 4.1.2 unary strategies.
        required = _CHILD_MODES.get(plan.kind)
        if plan.kind in _UNARY_STREAM_STRATEGIES:
            if plan.mode == STREAM:
                table = _UNARY_STREAM_STRATEGIES[plan.kind]
                want = table.get(plan.strategy)
                if want is None:
                    yield Diagnostic(
                        "cache-finiteness", Severity.ERROR, path,
                        f"unknown {plan.kind} stream strategy "
                        f"{plan.strategy!r} (expected one of "
                        f"{sorted(table)})",
                        "Thm 3.1",
                    )
                else:
                    required = (want,)
            else:
                # Probed evaluation is always the naive algorithm over a
                # child prober (Section 4.1.2).
                required = (PROBE,)
        if required is not None:
            if len(plan.children) != len(required):
                yield Diagnostic(
                    "cache-finiteness", Severity.ERROR, path,
                    f"{plan.kind} plan has {len(plan.children)} input(s), "
                    f"expected {len(required)}",
                    "Sec 3.3",
                )
                continue
            for index, (child, want) in enumerate(zip(plan.children, required)):
                want = plan.mode if want is None else want
                if child.mode != want:
                    yield Diagnostic(
                        "cache-finiteness", Severity.ERROR, path,
                        f"{plan.kind}{f'({plan.strategy})' if plan.strategy else ''} "
                        f"requires input {index} in {want} mode, got "
                        f"{child.mode} — the join/caching strategy does not "
                        "match its input access modes",
                        "Sec 3.3",
                    )


@plan_rule("cost-sanity", citation="Sec 4.1")
def check_cost_sanity(ctx: PlanContext) -> Iterator[Diagnostic]:
    """Finite non-negative estimates, monotone along stream inputs."""
    # Tolerance for float roundoff in the monotonicity comparison.
    eps = 1e-9
    for plan in ctx.plan.walk():
        path = ctx.path(plan)
        estimates = {
            "stream_total": plan.costs.stream_total,
            "probe_unit": plan.costs.probe_unit,
            "setup": plan.costs.setup,
        }
        bad = False
        for name, value in estimates.items():
            if not math.isfinite(value) or value < 0:
                yield Diagnostic(
                    "cost-sanity", Severity.ERROR, path,
                    f"estimate {name}={value!r} is not a finite non-negative "
                    "number",
                    "Sec 4.1",
                )
                bad = True
        if not (0.0 <= plan.density <= 1.0):
            yield Diagnostic(
                "cost-sanity", Severity.ERROR, path,
                f"estimated density {plan.density!r} outside [0, 1]",
                "Sec 4.1",
            )
        if bad or plan.mode != STREAM:
            continue
        # Every cost formula adds non-negative work on top of a stream
        # input it fully consumes, so a parent estimate below a stream
        # child's estimate means the numbers were not produced by the
        # model (Sections 4.1.1-4.1.3).
        for child in plan.children:
            if child.mode != STREAM:
                continue
            if not math.isfinite(child.costs.stream_total):
                continue
            if plan.costs.stream_total + eps < child.costs.stream_total:
                yield Diagnostic(
                    "cost-sanity", Severity.ERROR, path,
                    f"stream cost {plan.costs.stream_total:.6g} is below its "
                    f"stream input's cost {child.costs.stream_total:.6g}; "
                    "costs must be monotone along consumed streams",
                    "Sec 4.1",
                )
