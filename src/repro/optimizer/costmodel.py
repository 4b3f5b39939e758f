"""The cost model (paper Sections 4.1.1-4.1.3).

Costs are measured in *page-access units*: one unit is the cost of
fetching one page from disk.  CPU-side work (predicate applications,
cache operations, per-record handling) is charged small constant
fractions of a unit, mirroring the paper's constant ``K`` for "a single
application of the join predicates".

The formulas of Section 4.1.3 are implemented verbatim, and they are the
ones the optimizer runs — :mod:`repro.optimizer.joinenum` calls them for
every join it enumerates:

* stream access to a positional join of S1, S2::

      min(A1 + A2,  A1 + n1*a2,  A2 + n2*a1)  +  d1*d2*L*K

* probed access (per position)::

      min(a1 + d1*a2,  a2 + d2*a1)  +  d1*d2*K

where ``A`` is a full stream cost, ``a`` a per-probe cost, ``d`` a
density, ``L`` the output span length and ``n = d*L`` the expected
record count.

Every formula *and* every strategy choice of Step 5 lives here: a
*chooser* (:meth:`CostModel.join_stream_cost`, :meth:`~CostModel.join_probe_cost`,
:meth:`~CostModel.window_agg_costs`, :meth:`~CostModel.value_offset_costs`)
returns ``(costs, strategy)``, so the enumerator never reads a
:class:`CostParams` constant and compares two costs only when it
retains the best plan per subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Real

from repro.errors import OptimizerError
from repro.model.span import Span
from repro.storage.organizations import AccessProfile


@dataclass(frozen=True)
class CostParams:
    """Tunable constants of the cost model.

    Attributes:
        page_cost: cost of one page access (the unit; leave at 1.0).
        predicate_cost: the paper's K — one predicate application.
        cache_op_cost: one insertion/eviction/lookup in an operator cache.
        record_cost: per-record CPU handling in a stream.
    """

    page_cost: float = 1.0
    predicate_cost: float = 0.01
    cache_op_cost: float = 0.002
    record_cost: float = 0.001

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            try:
                valid = (
                    isinstance(value, Real)
                    and not isinstance(value, bool)
                    and math.isfinite(value)
                    and value >= 0
                )
            except OverflowError:  # an int too large for a float
                valid = False
            if not valid:
                raise OptimizerError(
                    f"CostParams.{spec.name} must be a finite number >= 0, "
                    f"got {value!r}"
                )


@dataclass(frozen=True)
class AccessCosts:
    """The two access-mode costs of a (sub)plan output.

    Attributes:
        stream_total: cost of producing the full restricted span as a
            stream (the paper's A for this derived sequence).
        probe_unit: cost of producing the record at one given position
            (the paper's a).
        setup: one-time cost paid before the first probe (the single
            computation of a whole-sequence aggregate).
    """

    stream_total: float
    probe_unit: float
    setup: float = 0.0

    def __post_init__(self) -> None:
        if self.stream_total < 0 or self.probe_unit < 0 or self.setup < 0:
            raise OptimizerError(f"negative cost: {self}")

    def probes(self, count: float) -> float:
        """Total cost of ``count`` probes, including the setup."""
        return self.setup + count * self.probe_unit


def span_fraction(part: Span, whole: Span) -> float:
    """The fraction of ``whole``'s positions that ``part`` covers."""
    whole_len = whole.length()
    part_len = part.intersect(whole).length()
    if whole_len is None or part_len is None:
        raise OptimizerError("span fractions need bounded spans")
    if whole_len == 0:
        return 0.0
    return part_len / whole_len


class CostModel:
    """Estimates access costs for base sequences and operators."""

    def __init__(self, params: CostParams | None = None):
        if params is not None and not isinstance(params, CostParams):
            raise OptimizerError(f"params must be a CostParams, got {params!r}")
        self.params = params or CostParams()

    # -- base sequences (Section 4.1.1) ------------------------------------

    def base_costs(
        self,
        profile: AccessProfile,
        full_span: Span,
        restricted_span: Span,
    ) -> AccessCosts:
        """Stream/probe costs of a base sequence over its restricted span.

        The stream cost scales with the fraction of the valid range
        actually scanned — the payoff of the span optimization.
        """
        fraction = span_fraction(restricted_span, full_span) if full_span.length() else 0.0
        return AccessCosts(
            stream_total=profile.stream_total * fraction * self.params.page_cost,
            probe_unit=profile.probe_unit * self.params.page_cost,
        )

    def constant_costs(self) -> AccessCosts:
        """Constants have no access cost (Section 4.1.1)."""
        return AccessCosts(stream_total=0.0, probe_unit=0.0)

    # -- unit-scope chains ------------------------------------------------------

    def chain_costs(
        self,
        child: AccessCosts,
        expected_records: float,
        predicate_conjuncts: int,
    ) -> AccessCosts:
        """Costs after applying selections/projections/offsets to a stream."""
        cpu_per_record = (
            self.params.record_cost
            + predicate_conjuncts * self.params.predicate_cost
        )
        return AccessCosts(
            stream_total=child.stream_total + expected_records * cpu_per_record,
            probe_unit=child.probe_unit + cpu_per_record,
            setup=child.setup,
        )

    # -- positional joins (Section 4.1.3) ------------------------------------------

    def join_stream_cost(
        self,
        left: AccessCosts,
        right: AccessCosts,
        left_density: float,
        right_density: float,
        out_length: int,
        conjuncts: int,
    ) -> tuple[float, str]:
        """Cheapest stream plan for one positional join; returns (cost, strategy).

        The three candidates are Join-Strategy-B (lock-step) and
        Join-Strategy-A in both directions (Section 3.3).  A tie goes to
        the earlier of lockstep, stream-probe, probe-stream.
        """
        n_left = left_density * out_length
        n_right = right_density * out_length
        candidates = {
            "lockstep": left.stream_total + right.stream_total,
            "stream-probe": left.stream_total + right.probes(n_left),
            "probe-stream": right.stream_total + left.probes(n_right),
        }
        strategy = min(candidates, key=lambda k: candidates[k])
        predicate_cost = (
            left_density * right_density * out_length
            * max(1, conjuncts) * self.params.predicate_cost
        )
        return candidates[strategy] + predicate_cost, strategy

    def join_probe_cost(
        self,
        left: AccessCosts,
        right: AccessCosts,
        left_density: float,
        right_density: float,
        conjuncts: int,
    ) -> tuple[float, str]:
        """Cheapest probed plan (per position) for one positional join."""
        candidates = {
            "probe-left-first": left.probe_unit + left_density * right.probe_unit,
            "probe-right-first": right.probe_unit + right_density * left.probe_unit,
        }
        strategy = min(candidates, key=lambda k: candidates[k])
        predicate_cost = (
            left_density * right_density * max(1, conjuncts) * self.params.predicate_cost
        )
        return candidates[strategy] + predicate_cost, strategy

    # -- non-unit-scope operators (Section 4.1.2) -------------------------------------

    def window_agg_costs(
        self,
        child: AccessCosts,
        width: int,
        out_length: int,
        child_density: float,
    ) -> tuple[AccessCosts, str]:
        """(costs, "cache-a" | "naive") of a moving aggregate.

        Cache-Strategy-A streams the input once with a scope-sized
        cache: two cache operations plus one aggregate update per
        position.  The naive stream alternative probes the input
        ``width`` times per output position; Cache-Strategy-A wins a
        tie.  The probed cost is the naive one (the incremental
        algorithm is not usable with probed access, Section 4.1.2).
        """
        per_position_cpu = 2 * self.params.cache_op_cost + self.params.record_cost
        cache_a = child.stream_total + out_length * per_position_cpu
        naive_stream = out_length * width * (child.probe_unit + self.params.record_cost)
        probe_unit = width * (child.probe_unit + self.params.record_cost)
        if cache_a <= naive_stream:
            return AccessCosts(stream_total=cache_a, probe_unit=probe_unit), "cache-a"
        return AccessCosts(stream_total=naive_stream, probe_unit=probe_unit), "naive"

    def value_offset_costs(
        self,
        child: AccessCosts,
        reach: int,
        out_length: int,
        child_density: float,
    ) -> tuple[AccessCosts, str]:
        """(costs, "incremental" | "naive") of a value offset (Previous/Next).

        Stream: Cache-Strategy-B — one pass over the input, a
        reach-sized incremental cache.  Probe: the naive algorithm scans
        an expected ``reach / density`` input positions (Section 4.1.2's
        "reasonable estimate ... made from the density").  The stream
        total is the Cache-Strategy-B one under either strategy; naive
        is chosen only when probing every output position is cheaper.
        """
        stream = child.stream_total + out_length * 2 * self.params.cache_op_cost
        expected_scan = reach / max(child_density, 1e-9)
        probe_unit = expected_scan * (child.probe_unit + self.params.record_cost)
        strategy = "incremental" if stream <= out_length * probe_unit else "naive"
        return AccessCosts(stream_total=stream, probe_unit=probe_unit), strategy

    def cumulative_costs(
        self,
        child: AccessCosts,
        out_length: int,
    ) -> AccessCosts:
        """Costs of a cumulative aggregate (running state over a stream)."""
        stream = child.stream_total + out_length * (
            self.params.cache_op_cost + self.params.record_cost
        )
        # A single probe must aggregate the whole prefix: half the
        # stream on average, via probes.
        probe_unit = 0.5 * out_length * (child.probe_unit + self.params.record_cost)
        return AccessCosts(stream_total=stream, probe_unit=probe_unit)

    def global_agg_costs(
        self,
        child: AccessCosts,
        out_length: int,
    ) -> AccessCosts:
        """Costs of a whole-sequence aggregate (computed once, replayed)."""
        compute = child.stream_total
        stream = compute + out_length * self.params.record_cost
        return AccessCosts(
            stream_total=stream,
            probe_unit=self.params.record_cost,
            setup=compute,
        )
