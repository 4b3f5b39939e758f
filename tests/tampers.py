"""The tamper table: one lie per row, and the rule that refutes it.

Each row is a claim a buggy or hostile producer could make about a plan
and the rule that refutes it.  :func:`trips` puts the claim in a
certificate for the plan and requires the rule from the certificate
checker.
"""

from __future__ import annotations

import dataclasses

from repro.algebra.expressions import Col, Lit
from repro.analysis import plan_fingerprint
from repro.analysis.base import root_plan
from repro.analysis.effects import (
    EffectCertificate,
    EffectSite,
    Interval,
    analyze_expr,
    check_effect_certificate,
    node_expression_sites,
)
from repro.analysis.partition import PartitionCertificate, analyze_partition, check_certificate
from repro.errors import ReproError
from repro.lang import compile_query
from repro.optimizer import optimize


class Opaque(Col):
    """A custom expression node outside the modeled effect language: ``close``."""

    def __init__(self):
        super().__init__("close")

    def __repr__(self):
        return "Opaque()"


class OpaquePredicate(Lit):
    """A custom boolean node, for select predicates: always true."""

    def __init__(self):
        super().__init__(True)

    def __repr__(self):
        return "OpaquePredicate()"


def replace_chain_predicate(plan, predicate):
    """Swap the first chain select predicate of a (physical or optimized) plan."""
    for node in root_plan(plan).walk():
        for index, step in enumerate(node.steps):
            if step.predicate is not None:
                steps = list(node.steps)
                steps[index] = dataclasses.replace(step, predicate=predicate)
                node.steps = tuple(steps)
                return node
    raise AssertionError("no chain select step in plan")


def _respec(**changes):
    return lambda specs, plan: specs.update(
        step0=dataclasses.replace(specs["step0"], **changes)
    )


POINTWISE = {"kind": "pointwise", "halo_below": 0, "halo_above": 0}
SELECT = "select(ibm, close > 115.0)"
DIVIDED = "select(ibm, close / volume > 0.01)"

#: row -> (refuting rule, query text, claim).  A partition claim is a
#: contract dict; an effect claim edits the plan's derived per-site specs
#: (or, for a stale claim, the plan under them) in place.
TAMPERS = {
    "understated-halo": (
        "PART-HALO",
        "window(ibm, avg, close, 6, ma6)",
        {"kind": "windowed", "halo_below": 1, "halo_above": 0},
    ),
    "order-sensitive-claimed-pointwise": ("PART-ORDER", "previous(ibm)", POINTWISE),
    "blocking-claimed-pointwise": ("PART-BLOCKING", "cumulative(ibm, max, close)", POINTWISE),
    # No certificate carries this contract to its checker:
    # PartitionCertificate.from_dict refuses the unknown kind, typed.
    "malformed-contract": ("PART-CONTRACT", SELECT, {"kind": "sideways"}),
    "understated-exceptions": ("EFX-TOTAL", DIVIDED, _respec(exceptions=frozenset())),
    "overclaimed-domain": ("EFX-DOMAIN", DIVIDED, _respec(domain=Interval(0.0, 1.0))),
    "phantom-site": ("EFX-FALLBACK", DIVIDED, lambda specs, plan: specs.update(step9=specs["step0"])),
    "missing-site": ("EFX-FALLBACK", DIVIDED, lambda specs, plan: specs.pop("step0")),
    "stale-claim-over-unknown": (
        "EFX-FALLBACK", SELECT, lambda specs, plan: replace_chain_predicate(plan, OpaquePredicate()),
    ),
}


def _partition_certificate(plan, claim):
    """The plan's honest 2-way certificate (an empty tiling if none) claiming ``claim``."""
    honest, _report = analyze_partition(plan, 2)
    empty = {"empty": True}
    payload = honest.to_dict() if honest is not None else {
        "fingerprint": plan_fingerprint(plan), "parts": 0, "root_span": empty,
        "cut_points": [], "partitions": [], "halo_obligations": [],
        "merge": {"windows": [], "covers": empty},
    }
    return PartitionCertificate.from_dict({**payload, "contract": claim})


def trips(catalog, row):
    """Run one row through the certificate checker."""
    rule, source, claim = TAMPERS[row]
    root = optimize(compile_query(source, catalog), catalog=catalog).plan.plan
    if callable(claim):
        specs = {key: analyze_expr(e, s) for key, e, s in node_expression_sites(root)}
        claim(specs, root)
        sites = tuple(EffectSite(f"root:{root.kind}#{key}", "", s) for key, s in specs.items())
        checked = check_effect_certificate(root, EffectCertificate(plan_fingerprint(root), sites))
    else:
        try:
            checked = check_certificate(root, _partition_certificate(root, claim))
        except ReproError:
            assert row == "malformed-contract", row
            return
    assert rule in {d.rule for d in checked.errors}, row


def tamper_test(row):
    """A test method (taking the ``table1`` fixture) that runs ``row`` through :func:`trips`."""
    return lambda self, table1: trips(table1[0], row)
