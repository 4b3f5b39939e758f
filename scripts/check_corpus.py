#!/usr/bin/env python
"""The corpus gate: three checks over every query text shipped in the repository.

The corpus:

* ``examples/query_language_tour.py`` — the ``TOUR`` list;
* ``examples/quickstart.py`` — the ``TEXT_QUERY`` constant;
* ``repro.workloads.STOCK_EXAMPLE_QUERIES`` over the Table 1 catalog;
* ``repro.workloads.WEATHER_EXAMPLE_QUERIES`` over the weather
  environment (``v`` = volcanos, ``e`` = earthquakes).

Each query goes through:

1. **lint** — the front-end semantic analyzer (``repro check``) must
   produce no diagnostic at all, errors *or* warnings;
2. **partition** — optimized, then for partition counts {2, 3, 8} it is
   either *certified* (the prover issues a
   :class:`PartitionCertificate` the independent checker re-verifies
   cleanly) or *rejected* with at least one typed ``PART*`` finding;
3. **effects** — either *certified* (an :class:`EffectCertificate`
   covering every expression site, re-verified by the independent
   checker) or *rejected* with at least one typed ``EFX*`` finding.

A certificate the checker rejects, or a refusal without a typed
finding, fails the gate; so does an optimized plan that fails the plan
rules of ``repro verify-plan`` (cache finiteness, cost sanity).

Exit status: 0 = corpus is clean on all three; 1 = violations.
Invoked by ``scripts/check.sh`` as the "corpus gate" step.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "examples"))

from query_language_tour import TOUR  # noqa: E402
from quickstart import TEXT_QUERY  # noqa: E402

from repro import AtomType, BaseSequence, Catalog, RecordSchema  # noqa: E402
from repro.analysis import verify_plan  # noqa: E402
from repro.analysis.effects import (  # noqa: E402
    EFX_RULES,
    analyze_effects,
    check_effect_certificate,
)
from repro.analysis.partition import (  # noqa: E402
    PART_RULES,
    analyze_partition,
    check_certificate,
)
from repro.lang import analyze, compile_query, render_diagnostics  # noqa: E402
from repro.optimizer import optimize  # noqa: E402
from repro.workloads import (  # noqa: E402
    STOCK_EXAMPLE_QUERIES,
    WEATHER_EXAMPLE_QUERIES,
    WeatherSpec,
    generate_weather,
    table1_catalog,
)

PARTS = (2, 3, 8)


def quickstart_catalog() -> Catalog:
    """A tiny catalog shaped like the one quickstart.py builds."""
    schema = RecordSchema.of(close=AtomType.FLOAT, volume=AtomType.INT)
    prices = BaseSequence.from_values(
        schema, [(1, (101.2, 5_000)), (2, (102.8, 6_200)), (4, (101.1, 4_100))]
    )
    catalog = Catalog()
    catalog.register("prices", prices)
    return catalog


def weather_catalog() -> Catalog:
    volcanos, quakes = generate_weather(WeatherSpec(horizon=2000, seed=7))
    catalog = Catalog()
    catalog.register("v", volcanos)
    catalog.register("e", quakes)
    return catalog


def gather() -> list[tuple[str, str, Catalog]]:
    """Every (label, source, environment) triple of the corpus."""
    table1, _ = table1_catalog()
    weather = weather_catalog()
    corpus: list[tuple[str, str, Catalog]] = []
    for index, (title, source) in enumerate(TOUR):
        corpus.append((f"tour[{index}] {title}", source, table1))
    corpus.append(("quickstart.TEXT_QUERY", TEXT_QUERY, quickstart_catalog()))
    for index, source in enumerate(STOCK_EXAMPLE_QUERIES):
        corpus.append((f"stocks.EXAMPLE_QUERIES[{index}]", source, table1))
    for index, source in enumerate(WEATHER_EXAMPLE_QUERIES):
        corpus.append((f"weather.EXAMPLE_QUERIES[{index}]", source, weather))
    return corpus


def _errors(report) -> str:
    return "\n  ".join(d.render() for d in report.errors)


def lint_check(source: str, catalog: Catalog) -> list[str]:
    """Problems the semantic analyzer finds in the text (none expected)."""
    result = analyze(source, catalog)
    if result.diagnostics:
        return [render_diagnostics(source, result.report)]
    return []


def partition_check(optimized) -> tuple[list[str], bool]:
    """(problems, certified for ``PARTS[0]``) of the partition analysis."""
    problems = []
    certified = False
    for parts in PARTS:
        certificate, report = analyze_partition(optimized, parts)
        if certificate is None:
            if not any(d.rule in PART_RULES for d in report.errors):
                problems.append(
                    f"parts={parts}: refused without a typed PART* finding"
                )
            continue
        certified = certified or parts == PARTS[0]
        check = check_certificate(optimized, certificate)
        if not check.ok:
            problems.append(
                f"parts={parts}: prover issued a certificate the "
                f"checker rejects:\n  {_errors(check)}"
            )
    return problems, certified


def effects_check(optimized) -> tuple[list[str], object]:
    """(problems, certificate-or-None) of the effect analysis."""
    certificate, report = analyze_effects(optimized)
    if certificate is None:
        if not any(d.rule in EFX_RULES for d in report.errors):
            return ["refused without a typed EFX* finding"], None
        return [], None
    check = check_effect_certificate(optimized, certificate)
    if not check.ok:
        return [
            f"prover issued a certificate the checker rejects:\n  {_errors(check)}"
        ], None
    return [], certificate


def main() -> int:
    corpus = gather()
    dirty = {"lint": 0, "partition": 0, "effects": 0}
    part_certified = efx_certified = sites = safe = 0
    for label, source, catalog in corpus:
        problems = {"lint": lint_check(source, catalog), "partition": [], "effects": []}
        if not problems["lint"]:
            optimized = optimize(compile_query(source, catalog), catalog=catalog).plan
            lint = verify_plan(optimized)
            if not lint.ok:
                message = (
                    "the optimized plan fails the plan rules:"
                    f"\n  {_errors(lint)}"
                )
                problems["partition"] = problems["effects"] = [message]
            else:
                problems["partition"], certified = partition_check(optimized)
                if certified:
                    part_certified += 1
                problems["effects"], certificate = effects_check(optimized)
                if certificate is not None:
                    efx_certified += 1
                    sites += len(certificate.sites)
                    safe += len(certificate.vectorization_safe_sites)
        for check, found in problems.items():
            if found:
                dirty[check] += 1
                print(f"[{check}] {label}: {source}")
                for problem in found:
                    print(f"  {problem}")

    total = len(corpus)
    if dirty["lint"]:
        print(f"{dirty['lint']} of {total} shipped queries have diagnostics")
    if dirty["partition"]:
        print(f"{dirty['partition']} of {total} shipped queries are partition-dirty")
    if dirty["effects"]:
        print(f"{dirty['effects']} of {total} shipped queries are effect-dirty")
    if any(dirty.values()):
        return 1
    print(f"all {total} shipped queries analyze clean")
    print(
        f"all {total} shipped queries are partition-clean "
        f"({part_certified} certified for parts {PARTS}, "
        f"{total - part_certified} rejected with typed PART* findings)"
    )
    print(
        f"all {total} shipped queries are effect-clean "
        f"({efx_certified} certified covering {sites} expression site(s), "
        f"{safe} vectorization-safe; {total - efx_certified} rejected with "
        "typed EFX* findings)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
