"""Chaos smoke job: the fault matrix must never produce a wrong answer.

Runs every fault class (transient, permanent, corrupt, latency, and a
mixed schedule) against both executors over a handful of seeds, and
checks the chaos contract from DESIGN §9: each run either returns the
exact fault-free answer or fails with a typed storage error.  A wrong
answer — or an untyped exception — fails the job.

Every engine run goes through a shared :class:`FlightRecorder`, and the
job closes by checking the observability side of the contract
(DESIGN §15): each successful run left exactly one clean profile, and
every failure profile names a *typed* error class.

Both executors also run forced into certified partitions, at 2 and 4
partitions each (DESIGN §14), and whole over the ``indexed`` and ``log``
organizations as well as ``clustered``.  The ``stats/<organization>``
rows run ANALYZE itself under each fault class: register the stored
walk and a sparse companion and correlate the pair, which probes the
walk (``clustered``, ``indexed``) or streams it (``log``); the
statistics and correlation must equal the fault-free ones, or fail typed.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

from repro.errors import (
    CorruptPageError,
    PermanentStorageError,
    QueryGuardError,
    ResourceBudgetExceededError,
    TransientStorageError,
)
from repro.algebra import base
from repro.catalog import Catalog
from repro.catalog.catalog import correlation_strategy
from repro.execution import QueryGuard, run_query
from repro.model import BaseSequence, Span
from repro.obs import FlightRecorder
from repro.storage import FaultPlan, StoredSequence
from repro.workloads import StockSpec, generate_stock

SPAN = Span(0, 499)
SEEDS = (1, 2, 3)

FAULT_CLASSES = {
    "clean": {},
    "transient": dict(transient_rate=0.15),
    "permanent": dict(permanent_rate=0.05),
    "corrupt": dict(corrupt_rate=0.05),
    "latency": dict(latency_rate=0.3, latency_ticks=2),
    "mixed": dict(
        transient_rate=0.1,
        permanent_rate=0.02,
        corrupt_rate=0.02,
        latency_rate=0.1,
    ),
}

TYPED_FAILURES = (TransientStorageError, PermanentStorageError, CorruptPageError)


#: Every ``SPARSE_EVERY``-th position of the walk: the sparse companion
#: ANALYZE correlates with it.
SPARSE_EVERY = 25


def make_query(fault_plan=None, organization="clustered"):
    """Build the smoke workload over a (possibly fault-injecting) disk."""
    source = generate_stock(StockSpec("s", SPAN, 1.0, seed=5))
    stored = StoredSequence.from_sequence(
        "s",
        source,
        organization=organization,
        fault_plan=fault_plan,
        page_capacity=16,
        buffer_pages=8,
    )
    catalog = Catalog()
    catalog.register("s", stored)
    query = base(stored, "s").window("avg", "close", 7).query()
    return query, catalog, stored


def analyze(fault_plan=None, organization="clustered"):
    """ANALYZE the stored walk and its sparse companion, correlating the pair.

    Returns the walk's statistics, the correlation and the strategy the
    correlation took (``probe`` or ``stream``).
    """
    _query, catalog, stored = make_query(fault_plan, organization)
    source = generate_stock(StockSpec("s", SPAN, 1.0, seed=5))
    sparse = BaseSequence(
        source.schema,
        [(p, r) for p, r in source.iter_nonnull() if p % SPARSE_EVERY == 0],
        span=SPAN,
    )
    catalog.register("sparse", sparse)
    strategy = correlation_strategy(sparse, stored, sparse.count_nonnull())
    correlation = catalog.analyze_correlation("s", "sparse")
    return (catalog.get("s").stats, correlation), strategy


#: The (label, run_query kwargs, organization) matrix: both executors
#: whole, then forced into 2 and 4 certified partitions, then whole over
#: the other two organizations.
SCENARIOS = [
    ("batch", dict(mode="batch"), "clustered"),
    ("row", dict(mode="row"), "clustered"),
    *(
        (f"par/{mode}/p{parts}", dict(mode=mode, parallel="force", workers=parts), "clustered")
        for parts in (2, 4)
        for mode in ("batch", "row")
    ),
    *(
        (f"{mode}/{organization}", dict(mode=mode), organization)
        for organization in ("indexed", "log")
        for mode in ("batch", "row")
    ),
]

#: The organizations ANALYZE runs over, one ``stats/...`` row each.
ANALYZE_ORGANIZATIONS = ("clustered", "indexed", "log")


def matrix_rows(recorder):
    """Each row of the matrix: ``(label, run, reference, reaches_engine)``.

    ``run`` takes a seed's fault plan (None for a fault-free run) and
    returns what must equal ``reference``: a query's answer pairs, or
    ANALYZE's statistics and correlation.
    """
    query, catalog, _ = make_query()
    answer = run_query(query, catalog=catalog).to_pairs()
    for label, kwargs, organization in SCENARIOS:

        def run(plan, kwargs=kwargs, organization=organization):
            query, catalog, _ = make_query(plan, organization)
            return run_query(query, catalog=catalog, recorder=recorder, **kwargs).to_pairs()

        yield label, run, answer, True
    for organization in ANALYZE_ORGANIZATIONS:

        def run(plan, organization=organization):
            return analyze(plan, organization)[0]

        yield f"stats/{organization}", run, run(None), False


def main() -> int:
    """Run the chaos matrix; exit 1 on any contract violation."""
    violations = 0
    engine_successes = 0
    recorder = FlightRecorder(1024)
    rows = list(matrix_rows(recorder))
    print(f"{'fault class':<12} {'scenario':<16} {'exact':>6} {'typed-fail':>10}")
    for name, rates in FAULT_CLASSES.items():
        for label, run, reference, reaches_engine in rows:
            exact = failed = 0
            for seed in SEEDS:
                plan = FaultPlan(seed, **rates) if rates else None
                try:
                    # Registration scans the stored sequence for stats,
                    # so the faulty disk is live from this point on.
                    result = run(plan)
                    engine_successes += reaches_engine
                except TYPED_FAILURES:
                    failed += 1
                    continue
                except QueryGuardError:
                    # Typed guard verdicts are contract-clean too, but
                    # nothing in this matrix sets budgets, so count one
                    # as a violation rather than hiding an engine bug.
                    print(
                        f"CONTRACT VIOLATION: {name}/{label} seed {seed} "
                        "raised a guard verdict with no guard configured"
                    )
                    violations += 1
                    continue
                except Exception as error:  # noqa: BLE001 — the contract check
                    print(
                        f"CONTRACT VIOLATION: {name}/{label} seed {seed} "
                        f"raised untyped {type(error).__name__}: {error}"
                    )
                    violations += 1
                    continue
                if result == reference:
                    exact += 1
                else:
                    print(
                        f"CONTRACT VIOLATION: {name}/{label} seed {seed} "
                        "returned a WRONG ANSWER"
                    )
                    violations += 1
            print(f"{name:<12} {label:<16} {exact:>6} {failed:>10}")
            if name in ("clean", "latency") and exact != len(SEEDS):
                print(
                    f"CONTRACT VIOLATION: {name}/{label} must always "
                    "produce the exact answer"
                )
                violations += 1
    strategies = {o: analyze(None, o)[1] for o in ANALYZE_ORGANIZATIONS}
    print("analyze strategies: " + " ".join(f"{o}={s}" for o, s in strategies.items()))
    if set(strategies.values()) != {"probe", "stream"}:
        print("CONTRACT VIOLATION: ANALYZE did not run both correlation strategies")
        violations += 1
    # The fault matrix usually kills a run during catalog registration
    # (the stats scan reads the whole faulty disk first), which never
    # reaches the engine — so force one *in-engine* typed failure to
    # prove the recorder captures the error path too: a guarded run
    # whose record budget the workload must blow.
    query, catalog, _ = make_query()
    try:
        run_query(
            query,
            catalog=catalog,
            guard=QueryGuard(max_records=10),
            recorder=recorder,
        )
        print(
            "CONTRACT VIOLATION: a 10-record budget did not stop the "
            f"{SPAN} workload"
        )
        violations += 1
    except ResourceBudgetExceededError:
        pass
    guarded = [
        p for p in recorder.errors()
        if p.error == "ResourceBudgetExceededError"
    ]
    if not guarded or guarded[-1].guard_verdict != "ResourceBudgetExceededError":
        print(
            "CONTRACT VIOLATION: the guarded failure left no typed error "
            "profile in the flight recorder"
        )
        violations += 1

    # Observability contract: the flight recorder must have profiled
    # every run that reached the engine — one clean profile per success,
    # and a typed error class on every failure profile.  (Failures that
    # fire during catalog registration never reach the engine, so error
    # profiles are a subset of the typed-failure count.)
    typed_names = {cls.__name__ for cls in TYPED_FAILURES} | {
        ResourceBudgetExceededError.__name__
    }
    clean_profiles = sum(1 for p in recorder.profiles() if p.ok)
    untyped_profiles = [
        p.error
        for p in recorder.errors()
        if p.error not in typed_names
    ]
    if clean_profiles != engine_successes:
        print(
            f"CONTRACT VIOLATION: {engine_successes} successful run(s) but "
            f"{clean_profiles} clean flight-recorder profile(s)"
        )
        violations += 1
    if untyped_profiles:
        print(
            "CONTRACT VIOLATION: flight recorder captured untyped error "
            f"profile(s): {sorted(set(untyped_profiles))}"
        )
        violations += 1
    print(
        f"flight recorder: {recorder.recorded} profile(s), "
        f"{clean_profiles} clean, {len(recorder.errors())} typed-error"
    )
    if violations:
        print(f"{violations} chaos contract violation(s)")
        return 1
    print("chaos contract holds: exact answer or typed error, every run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
