"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.catalog import Catalog
from repro.model import AtomType, BaseSequence, Record, RecordSchema, Span
from repro.workloads import (
    StockSpec,
    WeatherSpec,
    generate_stock,
    generate_weather,
    table1_catalog,
)

PRICE_SCHEMA = RecordSchema.of(close=AtomType.FLOAT)


def pytest_configure(config) -> None:
    """Statically verify every query graph the suite constructs.

    Wraps :meth:`repro.algebra.graph.Query.validate` so that each
    successfully validated graph is also run through the structural
    rules of :mod:`repro.analysis` (scope closure and schema flow;
    span rules need optimizer annotations and run in the REPRO_VERIFY
    hooks instead).  Every query goes through the one ``Query``
    constructor, so this covers text compiled by
    :func:`repro.lang.compile_query` as well as hand-built graphs (a
    text-only constructor used to bypass it).  Installed here rather
    than as an autouse fixture so hypothesis-driven tests are covered
    without tripping the function-scoped-fixture health check.  Disable
    with ``REPRO_TEST_VERIFY=0``.
    """
    import functools
    import os

    if os.environ.get("REPRO_TEST_VERIFY", "1").lower() in ("0", "false", "no", "off"):
        return

    from repro.algebra.graph import Query
    from repro.analysis.verifier import verify_query

    if getattr(Query, "_analysis_verified", False):
        return
    original = Query.validate

    @functools.wraps(original)
    def validate_and_verify(self) -> None:
        original(self)
        verify_query(self, with_annotations=False).raise_if_errors()

    Query.validate = validate_and_verify
    Query._analysis_verified = True


def _have_pytest_timeout() -> bool:
    try:
        import pytest_timeout  # noqa: F401
    except ImportError:
        return False
    return True


#: Per-test watchdog budget (seconds) when pytest-timeout is unavailable.
_FALLBACK_TIMEOUT = 120


@pytest.fixture(autouse=True)
def _test_watchdog():
    """A SIGALRM per-test timeout when the pytest-timeout plugin is absent.

    The chaos suite's contract is "typed error or exact answer, never a
    hang"; a hung test should fail loudly rather than stall the run.
    When pytest-timeout is installed it owns the job (see check.sh);
    this fallback only arms itself when the plugin is missing and the
    platform has SIGALRM (i.e. not on Windows, not in a worker thread).
    """
    import signal
    import threading

    if (
        _have_pytest_timeout()
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {_FALLBACK_TIMEOUT}s watchdog"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(_FALLBACK_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def price_sequence(
    span: Span, values: dict[int, float], schema: RecordSchema = PRICE_SCHEMA
) -> BaseSequence:
    """A small single-attribute sequence from a position->value map."""
    return BaseSequence(
        schema,
        ((pos, Record(schema, (value,))) for pos, value in values.items()),
        span=span,
    )


@pytest.fixture
def price_schema() -> RecordSchema:
    return PRICE_SCHEMA


@pytest.fixture
def small_prices() -> BaseSequence:
    """Positions 1..10, close = position * 10.0, gaps at 3 and 7."""
    return price_sequence(
        Span(1, 10),
        {p: p * 10.0 for p in (1, 2, 4, 5, 6, 8, 9, 10)},
    )


@pytest.fixture(scope="session")
def table1():
    """The Table 1 catalog and sequences (session-scoped: read-only)."""
    catalog, sequences = table1_catalog()
    return catalog, sequences


@pytest.fixture(scope="session")
def weather():
    """A small Example 1.1 workload (session-scoped: read-only)."""
    volcanos, quakes = generate_weather(WeatherSpec(horizon=4000, seed=21))
    catalog = Catalog()
    catalog.register("volcanos", volcanos)
    catalog.register("earthquakes", quakes)
    return catalog, volcanos, quakes


@pytest.fixture
def dense_walk() -> BaseSequence:
    """A fully dense 120-day stock walk."""
    return generate_stock(StockSpec("walk", Span(0, 119), 1.0, seed=9))


@pytest.fixture
def sparse_walk() -> BaseSequence:
    """A 40%-dense 200-day stock walk."""
    return generate_stock(StockSpec("sparse", Span(0, 199), 0.4, seed=10))
