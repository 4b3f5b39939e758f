"""Materialization of derived sequences (Section 5.3).

"In estimating the costs of various access modes, one possibility that
was not considered in this paper was materialization of derived
sequences.  This is definitely an option to consider, especially when
stream access is not possible."

This module provides it as a user-facing operation: evaluate a query
once and register the result as a base sequence — in memory or on the
storage substrate — so later queries treat it as a first-class catalog
sequence with fresh statistics.  The optimizer itself never plans a
materialized inner: probing one costs its build pass plus a cache
operation per probe, which is never below Join-Strategy-B's two
streams (DESIGN.md, Step 5).
"""

from __future__ import annotations

from typing import Optional

from repro.model.base import BaseSequence
from repro.model.span import Span
from repro.algebra.graph import Query
from repro.catalog.catalog import Catalog, CatalogEntry
from repro.storage.stored import StoredSequence


def materialize_query(
    query: Query,
    span: Optional[Span] = None,
    catalog: Optional[Catalog] = None,
) -> BaseSequence:
    """Evaluate a query and return its output as a base sequence."""
    return query.run(span=span, catalog=catalog)


def register_materialized(
    catalog: Catalog,
    name: str,
    query: Query,
    span: Optional[Span] = None,
    organization: Optional[str] = None,
    page_capacity: int = 32,
    buffer_pages: int = 16,
) -> CatalogEntry:
    """Materialize a query into the catalog under ``name``.

    Args:
        catalog: the catalog to register into (also used to optimize
            the defining query).
        name: the new base sequence's name.
        query: the defining query.
        span: evaluation span (default: the query's natural span).
        organization: if given, the result is loaded onto the storage
            substrate under that physical organization; otherwise it
            stays in memory.
        page_capacity, buffer_pages: storage parameters.
    """
    result = materialize_query(query, span=span, catalog=catalog)
    sequence = result
    if organization is not None:
        sequence = StoredSequence.from_sequence(
            name,
            result,
            organization=organization,
            page_capacity=page_capacity,
            buffer_pages=buffer_pages,
        )
    return catalog.register(name, sequence)
