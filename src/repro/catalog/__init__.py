"""Catalog and statistics (the paper's sequence meta-information)."""

from repro.catalog.catalog import (
    Catalog,
    CatalogEntry,
    DEFAULT_PAGE_CAPACITY,
    LeafMeta,
    leaf_meta,
    null_correlation,
)
from repro.catalog.histogram import EquiWidthHistogram
from repro.catalog.stats import (
    ColumnStats,
    SequenceStats,
    collect_stats,
)

__all__ = [
    "Catalog",
    "CatalogEntry",
    "ColumnStats",
    "DEFAULT_PAGE_CAPACITY",
    "EquiWidthHistogram",
    "LeafMeta",
    "SequenceStats",
    "collect_stats",
    "leaf_meta",
    "null_correlation",
]
