"""Plan stability: the chosen plans and their estimated costs are pinned.

``tests/data/plan_snapshot.json`` holds, for every query of the shipped
corpus, six seeded 3- to 5-way compose chains (Table 1 catalog, span
200..350), the five dense benchmark shapes (two in-memory walks, no
catalog) and a sparse stored driver joined with a dense stored partner
in two organizations (Join-Strategy-A), the EXPLAIN text and the
estimated cost the optimizer produced when the snapshot was taken.  A
change that only makes planning cheaper must reproduce both byte for
byte; a change that means to move a plan regenerates the file
(``python tests/test_plan_stability.py``) and shows the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.catalog import Catalog
from repro.lang import compile_query
from repro.model import Span
from repro.optimizer import optimize
from repro.storage import StoredSequence
from repro.workloads import StockSpec, generate_stock, table1_catalog

SNAPSHOT = Path(__file__).parent / "data" / "plan_snapshot.json"
ROWS = json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def dense_walks() -> dict:
    """The two in-memory walks the ``dense`` texts name."""
    return {
        name: generate_stock(StockSpec(name, Span(0, 1199), 0.95, seed=seed))
        for name, seed in (("s", 1), ("t", 2))
    }


def stored_catalog() -> Catalog:
    """A sparse stored ``driver`` and one dense partner walk stored twice.

    The partner is stored ``clustered`` and ``indexed``, and each pair's
    null correlation is analyzed: the set-up of the ``stored_access``
    benchmark at a smaller size.
    """
    span = Span(0, 2999)
    driver = generate_stock(StockSpec("driver", span, 0.01, seed=3))
    partner = generate_stock(StockSpec("partner", span, 0.95, seed=4))
    catalog = Catalog()
    catalog.register("driver", StoredSequence.from_sequence("driver", driver))
    for name, organization in (("p_clustered", "clustered"), ("p_indexed", "indexed")):
        stored = StoredSequence.from_sequence(name, partner, organization=organization)
        catalog.register(name, stored)
        catalog.analyze_correlation("driver", name)
    return catalog


def _environments() -> dict:
    """group → (compile environment, catalog for ``optimize``, output span)."""
    catalog, _sequences = table1_catalog()
    stored = stored_catalog()
    return {
        "table1": (catalog, catalog, Span(200, 350)),
        "dense": (dense_walks(), None, None),
        "stored": (stored, stored, None),
    }


def _planned(text: str, environment: tuple) -> dict:
    env, catalog, span = environment
    plan = optimize(compile_query(text, env), catalog=catalog, span=span).plan
    return {"explain": plan.explain(), "estimated_cost": repr(plan.estimated_cost)}


@pytest.fixture(scope="module")
def environments() -> dict:
    return _environments()


def test_snapshot_covers_corpus_chains_and_dense_shapes():
    groups = [row["group"] for row in ROWS]
    assert groups.count("table1") >= 30 and groups.count("dense") == 5
    assert sum("compose(compose(" in row["text"] for row in ROWS) >= 6


def test_snapshot_covers_join_strategy_a():
    """The sparse driver probes its stored partner, with no reorder above."""
    stored = [row for row in ROWS if row["group"] == "stored"]
    assert len(stored) == 2
    for row in stored:
        root = row["explain"].splitlines()[2]
        assert root.startswith("stream-probe "), root


@pytest.mark.parametrize("row", ROWS, ids=[f"{r['group']}-{i}" for i, r in enumerate(ROWS)])
def test_plan_and_cost_match_snapshot(row, environments):
    planned = _planned(row["text"], environments[row["group"]])
    assert planned["explain"] == row["explain"]
    assert planned["estimated_cost"] == row["estimated_cost"]


if __name__ == "__main__":
    regenerated = _environments()
    for entry in ROWS:
        entry.update(_planned(entry["text"], regenerated[entry["group"]]))
    SNAPSHOT.write_text(json.dumps(ROWS, indent=1) + "\n", encoding="utf-8")
    print(f"rewrote {SNAPSHOT} ({len(ROWS)} plans)")
