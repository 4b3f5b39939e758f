"""Plan stability: the chosen plans and their estimated costs are pinned.

``tests/data/plan_snapshot.json`` holds, for every query of the shipped
corpus, six seeded 3- to 5-way compose chains (Table 1 catalog, span
200..350) and the five dense benchmark shapes (two in-memory walks, no
catalog), the EXPLAIN text and the estimated cost the optimizer
produced when the snapshot was taken.  A change that only makes
planning cheaper must reproduce both byte for byte; a change that means
to move a plan regenerates the file (``python tests/test_plan_stability.py``)
and shows the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lang import compile_query
from repro.model import Span
from repro.optimizer import optimize
from repro.workloads import StockSpec, generate_stock, table1_catalog

SNAPSHOT = Path(__file__).parent / "data" / "plan_snapshot.json"
ROWS = json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def dense_walks() -> dict:
    """The two in-memory walks the ``dense`` texts name."""
    return {
        name: generate_stock(StockSpec(name, Span(0, 1199), 0.95, seed=seed))
        for name, seed in (("s", 1), ("t", 2))
    }


def _environments() -> dict:
    """group → (compile environment, catalog for ``optimize``, output span)."""
    catalog, _sequences = table1_catalog()
    return {
        "table1": (catalog, catalog, Span(200, 350)),
        "dense": (dense_walks(), None, None),
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
