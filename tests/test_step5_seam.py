"""Step 5 has one seam: every Section 4.1 formula and every strategy
choice the optimizer makes comes out of :class:`CostModel`.

Two gates.  A spy over the plan-snapshot corpus: each join kind and
each chooser-owned ``strategy`` tag of the retained plans must be an
answer a ``CostModel`` chooser actually gave while that query was
planned — so the formulas ``tests/test_costmodel.py`` checks are the
ones the optimizer runs.  And an AST walk: under
``repro/optimizer`` only ``costmodel.py`` reads a ``CostParams`` field.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import repro.optimizer
from repro.lang import compile_query
from repro.optimizer import PROBE, STREAM, CostModel, CostParams, optimize
from tests.test_plan_stability import ROWS, _environments

CHOOSERS = (
    "join_stream_cost",
    "join_probe_cost",
    "window_agg_costs",
    "value_offset_costs",
)

#: (kind, mode) of the plan nodes whose ``strategy`` tag a chooser owns.
TAG_OWNER = {
    ("probe-join", PROBE): "join_probe_cost",
    ("window-agg", STREAM): "window_agg_costs",
    ("value-offset", STREAM): "value_offset_costs",
}
STREAM_JOINS = {"lockstep", "stream-probe", "probe-stream"}
#: Tags the planning table fixes without asking: no tag, the probed
#: mode's naive algorithm, and the two operators with one stream strategy.
FIXED_TAGS = {"", "naive", "running", "compute-once"}


@pytest.fixture(scope="module")
def environments() -> dict:
    return _environments()


@pytest.fixture
def answers(monkeypatch) -> dict:
    """Wrap every chooser; ``answers[name]`` collects the strategies it returned."""
    returned: dict = {name: set() for name in CHOOSERS}

    def spy_on(name):
        original = getattr(CostModel, name)

        def spied(self, *args, **kwargs):
            costs, strategy = original(self, *args, **kwargs)
            returned[name].add(strategy)
            return costs, strategy

        monkeypatch.setattr(CostModel, name, spied)

    for name in CHOOSERS:
        spy_on(name)
    return returned


@pytest.mark.parametrize("row", ROWS, ids=[f"{r['group']}-{i}" for i, r in enumerate(ROWS)])
def test_every_choice_in_the_retained_plans_is_a_chooser_answer(row, environments, answers):
    env, catalog, span = environments[row["group"]]
    planned = optimize(compile_query(row["text"], env), catalog=catalog, span=span).planned
    for node in (*planned.stream_plan.walk(), *planned.probe_plan.walk()):
        where = f"{node.describe()} in {row['text']!r}"
        if node.kind in STREAM_JOINS:
            assert node.kind in answers["join_stream_cost"], where
        owner = TAG_OWNER.get((node.kind, node.mode))
        if owner is not None:
            assert node.strategy in answers[owner], where
        else:
            assert node.strategy in FIXED_TAGS, where


def test_the_corpus_reaches_every_chooser(environments, answers):
    for row in ROWS:
        env, catalog, span = environments[row["group"]]
        optimize(compile_query(row["text"], env), catalog=catalog, span=span)
    assert all(answers[name] for name in CHOOSERS), answers
    assert {"lockstep", "stream-probe"} <= answers["join_stream_cost"] <= STREAM_JOINS


# -- only the cost model reads the constants -----------------------------------

OPTIMIZER_SOURCES = sorted(Path(repro.optimizer.__file__).parent.glob("*.py"))
PARAM_FIELDS = {spec.name for spec in fields(CostParams)}


def cost_param_reads(tree: ast.AST) -> list[tuple[str, int]]:
    """``(field, line)`` of every attribute read named like a ``CostParams`` field."""
    return sorted(
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in PARAM_FIELDS
    )


@pytest.mark.parametrize("path", OPTIMIZER_SOURCES, ids=lambda p: p.name)
def test_only_the_cost_model_reads_cost_params(path):
    reads = cost_param_reads(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == "costmodel.py":
        assert {name for name, _line in reads} == PARAM_FIELDS
    else:
        assert reads == []


def test_the_check_sees_a_constant_read():
    source = "cost = length * self.model.params.predicate_cost\n"
    assert cost_param_reads(ast.parse(source)) == [("predicate_cost", 1)]
