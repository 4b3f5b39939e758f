"""Quality gate: no class is created inside a function on the query path.

A ``class`` statement in a function body runs the metaclass machinery
(and, under ``@dataclass``, several ``exec`` calls) on every call; in
the planner or an operator that is per-query or per-record work that
depends on nothing in the query.  Classes in these packages live at
module level (or nested in another class, which is built once).
"""

import ast
from pathlib import Path

import pytest

import repro

PACKAGES = ("optimizer", "execution", "model", "catalog", "algebra")
SOURCES = sorted(
    path
    for package in PACKAGES
    for path in (Path(repro.__file__).parent / package).rglob("*.py")
)


#: Calls that build a class without a ``class`` statement.
CLASS_FACTORIES = {"dataclass", "make_dataclass", "namedtuple"}


def _class_built(node: ast.AST) -> str:
    """The name of the class (or factory) ``node`` creates, else ``""``."""
    if isinstance(node, ast.ClassDef):
        return node.name
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name if name in CLASS_FACTORIES else ""
    return ""


def classes_in_functions(tree: ast.AST) -> list[tuple[str, int]]:
    """``(name, line)`` of every class built under a function body."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found.update(
                (_class_built(inner), inner.lineno)
                for inner in ast.walk(node)
                if inner is not node and _class_built(inner)
            )
    return sorted(found, key=lambda item: item[1])


def test_sources_found():
    assert len(SOURCES) > 40


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_class_statement_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert classes_in_functions(tree) == []


def test_the_check_sees_a_nested_dataclass():
    source = (
        "class Outer:\n"
        "    class Fine:\n"
        "        pass\n"
        "    def plan(self):\n"
        "        @dataclass\n"
        "        class Entry:\n"
        "            x: int\n"
        "        return Entry, dataclasses.make_dataclass('E', ['x'])\n"
    )
    assert classes_in_functions(ast.parse(source)) == [
        ("Entry", 6),
        ("make_dataclass", 8),
    ]
