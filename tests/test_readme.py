"""The README's code blocks must actually run."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.execution.options import ExecOptions, valid_values

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_exists_and_mentions_the_paper():
    text = README.read_text()
    assert "Sequence Query Processing" in text
    assert "SIGMOD 1994" in text


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_readme_python_blocks_execute(index):
    blocks = python_blocks()
    namespace: dict = {}
    # blocks build on each other (the quickstart defines `catalog`
    # that the language block reuses)
    for block in blocks[: index + 1]:
        exec(compile(block, f"README.md#block{index}", "exec"), namespace)


def test_readme_example_scripts_exist():
    text = README.read_text()
    examples_dir = README.parent / "examples"
    for match in re.findall(r"python (examples/\S+\.py)", text):
        assert (README.parent / match).exists(), match


def test_readme_commands_reference_real_paths():
    text = README.read_text()
    assert "pytest tests/" in text
    assert "pytest benchmarks/ --benchmark-only" in text
    assert (README.parent / "DESIGN.md").exists()
    assert (README.parent / "EXPERIMENTS.md").exists()


@pytest.mark.parametrize("document", ["README.md", "DESIGN.md"])
def test_docs_name_only_benchmark_and_script_files_that_exist(document):
    text = (README.parent / document).read_text()
    named = set(
        re.findall(r"\bBENCH_\w+\.json|\bbenchmarks/[\w/]+\.py|\bscripts/\w+\.\w+", text)
    )
    assert named, document
    assert not sorted(path for path in named if not (README.parent / path).exists())


def test_readme_knob_table_matches_exec_options():
    text = README.read_text()
    for spec in fields(ExecOptions):
        row = f"| `{spec.name}` | `{spec.default!r}` | {valid_values(spec)} |"
        assert row in text, row
