"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Outside tier-1's ``testpaths``; runs the whole report at ``--smoke``
size in child processes, exactly as a user would.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")


@pytest.fixture(scope="module")
def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = _run("--smoke", "--out", str(out), "--trace-out", str(out.with_suffix(".jsonl")))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    report = json.loads(out.read_text(encoding="utf-8"))
    report["spans"] = [
        json.loads(line) for line in out.with_suffix(".jsonl").read_text().splitlines()
    ]
    return report


def test_declaration_stays_inside_the_contract_limits(declaration):
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(declaration["workloads"]) <= 8
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in declaration[key]
    ]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in declaration["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in declaration["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_smoke_reports_every_declared_metric_and_no_failure(declaration, smoke_report):
    workloads = smoke_report["workloads"]
    assert list(workloads) == [entry["name"] for entry in declaration["workloads"]]
    for name, result in workloads.items():
        assert result["failed"] == 0 and result["attempted"] > 0, name
        assert set(result["end_to_end"]) == {m["name"] for m in declaration["end_to_end"]}
        assert set(result["per_layer"]) == {m["name"] for m in declaration["per_layer"]}
        for metric, entry in result["end_to_end"].items():
            assert entry["median"] > 0, (name, metric)


def test_layers_show_only_where_the_workload_says(smoke_report):
    layers = {name: w["per_layer"] for name, w in smoke_report["workloads"].items()}
    for name, metrics in layers.items():
        stored = name == "stored_access"
        assert (metrics["storage.page_reads_per_query"]["value"] > 0) == stored, name
        partitioned = name == "partitioned_w2"
        assert (metrics["execution.partitions_executed"]["value"] == 2) == partitioned, name
        assert (metrics["execution.partition_merge_ms"]["value"] > 0) == partitioned, name


def test_spans_nest_under_one_root_per_query(smoke_report):
    spans = smoke_report["spans"]
    by_id = {}
    for span in spans:
        by_id[(span["query"], span["id"])] = span
    roots = [s for s in spans if s["name"] == "query"]
    assert roots and all(s["parent"] is None for s in roots)
    in_path = {
        "lang.compile_query", "optimizer.optimize", "execution.execute_plan", "model.materialize"
    }
    for span in spans:
        if span["name"] in in_path:
            parent = by_id[(span["query"], span["parent"])]
            assert parent["name"] == "query"
            assert parent["start_us"] <= span["start_us"] <= span["end_us"] <= parent["end_us"]
    assert any(s["name"] == "plan-gen" and s["parent"] is not None for s in spans)


def test_smoke_refuses_to_overwrite_the_declaration():
    done = _run("--smoke", "--workload", "plan_bound", "--out", str(ROOT / "BENCHMARK.json"))
    assert done.returncode != 0
    assert "BENCHMARK.json" in done.stderr


def test_counts_repeat_exactly_for_one_seed(tmp_path):
    outs = []
    for tag in "ab":
        out = tmp_path / f"{tag}.json"
        done = _run("--smoke", "--seed", "7", "--out", str(out))
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        outs.append(str(out))
    done = _run("--check-counts", *outs)
    assert done.returncode == 0, done.stdout
