"""The perf gate's one loop over synthetic baselines, and a gate that can fire.

``scripts/check_perf.py`` holds every committed ``BENCH_*.json`` to the
same rules; these tests drive that loop with baselines written into
``tmp_path`` and a stand-in benchmark whose ``replay()`` returns chosen
rows.  The last test slows one side of ``benchmarks/bench_overhead.py``
on purpose: an on/off harness that cannot read ``worse`` gates nothing.
"""

from __future__ import annotations

import json
import time
import types

import pytest

from benchmarks import baseline, bench_overhead
from scripts import check_perf

STEADY = [1.00, 1.01, 1.02, 1.01, 1.00]


def _row(size: str, values: list, **extra) -> dict:
    return baseline.row("w", "m", size, "lower", values, 0.10, **extra)


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """Run the gate over one synthetic baseline and one replayed row."""

    def run(committed, replayed, argv=(), backend=None) -> int:
        path = tmp_path / "BENCH_fake.json"
        if committed is not None:
            baseline.write(str(path), "fake", committed)
        if backend is not None:
            document = json.loads(path.read_text())
            document["provenance"]["vector_backend"] = backend
            path.write_text(json.dumps(document))
        bench = types.SimpleNamespace(KEYS=[("w", "m")], replay=lambda: [replayed])
        monkeypatch.setattr(check_perf, "BASELINES", ((str(path), bench),))
        return check_perf.main(list(argv))

    return run


BOTH_SIZES = [_row("full", STEADY), _row("smoke", STEADY)]


def test_a_replay_inside_the_bound_passes(gate, capsys):
    assert gate(BOTH_SIZES, _row("smoke", [1.01, 1.00, 1.02])) == 0
    assert ": same" in capsys.readouterr().out


def test_a_replay_worse_than_the_bound_fails(gate, capsys):
    assert gate(BOTH_SIZES, _row("smoke", [1.30, 1.31, 1.32])) == 1
    out = capsys.readouterr().out
    assert ": worse" in out and "FAIL: replay: w m" in out


def test_an_unresolved_replay_is_printed_and_passes(gate, capsys):
    assert gate(BOTH_SIZES, _row("smoke", [0.90, 1.00, 1.30, 1.50])) == 0
    assert ": unresolved" in capsys.readouterr().out
    # Every replayed value above every committed one, the median inside the bound.
    assert gate(BOTH_SIZES, _row("smoke", [1.05, 1.06, 1.30])) == 0
    assert ": unresolved" in capsys.readouterr().out


def test_a_missing_or_corrupt_baseline_exits_2(gate, tmp_path, capsys):
    assert gate(None, _row("smoke", STEADY)) == 2
    assert "error: missing committed baseline" in capsys.readouterr().out
    (tmp_path / "BENCH_fake.json").write_text("{not json")
    assert gate(None, _row("smoke", STEADY)) == 2
    assert "error: unreadable baseline" in capsys.readouterr().out


def test_a_baseline_short_of_a_declared_row_exits_2(gate, capsys):
    assert gate([_row("full", STEADY)], _row("smoke", STEADY)) == 2
    assert "lacks the rows [('w', 'm', 'smoke')]" in capsys.readouterr().out
    short = {k: v for k, v in _row("smoke", STEADY).items() if k != "bound"}
    assert gate([_row("full", STEADY), short], _row("smoke", STEADY)) == 2


def test_another_backend_is_held_to_its_limits_only(gate, capsys):
    far_worse = [2.00, 2.01, 2.02]
    assert gate(BOTH_SIZES, _row("smoke", far_worse), backend="other") == 0
    assert "replay held to its limits only" in capsys.readouterr().out
    assert gate(BOTH_SIZES, _row("smoke", far_worse, limit=1.5), backend="other") == 1
    assert "is worse than its limit 1.5" in capsys.readouterr().out


def test_a_committed_row_past_its_limit_fails_without_a_replay(gate, capsys):
    committed = [_row("full", STEADY, limit=0.9), _row("smoke", STEADY)]
    assert gate(committed, _row("smoke", STEADY), argv=["--baseline-only"]) == 1
    assert "FAIL: " in capsys.readouterr().out


def test_a_slowed_feature_reads_worse():
    sleepy = bench_overhead.Feature("sleepy", 0.10, lambda recorder: time.sleep(0.003) or {})
    null, row = bench_overhead.measure(
        "smoke", features=(sleepy,), workloads=("dense_batch",), pairs=3, rounds=2
    )
    assert (null["metric"], row["metric"]) == ("nothing", "sleepy")
    assert row["verdict"] == "worse" and row["median"] > 1.10, row
