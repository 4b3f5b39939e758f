"""Tests for the command-line interface."""

import argparse
import io

import pytest

from dataclasses import fields

from repro.cli import (
    add_exec_options,
    build_parser,
    build_profile_parser,
    build_stats_parser,
    build_trace_parser,
    main,
)
from repro.execution import ExecOptions
from repro.io import write_csv
from repro.workloads import StockSpec, WeatherSpec, generate_stock, generate_weather
from repro.model import Span


@pytest.fixture
def prices_csv(tmp_path):
    sequence = generate_stock(StockSpec("p", Span(0, 99), 0.9, seed=81))
    path = tmp_path / "prices.csv"
    write_csv(sequence, path)
    return path, sequence


@pytest.fixture
def weather_csvs(tmp_path):
    volcanos, quakes = generate_weather(
        WeatherSpec(horizon=2000, seed=82, eruption_rate=0.01)
    )
    volcano_path = tmp_path / "volcanos.csv"
    quake_path = tmp_path / "quakes.csv"
    write_csv(volcanos, volcano_path)
    write_csv(quakes, quake_path)
    return volcano_path, quake_path


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCli:
    def test_simple_query(self, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli(
            "--load", f"prices={path}", "select(prices, close > 100.0)"
        )
        assert code == 0
        assert "loaded prices" in text
        assert "records over" in text

    def test_example11(self, weather_csvs):
        volcano_path, quake_path = weather_csvs
        code, text = run_cli(
            "--load", f"v={volcano_path}",
            "--load", f"e={quake_path}",
            "--naive",
            "project(select(compose(v as v, previous(e) as e), "
            "e_strength > 7.0), v_name)",
        )
        assert code == 0
        assert "naive reference evaluation agrees." in text

    def test_explain(self, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli(
            "--load", f"prices={path}", "--explain",
            "window(prices, avg, close, 6)",
        )
        assert code == 0
        assert "estimated cost" in text
        assert "window-agg" in text

    def test_span_option(self, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli(
            "--load", f"prices={path}", "--span", "10:20", "prices"
        )
        assert code == 0
        assert "Span[10, 20]" in text

    def test_limit(self, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli(
            "--load", f"prices={path}", "--limit", "3", "prices"
        )
        assert code == 0
        assert "more rows" in text

    def test_bad_load_spec(self, prices_csv):
        code, text = run_cli("--load", "nonsense", "prices")
        assert code == 1
        assert "error:" in text

    def test_bad_span(self, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli(
            "--load", f"prices={path}", "--span", "abc", "prices"
        )
        assert code == 1
        assert "START:END" in text

    def test_unknown_sequence(self, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli("--load", f"prices={path}", "select(nope, close > 1.0)")
        assert code == 1
        assert "unknown sequence" in text

    def test_parse_error_reported(self, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli("--load", f"prices={path}", "select(prices,")
        assert code == 1
        assert "error:" in text


class TestExecutionFlagParity:
    """run/trace/profile/stats take the same execution flags (ExecOptions)."""

    PARSERS = {
        "run": build_parser,
        "trace": build_trace_parser,
        "profile": build_profile_parser,
        "stats": build_stats_parser,
    }

    @staticmethod
    def flags_of(parser):
        words = parser.format_help().split()
        return {word.rstrip(",") for word in words if word.startswith("--")}

    def test_run_style_subcommands_share_the_execution_flags(self):
        knobs = {"--" + spec.name.replace("_", "-") for spec in fields(ExecOptions)}
        bare = argparse.ArgumentParser(add_help=False)
        add_exec_options(bare)
        shared = self.flags_of(bare)
        # Every execution flag is an ExecOptions field ...
        assert shared and shared <= knobs
        # ... and each run-style subcommand exposes exactly that set, so
        # a knob cannot be added (by hand) to one subcommand only.
        for command, build in self.PARSERS.items():
            assert self.flags_of(build()) & knobs == shared, command

    def test_trace_accepts_the_parallel_flags(self, prices_csv, tmp_path):
        path, _sequence = prices_csv
        code, text = run_cli(
            "trace", "--load", f"prices={path}", "--out", str(tmp_path / "t.json"),
            "--parallel", "force", "--workers", "2",
            "window(prices, avg, close, 6)",
        )
        assert code == 0, text
        assert "traced" in text


class TestCheckCli:
    """`repro check`: the front-end semantic analyzer subcommand."""

    def test_clean_query(self, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli(
            "check", "--load", f"prices={path}",
            "window(prices, avg, close, 6, ma)",
        )
        assert code == 0
        assert "0 error(s)" in text
        assert "schema:" in text and "stream-friendly: yes" in text

    def test_error_findings_inline(self, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli(
            "check", "--load", f"prices={path}",
            "select(prices, clse > 100.0)",
        )
        assert code == 1
        assert "SEM002" in text
        assert "did you mean 'close'" in text
        assert "^" in text  # caret rendered inline under the source line

    def test_warning_findings_exit_zero(self, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli(
            "check", "--load", f"prices={path}", "select(prices, true)"
        )
        assert code == 0
        assert "SEM013" in text and "warning" in text

    def test_json_report(self, prices_csv):
        import json

        path, _sequence = prices_csv
        code, text = run_cli(
            "check", "--json", "--load", f"prices={path}",
            "select(prices, clse > 100.0)",
        )
        assert code == 1
        data = json.loads(text)
        assert data["subject"] == "source"
        assert data["ok"] is False
        (finding,) = data["diagnostics"]
        assert finding["rule"] == "SEM002"
        assert finding["line"] == 1 and finding["column"] == 16
        assert "^" in finding["excerpt"]

    def test_parse_error_is_a_diagnostic(self, prices_csv):
        import json

        path, _sequence = prices_csv
        code, text = run_cli(
            "check", "--json", "--load", f"prices={path}", "select(prices"
        )
        assert code == 1
        data = json.loads(text)
        (finding,) = data["diagnostics"]
        assert finding["rule"] == "parse-error"
        assert finding["line"] == 1

    def test_usage_error_exit_two(self):
        code, text = run_cli("check", "--load", "nonsense", "prices")
        assert code == 2
        assert "error:" in text

    def test_missing_file_exit_two(self, tmp_path):
        code, text = run_cli(
            "check", "--load", f"prices={tmp_path}/missing.csv", "prices"
        )
        assert code == 2


class TestExitCodeContract:
    """check/lint/verify-plan share the 0/1/2 exit-code contract."""

    @pytest.mark.parametrize("command", ["check", "lint", "verify-plan"])
    def test_clean_is_zero(self, command, prices_csv):
        path, _sequence = prices_csv
        code, _text = run_cli(
            command, "--load", f"prices={path}",
            "window(prices, avg, close, 6)",
        )
        assert code == 0

    @pytest.mark.parametrize("command", ["check", "lint", "verify-plan"])
    def test_semantic_error_is_one(self, command, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli(
            command, "--load", f"prices={path}",
            "select(prices, clse > 100.0)",
        )
        assert code == 1
        assert "SEM002" in text

    @pytest.mark.parametrize("command", ["check", "lint", "verify-plan"])
    def test_parse_error_is_one(self, command, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli(command, "--load", f"prices={path}", "select(")
        assert code == 1
        assert "parse-error" in text

    @pytest.mark.parametrize("command", ["check", "lint", "verify-plan"])
    def test_usage_error_is_two(self, command):
        code, _text = run_cli(command, "--load", "nonsense", "prices")
        assert code == 2

    @pytest.mark.parametrize("command", ["check", "lint", "verify-plan"])
    def test_json_shares_one_shape(self, command, prices_csv):
        import json

        path, _sequence = prices_csv
        code, text = run_cli(
            command, "--json", "--load", f"prices={path}",
            "window(prices, avg, close, 6)",
        )
        assert code == 0
        data = json.loads(text)
        assert set(data) == {
            "subject", "ok", "rules_run", "errors", "warnings", "diagnostics"
        }
