"""Tests for the command-line interface."""

import argparse
import io

import pytest

from dataclasses import fields

from repro.cli import SUBCOMMANDS, add_exec_options, build_parser, main
from repro.execution import ExecOptions
from repro.io import write_csv
from repro.workloads import StockSpec, WeatherSpec, generate_stock, generate_weather
from repro.model import Span
from repro.model.batch import vector_backend


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

    def test_limit_prints_the_first_rows_and_boxes_none(self, prices_csv, monkeypatch):
        from repro.model import Record

        path, sequence = prices_csv
        _code, full = run_cli("--load", f"prices={path}", "--limit", "0", "prices")
        monkeypatch.setattr(
            Record, "unchecked", classmethod(lambda cls, *args: pytest.fail("boxed a record"))
        )
        code, text = run_cli("--load", f"prices={path}", "--limit", "3", "prices")
        assert code == 0
        header = next(i for i, line in enumerate(full.splitlines()) if "position" in line)
        assert text.splitlines()[header : header + 4] == full.splitlines()[header : header + 4]
        assert f"... ({len(sequence) - 3} more rows)" in text
        assert text.splitlines()[-1] == full.splitlines()[-1]
        rows = [
            f"{position:>10}  " + "  ".join(str(value) for value in record.values)
            for position, record in sequence.iter_nonnull()
        ]
        assert full.splitlines()[header + 1 : header + 1 + len(rows)] == rows

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

    COMMANDS = ("run", "trace", "profile", "stats")

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
        for command in self.COMMANDS:
            assert self.flags_of(build_parser(command)) & knobs == shared, command

    def test_trace_accepts_the_parallel_flags(self, prices_csv, tmp_path):
        path, _sequence = prices_csv
        code, text = run_cli(
            "trace", "--load", f"prices={path}", "--out", str(tmp_path / "t.json"),
            "--parallel", "force", "--workers", "2",
            "window(prices, avg, close, 6)",
        )
        assert code == 0, text
        assert "traced" in text

    def test_explain_prints_the_parallel_line(self, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli(
            "--load", f"prices={path}", "--explain",
            "--parallel", "force", "--workers", "2",
            "window(prices, avg, close, 6)",
        )
        assert code == 0, text
        assert (
            "parallel: force (2 partition(s) certified, 2 executed, 0 fallback(s))"
            in text.splitlines()
        )
        # pool is API-only: there is one kind, so no flag chooses it.
        assert "--pool" not in self.flags_of(build_parser("run"))


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


# -- the whole CLI surface, pinned --------------------------------------------

#: Every subcommand and whether it emits a ``VerificationReport``
#: (text or ``--json``) for compile errors, or a plain ``error:`` line.
COMMANDS = {
    "run": "line",
    "check": "report",
    "lint": "report",
    "verify-plan": "report",
    "trace": "line",
    "profile": "line",
    "stats": "line",
    "partition-check": "report",
    "effects-check": "report",
}

REPORT_KEYS = {"subject", "ok", "rules_run", "errors", "warnings", "diagnostics"}

GOOD_QUERY = "window(select(prices, volume > 4000), avg, close, 3)"


def command_argv(command, tmp_path, *rest):
    """``rest`` preceded by the subcommand and its one required flag."""
    required = ("--out", str(tmp_path / "t.json")) if command == "trace" else ()
    return (command, *required, *rest)


class TestSubcommandContract:
    """All nine subcommands x {ok, usage, semantic, syntax, ReproError}."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_ok_is_zero(self, command, prices_csv, tmp_path):
        path, _sequence = prices_csv
        code, text = run_cli(
            *command_argv(command, tmp_path, "--load", f"prices={path}", GOOD_QUERY)
        )
        assert code == 0, text

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_load_is_a_usage_error(self, command, tmp_path):
        code, text = run_cli(
            *command_argv(command, tmp_path, "--load", "nonsense", "prices")
        )
        # `run` documents its own contract: 1 = any error, 2 = --naive mismatch.
        assert code == (1 if command == "run" else 2)
        assert text == "error: --load needs NAME=FILE, got 'nonsense'\n"

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "check"])
    def test_bad_span_is_a_usage_error(self, command, prices_csv, tmp_path):
        path, _sequence = prices_csv
        code, text = run_cli(
            *command_argv(
                command, tmp_path,
                "--load", f"prices={path}", "--span", "abc", "prices",
            )
        )
        assert code == (1 if command == "run" else 2)
        assert text.endswith("error: --span needs START:END integers, got 'abc'\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_semantic_error_is_one(self, command, prices_csv, tmp_path):
        path, _sequence = prices_csv
        code, text = run_cli(
            *command_argv(
                command, tmp_path,
                "--load", f"prices={path}", "select(prices, clse > 100.0)",
            )
        )
        assert code == 1
        assert "SEM002" in text
        if COMMANDS[command] == "line":
            assert "error: " in text

    @pytest.mark.parametrize("command", COMMANDS)
    def test_syntax_error_is_one(self, command, prices_csv, tmp_path):
        path, _sequence = prices_csv
        code, text = run_cli(
            *command_argv(command, tmp_path, "--load", f"prices={path}", "select(")
        )
        assert code == 1
        if COMMANDS[command] == "report":
            assert "parse-error" in text
        else:
            assert "error: " in text

    @pytest.mark.parametrize(
        "command", [c for c in COMMANDS if COMMANDS[c] == "report"]
    )
    @pytest.mark.parametrize(
        "source, rule",
        [("select(prices, clse > 100.0)", "SEM002"), ("select(", "parse-error")],
    )
    def test_compile_errors_share_the_json_report_shape(
        self, command, source, rule, prices_csv
    ):
        import json

        path, _sequence = prices_csv
        code, text = run_cli(command, "--json", "--load", f"prices={path}", source)
        assert code == 1
        data = json.loads(text)
        assert set(data) == REPORT_KEYS
        assert data["subject"] == "source" and data["ok"] is False
        (finding,) = data["diagnostics"]
        assert finding["rule"] == rule and finding["line"] == 1

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("check", set()),
            ("lint", set()),
            ("verify-plan", set()),
            ("partition-check", {"contract", "certificates"}),
            ("effects-check", {"certificate"}),
        ],
    )
    def test_ok_json_report_shape(self, command, extra, prices_csv):
        import json

        path, _sequence = prices_csv
        code, text = run_cli(
            command, "--json", "--load", f"prices={path}", GOOD_QUERY
        )
        assert code == 0
        data = json.loads(text)
        assert set(data) == REPORT_KEYS | extra
        assert data["ok"] is True and data["diagnostics"] == []

    def test_profile_json_shape(self, prices_csv):
        import json

        path, _sequence = prices_csv
        code, text = run_cli(
            "profile", "--json", "--repeat", "2", "--load", f"prices={path}",
            GOOD_QUERY,
        )
        assert code == 0
        data = json.loads(text)
        assert set(data) == {"version", "summary", "profiles", "histograms"}
        assert data["summary"]["recorded"] == 2

    @pytest.mark.parametrize(
        "command", ["verify-plan", "partition-check", "effects-check"]
    )
    def test_optimizer_error_is_one(self, command, prices_csv, monkeypatch):
        from repro import cli
        from repro.errors import OptimizerError

        def refuse(*_args, **_kwargs):
            raise OptimizerError("planner refused")

        monkeypatch.setattr(cli, "optimize", refuse)
        path, _sequence = prices_csv
        code, text = run_cli(command, "--load", f"prices={path}", GOOD_QUERY)
        assert code == 1
        assert text == "error: planner refused\n"

    def test_lint_verifier_error_is_one(self, prices_csv, monkeypatch):
        from repro import cli
        from repro.errors import OptimizerError

        def refuse(*_args, **_kwargs):
            raise OptimizerError("annotation refused")

        monkeypatch.setattr(cli, "verify_query", refuse)
        path, _sequence = prices_csv
        code, text = run_cli("lint", "--load", f"prices={path}", GOOD_QUERY)
        assert code == 1
        assert text == "error: annotation refused\n"

    @pytest.mark.parametrize("command", ["run", "trace", "profile", "stats"])
    def test_runtime_error_is_one(self, command, prices_csv, tmp_path):
        # `profile` is the one case here that did not hold before PR 16:
        # runs refused before the recorder saw them left no duration
        # summary, and the text report crashed with a TypeError.
        path, _sequence = prices_csv
        code, text = run_cli(
            *command_argv(
                command, tmp_path,
                "--load", f"prices={path}", "--batch-size", "0", GOOD_QUERY,
            )
        )
        assert code == 1
        assert "error: " in text and "batch_size" in text

    @pytest.mark.parametrize("command", ["profile", "stats"])
    def test_repeat_zero_is_a_usage_error(self, command, prices_csv):
        path, _sequence = prices_csv
        code, text = run_cli(
            command, "--load", f"prices={path}", "--repeat", "0", GOOD_QUERY
        )
        assert code == 2
        assert text == "error: --repeat must be >= 1, got 0\n"


class TestHelp:
    """`repro --help` names every subcommand; each has its own --help."""

    def test_top_level_help_lists_every_subcommand(self):
        assert set(SUBCOMMANDS) == set(COMMANDS)
        words = set(build_parser().format_help().replace(",", " ").split())
        assert set(SUBCOMMANDS) <= words

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        prog = "repro" if command == "run" else f"repro {command}"
        assert f"usage: {prog} " in capsys.readouterr().out


#: Values that are wall-clock measurements: compared by name only.
VOLATILE = ("duration_us", "elapsed_seconds")


def metrics_block(text, header):
    """The ``  name = value`` lines following ``header``, values of
    wall-clock metrics replaced by ``*``."""
    lines = text.splitlines()
    block = []
    for line in lines[lines.index(header) + 1:]:
        if not line.startswith("  ") or " = " not in line:
            break
        name, _, value = line[2:].partition(" = ")
        if any(part in name for part in VOLATILE):
            value = "*"
        block.append(f"{name} = {value}")
    return block


EXECUTION_BLOCK = [
    "execution.batch_rows = 288",
    "execution.batches_built = 3",
    "execution.cache_ops = 185",
    "execution.exprs_interpreted = 0",
    "execution.fallbacks_taken = 0",
    # The select and the window kernel: 0 declines with numpy, 2 without
    # (REPRO_NO_VECTOR / the no-numpy leg) — stored leaf or in-memory alike.
    f"execution.kernels_fallback = {0 if vector_backend() is not None else 2}",
    "execution.max_cache_occupancy = 3",
    "execution.operator_records = 288",
    "execution.parallel_fallbacks = 0",
    "execution.partition_retries = 0",
    "execution.partitions_executed = 0",
    "execution.predicate_evals = 93",
    "execution.probes_issued = 0",
    "execution.records_emitted = 102",
    "execution.scans_opened = 1",
    "execution.stragglers_redispatched = 0",
]


def histogram_block(name, count, value):
    """The eight summary lines of a constant-valued histogram."""
    stats = {
        "count": count, "max": value, "mean": value, "min": value,
        "p50": value, "p90": value, "p99": value, "sum": value * count,
    }
    return [f"{name}.{key} = {stat}" for key, stat in stats.items()]


class TestMetricsBlockGolden:
    """The rendered metrics blocks: name order and ``name = value`` text."""

    @pytest.fixture
    def golden_csv(self, tmp_path):
        # The goldens are values of this exact sequence (prices_csv's).
        sequence = generate_stock(StockSpec("p", Span(0, 99), 0.9, seed=81))
        path = tmp_path / "prices.csv"
        write_csv(sequence, path)
        return path

    def test_explain_block(self, golden_csv):
        code, text = run_cli(
            "--load", f"prices={golden_csv}", "--explain", GOOD_QUERY
        )
        assert code == 0
        assert metrics_block(text, "metrics:") == EXECUTION_BLOCK

    def test_explain_block_with_storage_and_guard(self, golden_csv):
        code, text = run_cli(
            "--load", f"prices={golden_csv}", "--explain",
            "--fault-plan", "seed=7,transient=0.05", "--max-pages", "100000",
            GOOD_QUERY,
        )
        assert code == 0
        assert metrics_block(text, "metrics:") == EXECUTION_BLOCK + [
            "guard.elapsed_seconds = *",
            "guard.pages_read = 0",
            "guard.records_emitted = 102",
            "storage.prices.buffer_evictions = 0",
            "storage.prices.buffer_hits = 3",
            "storage.prices.corrupt_pages_detected = 0",
            "storage.prices.faults_injected = 0",
            "storage.prices.index_node_reads = 0",
            "storage.prices.latency_events = 0",
            "storage.prices.page_reads = 3",
            "storage.prices.page_writes = 3",
            "storage.prices.probes = 0",
            "storage.prices.records_streamed = 186",
            "storage.prices.retries_attempted = 0",
            "storage.prices.retries_exhausted = 0",
        ]

    def test_stats_block(self, golden_csv):
        code, text = run_cli(
            "stats", "--load", f"prices={golden_csv}", "--repeat", "3", GOOD_QUERY
        )
        assert code == 0
        header = "stats over 3 run(s) (102 records per run):"
        durations = [
            f"flight.query.duration_us.{key} = *"
            for key in ("count", "max", "mean", "min", "p50", "p90", "p99", "sum")
        ]
        assert metrics_block(text, header) == (
            EXECUTION_BLOCK
            + durations
            + histogram_block("flight.query.pages", 3, 0)
            + histogram_block("flight.query.records", 3, 102)
        )

    def test_partition_check_block(self, golden_csv):
        code, text = run_cli(
            "partition-check", "--load", f"prices={golden_csv}", GOOD_QUERY
        )
        assert code == 0
        assert metrics_block(text, "metrics:") == [
            "partition.certificates_issued = 3",
            "partition.certificates_rejected = 0",
            "partition.checks_failed = 0",
            "partition.checks_run = 3",
            "partition.partitions_certified = 13",
        ]
        assert text.endswith("  partition.partitions_certified = 13\n")

    def test_effects_check_block(self, golden_csv):
        code, text = run_cli(
            "effects-check", "--load", f"prices={golden_csv}", GOOD_QUERY
        )
        assert code == 0
        assert metrics_block(text, "metrics:") == [
            "effects.certificates_issued = 1",
            "effects.certificates_rejected = 0",
            "effects.checks_failed = 0",
            "effects.checks_run = 1",
            "effects.specs_derived = 2",
            "effects.unknown_exprs = 0",
        ]
        assert text.endswith("  effects.unknown_exprs = 0\n")
