#!/usr/bin/env bash
# Repository check script: static checks + tier-1 tests.
#
# Runs, in order (9 steps; 1-2 are skipped when the tool is absent):
#   1. ruff  (if installed — `pip install .[lint]`)
#   2. mypy  (if installed)
#   3. a byte-compilation pass over src/ (always; catches syntax errors
#      even when the optional linters are absent)
#   4. the corpus gate (scripts/check_corpus.py): every query text
#      shipped in examples/ and workloads/ must analyze clean, and
#      must either certify — as parallel-decomposable, and as
#      effect-safe, each certificate re-verified by its independent
#      checker — or be rejected with a typed PART* / EFX* finding
#   5. the tier-1 test suite (with per-test timeouts when the
#      pytest-timeout plugin is installed; a SIGALRM watchdog in
#      tests/conftest.py covers minimal containers without it)
#   6. the chaos smoke job: every storage fault class x both executors,
#      whole over all three organizations and forced into 2 and 4
#      certified partitions (DESIGN §14), plus ANALYZE (statistics and a
#      probed or streamed correlation) over each organization, must yield
#      the exact answer or a typed error, never a wrong one
#   7. the trace round-trip check: traced runs exported as JSON Lines
#      and Chrome trace_event must re-parse and validate against the
#      pinned schemas in src/repro/obs/schema.py — with and without an
#      embedded metrics block
#   8. the perf-regression gate (scripts/check_perf.py): every row of
#      BENCH_exec.json and BENCH_overhead.json must keep its limit, and
#      a smoke replay of each benchmark — batch-vs-row speedups
#      (identical answers asserted) and every feature of
#      benchmarks/bench_overhead.py on vs off over the e2e dense
#      workloads — must read no worse than the committed smoke rows;
#      a difference below the noise is printed as unresolved, not failed.
#      With numpy installed the gate runs a second time under
#      REPRO_NO_VECTOR=1, so the pure-Python backend's speedup floors
#      are held here too, not only by CI's no-numpy leg; so do the
#      sequence, partition-slice and batch tests, so the array.array/list
#      buffers behind a sequence's columns view are checked here as well,
#      and the effect and kernel-cache tests, so the cached scalar
#      kernels that backend runs on every batch meet the interpreter too
#   9. the end-to-end benchmark's own smoke (benchmarks/e2e, outside
#      tier-1): a change to the entry surface that breaks the
#      benchmark's pinned call syntax, counter names or span names
#      (execute, parallel, partition) fails here, not in a benchmark run
#
# Missing optional tools are skipped with a notice, not an error, so
# the script works in minimal containers.

set -u
cd "$(dirname "$0")/.."

failures=0

run_step() {
    local name="$1"
    shift
    echo "==> ${name}"
    if "$@"; then
        echo "    ${name}: ok"
    else
        echo "    ${name}: FAILED"
        failures=$((failures + 1))
    fi
}

if command -v ruff >/dev/null 2>&1; then
    run_step "ruff" ruff check src tests benchmarks examples
else
    echo "==> ruff not installed; skipping (pip install .[lint])"
fi

if command -v mypy >/dev/null 2>&1; then
    run_step "mypy" mypy
else
    echo "==> mypy not installed; skipping (pip install .[lint])"
fi

run_step "compileall" python -m compileall -q src

run_step "corpus gate" python scripts/check_corpus.py

# Per-test timeouts guard against hangs in the chaos suite; only pass
# the flag when the plugin is importable (pip install .[test]).
timeout_args=()
if python -c "import pytest_timeout" >/dev/null 2>&1; then
    timeout_args=(--timeout=120)
else
    echo "==> pytest-timeout not installed; using the conftest SIGALRM watchdog"
fi

run_step "tier-1 tests" env PYTHONPATH=src \
    python -m pytest -x -q "${timeout_args[@]}"

run_step "chaos smoke" env PYTHONPATH=src python scripts/chaos_smoke.py

run_step "trace round-trip" env PYTHONPATH=src \
    python scripts/trace_roundtrip.py

run_step "perf gate" env PYTHONPATH=src \
    python scripts/check_perf.py

if python -c "import numpy" >/dev/null 2>&1; then
    run_step "perf gate (REPRO_NO_VECTOR=1)" env PYTHONPATH=src REPRO_NO_VECTOR=1 \
        python scripts/check_perf.py
    run_step "sequence views (REPRO_NO_VECTOR=1)" env PYTHONPATH=src REPRO_NO_VECTOR=1 \
        python -m pytest -q "${timeout_args[@]}" tests/test_leaf_meta.py \
        tests/test_model_sequences.py tests/test_partition_slices.py \
        tests/test_execution_batch.py tests/test_effects.py \
        tests/test_kernel_cache.py
fi

run_step "e2e benchmark smoke" env PYTHONPATH=src \
    python -m pytest -q benchmarks/e2e

if [ "${failures}" -ne 0 ]; then
    echo "${failures} check(s) failed"
    exit 1
fi
echo "all checks passed"
