"""Tests for the partition-soundness analysis (repro.analysis.partition).

Four halves:

* **contracts** — derive_contract classifies every operator family the
  way Section 2.3's scope taxonomy predicts, and halo widths follow
  the Proposition 2.1 composition arithmetic (hypothesis-checked
  monotonicity, and zero exactly for pointwise contracts);
* **certificates** — prover output survives a JSON round trip, and the
  independent checker accepts honest certificates while rejecting
  every tampering a hostile producer could attempt;
* **the differential harness** — for every shipped workload query and
  partition counts {2, 3, 8}, executing each certified partition over
  *sliced* inputs (sequentially, in both row and batch
  mode) and merging in position order reproduces the unpartitioned
  row-oracle answer exactly; uncertifiable plans raise a typed error
  and are never silently partitioned;
* **hypothesis pipelines** — randomly generated select/project/shift/
  window stacks keep the same equality.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import base
from repro.algebra.expressions import Cmp, col, lit
from repro.algebra.scope import ScopeSpec
from repro.analysis.partition import (
    BLOCKING,
    ORDER_SENSITIVE,
    PART_RULES,
    POINTWISE,
    WINDOWED,
    PartitionCertificate,
    PartitionContract,
    PartitionCounters,
    analyze_partition,
    certify,
    check_certificate,
    derive_contract,
    plan_fingerprint,
    require_certificate,
)
from repro.analysis.effects import EffectCertificate, certify_effects
from repro.errors import ExecutionError, PartitionSoundnessError, ReproError
from repro.execution import (
    ExecutionCounters,
    execute_partitioned,
    execute_plan,
    merge_partitions,
    partition_plan,
    slice_sequence,
)
from repro.lang import compile_query
from repro.model import Span
from repro.optimizer import optimize
from repro.workloads import (
    STOCK_EXAMPLE_QUERIES,
    WEATHER_EXAMPLE_QUERIES,
    StockSpec,
    generate_stock,
)

from tests.tampers import tamper_test

PARTS = (2, 3, 8)


def optimized(source: str, catalog):
    return optimize(compile_query(source, catalog), catalog=catalog).plan


def row_oracle(plan):
    """The unpartitioned row-mode answer, as (position, record) pairs."""
    root = plan.plan
    return list(
        execute_plan(root, root.span, ExecutionCounters(), mode="row").iter_nonnull()
    )


class TestContracts:
    """derive_contract matches the Section 2.3 scope taxonomy."""

    @pytest.mark.parametrize(
        "source, kind",
        [
            ("select(ibm, close > 115.0)", POINTWISE),
            ("project(ibm, close, volume)", POINTWISE),
            ("shift(ibm, -5)", WINDOWED),
            ("window(ibm, avg, close, 6, ma6)", WINDOWED),
            ("previous(ibm)", ORDER_SENSITIVE),
            ("next(ibm)", ORDER_SENSITIVE),
            ("voffset(ibm, -2)", ORDER_SENSITIVE),
            ("cumulative(ibm, max, close)", BLOCKING),
            ("global_agg(ibm, min, close)", BLOCKING),
        ],
    )
    def test_operator_families(self, table1, source, kind):
        catalog, _sequences = table1
        contract = derive_contract(optimized(source, catalog))
        assert contract.kind == kind
        assert contract.is_decomposable == (kind in (POINTWISE, WINDOWED))

    def test_window_halo_is_exact(self, table1):
        catalog, _sequences = table1
        contract = derive_contract(optimized("window(ibm, avg, close, 6, ma6)", catalog))
        assert (contract.halo_below, contract.halo_above) == (5, 0)

    def test_shift_halo_direction(self, table1):
        catalog, _sequences = table1
        contract = derive_contract(optimized("shift(ibm, -5)", catalog))
        # output position p reads input p-5: five positions of lookback.
        assert (contract.halo_below, contract.halo_above) == (5, 0)


class TestHaloArithmetic:
    """Hypothesis: halo widths obey the composition arithmetic."""

    @given(width=st.integers(min_value=1, max_value=200))
    def test_window_halo_monotone_in_width(self, width):
        narrow = PartitionContract.of_scopes([ScopeSpec.window(width)])
        wide = PartitionContract.of_scopes([ScopeSpec.window(width + 1)])
        assert narrow.halo_below == width - 1
        assert wide.halo_below == narrow.halo_below + 1
        assert narrow.halo_above == wide.halo_above == 0

    @given(
        offsets=st.sets(
            st.integers(min_value=-50, max_value=50), min_size=1, max_size=8
        ),
        extra=st.integers(min_value=1, max_value=25),
    )
    def test_halo_monotone_in_reach(self, offsets, extra):
        """Widening a relative scope's reach never shrinks the halo."""
        scope = ScopeSpec.relative(frozenset(offsets))
        wider = ScopeSpec.relative(
            frozenset(offsets) | {min(offsets) - extra, max(offsets) + extra}
        )
        contract = PartitionContract.of_scopes([scope])
        widened = PartitionContract.of_scopes([wider])
        assert widened.halo_below >= contract.halo_below
        assert widened.halo_above >= contract.halo_above
        assert widened.halo_below == max(0, -(min(offsets) - extra))
        assert widened.halo_above == max(0, max(offsets) + extra)

    @given(
        scopes=st.lists(
            st.sets(
                st.integers(min_value=-30, max_value=30), min_size=1, max_size=6
            ).map(lambda s: ScopeSpec.relative(frozenset(s))),
            min_size=1,
            max_size=5,
        )
    )
    def test_zero_halo_iff_pointwise(self, scopes):
        """The contract is pointwise exactly when the halo is (0, 0)."""
        contract = PartitionContract.of_scopes(scopes)
        zero = contract.halo_below == 0 and contract.halo_above == 0
        assert (contract.kind == POINTWISE) == zero
        # ... which happens exactly when every offset is 0.
        assert zero == all(scope.offsets == frozenset({0}) for scope in scopes)

    @given(
        offsets=st.sets(
            st.integers(min_value=-20, max_value=20), min_size=1, max_size=6
        ),
        start=st.integers(min_value=-100, max_value=100),
        length=st.integers(min_value=0, max_value=50),
    )
    def test_required_window_covers_all_reads(self, offsets, start, length):
        """required_window contains every position any output reads."""
        scope = ScopeSpec.relative(frozenset(offsets))
        window = Span(start, start + length)
        required = scope.required_window(window)
        for position in range(start, start + length + 1):
            for offset in offsets:
                assert required.contains(position + offset)


class TestCertificates:
    """Prover output is serializable, checkable and tamper-evident."""

    @pytest.fixture(scope="class")
    def windowed(self, table1):
        catalog, _sequences = table1
        plan = optimized("window(ibm, avg, close, 6, ma6)", catalog)
        return plan, certify(plan, 3)

    def test_json_round_trip(self, windowed):
        plan, cert = windowed
        clone = PartitionCertificate.from_json(cert.to_json())
        assert clone == cert
        assert check_certificate(plan, clone).ok

    def test_round_trip_preserves_schema_keys(self, windowed):
        _plan, cert = windowed
        payload = json.loads(cert.to_json())
        assert set(payload) == {
            "version", "fingerprint", "parts", "root_span", "cut_points",
            "contract", "partitions", "halo_obligations", "merge",
        }
        assert payload["merge"]["order"] == "position"

    def test_fingerprint_binds_plan(self, windowed, table1):
        catalog, _sequences = table1
        plan, cert = windowed
        other = optimized("select(ibm, close > 115.0)", catalog)
        assert plan_fingerprint(other) != cert.fingerprint
        report = check_certificate(other, cert)
        assert not report.ok
        assert any(d.rule == "PART-CONTRACT" for d in report.errors)

    def test_checker_catches_understated_obligation(self, windowed):
        plan, cert = windowed
        payload = cert.to_dict()
        for obligation in payload["halo_obligations"]:
            obligation["below"] = 0
        tampered = PartitionCertificate.from_dict(payload)
        report = check_certificate(plan, tampered)
        assert any(d.rule == "PART-HALO" for d in report.errors)

    test_checker_catches_understated_contract = tamper_test("understated-halo")

    def test_checker_catches_narrowed_node_span(self, windowed):
        plan, cert = windowed
        payload = cert.to_dict()
        # Shrink the *last* partition's leaf span: its halo rows vanish.
        partition = payload["partitions"][-1]
        path, span = max(partition["node_spans"].items(), key=lambda kv: len(kv[0]))
        partition["node_spans"][path] = {
            "start": span["start"] + 5, "end": span["end"],
        }
        tampered = PartitionCertificate.from_dict(payload)
        report = check_certificate(plan, tampered)
        assert not report.ok

    def test_checker_catches_gapped_tiling(self, windowed):
        plan, cert = windowed
        payload = cert.to_dict()
        payload["partitions"][1]["window"]["start"] += 1
        tampered = PartitionCertificate.from_dict(payload)
        report = check_certificate(plan, tampered)
        assert any(d.rule == "PART-COVER" for d in report.errors)

    def test_certify_raises_typed_error(self, table1):
        catalog, _sequences = table1
        plan = optimized("cumulative(ibm, max, close)", catalog)
        with pytest.raises(PartitionSoundnessError) as excinfo:
            certify(plan, 2)
        assert excinfo.value.report is not None
        assert any(d.rule == "PART-BLOCKING" for d in excinfo.value.report.errors)

    def test_bad_partition_counts_refused(self, windowed):
        plan, _cert = windowed
        for parts in (0, -3):
            cert, report = analyze_partition(plan, parts)
            assert cert is None
            assert any(d.rule == "PART-COVER" for d in report.errors)
        # More partitions than output positions cannot all be non-empty.
        length = plan.plan.span.length()
        cert, report = analyze_partition(plan, length + 1)
        assert cert is None
        assert any(d.rule == "PART-COVER" for d in report.errors)

    def test_counters_charged(self, table1):
        catalog, _sequences = table1
        counters = PartitionCounters()
        plan = optimized("window(ibm, avg, close, 6, ma6)", catalog)
        cert = certify(plan, 3, counters=counters)
        check_certificate(plan, cert, counters=counters)
        analyze_partition(
            optimized("previous(ibm)", catalog), 2, counters=counters
        )
        snapshot = counters.as_dict()
        assert snapshot["certificates_issued"] == 1
        assert snapshot["partitions_certified"] == 3
        assert snapshot["certificates_rejected"] == 1
        assert snapshot["checks_run"] == 1
        assert snapshot["checks_failed"] == 0


def set_path(payload, path, value):
    """A deep copy of ``payload`` with the entry at ``path`` replaced."""
    clone = copy.deepcopy(payload)
    node = clone
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return clone


#: (path into ``to_dict()`` output, replacement) — one per malformed
#: shape a certificate from an untrusted producer has been seen with.
MALFORMED_PARTITION = [
    (("cut_points", 0), "x"),
    (("cut_points", 0), None),
    (("cut_points",), [7, "junk"]),
    (("partitions",), [7, "junk"]),
    (("partitions", 0), "junk"),
    (("partitions", 0, "window"), 7),
    (("partitions", 0, "node_spans"), [7]),
    (("partitions", 0, "leaf_spans"), {"root:scan": "junk"}),
    (("halo_obligations",), [7, "junk"]),
    (("halo_obligations", 0), None),
    (("merge",), "junk"),
    (("merge", "windows"), [7, "junk"]),
    (("merge", "covers"), []),
    (("contract",), "junk"),
    (("contract", "kind"), "no-such-kind"),
    (("root_span",), 7),
    (("fingerprint",), 7),
    (("parts",), "3"),
]

MALFORMED_EFFECTS = [
    (("sites",), [1, 2]),
    (("sites",), "junk"),
    (("sites", 0), 7),
    (("sites", 0, "spec"), "junk"),
    (("sites", 0, "spec", "exceptions"), [7]),
    (("sites", 0, "spec", "domain"), "junk"),
    (("sites", 0, "path"), None),
    (("fingerprint",), None),
]

MALFORMED_JSON = ["", "{", "[1, 2]", "7", "null", '{"sites": []}']


class TestMalformedCertificates:
    """Certificates from outside: every bad shape is a ``ReproError``.

    Never an untyped exception, and never an accepted certificate with
    the offending entries silently dropped.
    """

    @pytest.fixture(scope="class")
    def plan(self, table1):
        catalog, _sequences = table1
        return optimized(
            "window(select(ibm, close > 115.0), avg, close, 6, ma6)", catalog
        )

    @pytest.mark.parametrize("path, junk", MALFORMED_PARTITION)
    def test_partition_payload(self, plan, path, junk):
        payload = set_path(certify(plan, 3).to_dict(), path, junk)
        with pytest.raises(ReproError):
            PartitionCertificate.from_dict(payload)
        with pytest.raises(ReproError):
            PartitionCertificate.from_json(json.dumps(payload))

    @pytest.mark.parametrize("path, junk", MALFORMED_EFFECTS)
    def test_effects_payload(self, plan, path, junk):
        payload = set_path(certify_effects(plan).to_dict(), path, junk)
        with pytest.raises(ReproError):
            EffectCertificate.from_dict(payload)
        with pytest.raises(ReproError):
            EffectCertificate.from_json(json.dumps(payload))

    @pytest.mark.parametrize("text", MALFORMED_JSON)
    @pytest.mark.parametrize("kind", [PartitionCertificate, EffectCertificate])
    def test_json_text(self, kind, text):
        with pytest.raises(ReproError):
            kind.from_json(text)


class TestPartitionedExecution:
    """Certified execution over sliced inputs equals the oracle."""

    def test_execution_refuses_unchecked_certificate(self, table1):
        catalog, _sequences = table1
        plan = optimized("window(ibm, avg, close, 6, ma6)", catalog)
        cert = certify(plan, 2)
        payload = cert.to_dict()
        for obligation in payload["halo_obligations"]:
            obligation["below"] = 0
        tampered = PartitionCertificate.from_dict(payload)
        with pytest.raises(PartitionSoundnessError):
            execute_partitioned(plan, tampered)
        with pytest.raises(PartitionSoundnessError):
            require_certificate(plan, tampered)

    def test_understated_halo_is_observable(self, table1):
        """The harness *would* catch a prover bug: shrinking a leaf slice
        below the halo changes boundary outputs (nulls leak in), which
        is exactly the wrongness the differential equality detects."""
        catalog, _sequences = table1
        plan = optimized("window(ibm, avg, close, 6, ma6)", catalog)
        cert = certify(plan, 2)
        honest = execute_partitioned(plan, cert)
        payload = cert.to_dict()
        partition = payload["partitions"][1]
        for spans in (partition["node_spans"], partition["leaf_spans"]):
            for path, span in spans.items():
                if span.get("start") is not None:
                    spans[path] = {"start": span["start"] + 5, "end": span["end"]}
        starved = PartitionCertificate.from_dict(payload)
        outputs = execute_partitioned(plan, starved, verify=False)
        assert list(outputs.iter_nonnull()) != list(honest.iter_nonnull())

    def test_merge_rejects_out_of_order_outputs(self, table1):
        catalog, _sequences = table1
        plan = optimized("select(ibm, close > 115.0)", catalog)
        cert = certify(plan, 2)
        output = execute_plan(
            plan.plan, plan.plan.span, ExecutionCounters(), mode="row"
        )
        with pytest.raises(ExecutionError):
            merge_partitions([output, output], cert)

    def test_partition_plan_slices_leaves(self, table1):
        catalog, sequences = table1
        plan = optimized("window(ibm, avg, close, 6, ma6)", catalog)
        cert = certify(plan, 2)
        second = cert.partitions[1]
        subplan = partition_plan(plan.plan, second)
        leaves = [node for node in subplan.walk() if not node.children]
        assert leaves
        for leaf in leaves:
            span = leaf.node.sequence.span
            full = sequences["ibm"].span
            assert full.covers(span) and span != full

    def test_slice_sequence_nulls_outside(self, table1):
        _catalog, sequences = table1
        ibm = sequences["ibm"]
        window = Span(250, 260)
        sliced = slice_sequence(ibm, window)
        assert sliced.span == window
        assert list(sliced.iter_nonnull()) == list(ibm.iter_nonnull(window))


class TestDifferentialWorkloads:
    """Every shipped query: partitioned == unpartitioned, or typed refusal."""

    def check_corpus(self, sources, catalog):
        certified = rejected = 0
        for source in sources:
            plan = optimized(source, catalog)
            oracle = None
            for parts in PARTS:
                cert, report = analyze_partition(plan, parts)
                if cert is None:
                    rejected += 1
                    typed = [d for d in report.errors if d.rule in PART_RULES]
                    assert typed, f"{source}: refusal without a typed finding"
                    with pytest.raises(PartitionSoundnessError):
                        certify(plan, parts)
                    continue
                certified += 1
                assert check_certificate(plan, cert).ok, source
                oracle = row_oracle(plan) if oracle is None else oracle
                for mode in ("row", "batch"):
                    merged = execute_partitioned(plan, cert, mode=mode)
                    assert list(merged.iter_nonnull()) == oracle, (
                        f"{source}: parts={parts} mode={mode} diverged"
                    )
        return certified, rejected

    def test_stock_corpus(self, table1):
        catalog, _sequences = table1
        certified, rejected = self.check_corpus(STOCK_EXAMPLE_QUERIES, catalog)
        assert certified and rejected  # the corpus exercises both paths

    def test_weather_corpus(self, weather):
        from repro.catalog import Catalog

        _catalog, volcanos, quakes = weather
        catalog = Catalog()
        catalog.register("v", volcanos)
        catalog.register("e", quakes)
        certified, _rejected = self.check_corpus(WEATHER_EXAMPLE_QUERIES, catalog)
        assert certified


class TestHypothesisPipelines:
    """Random operator stacks keep the differential equality."""

    @staticmethod
    def build(stack, window_width, walk):
        builder = base(walk, "s")
        for kind, argument in stack:
            if kind == "select":
                builder = builder.select(Cmp(">", col("close"), lit(float(argument))))
            else:
                builder = builder.shift(argument)
        if window_width is not None:
            # A window aggregate projects to its output column, so it
            # can only terminate the stack.
            builder = builder.window("avg", "close", window_width, "wavg")
        return builder.query()

    @given(
        stack=st.lists(
            st.one_of(
                st.tuples(st.just("select"), st.integers(90, 120)),
                st.tuples(st.just("shift"), st.integers(-6, 6).filter(bool)),
            ),
            min_size=0,
            max_size=3,
        ),
        window_width=st.none() | st.integers(2, 9),
        parts=st.sampled_from(PARTS),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_pipelines(self, stack, window_width, parts, seed):
        walk = generate_stock(StockSpec("s", Span(0, 119), 0.9, seed=seed))
        query = self.build(stack, window_width, walk)
        plan = optimize(query).plan
        cert, report = analyze_partition(plan, parts)
        if cert is None:
            assert any(d.rule in PART_RULES for d in report.errors)
            return
        assert check_certificate(plan, cert).ok
        oracle = row_oracle(plan)
        for mode in ("row", "batch"):
            merged = execute_partitioned(plan, cert, mode=mode)
            assert list(merged.iter_nonnull()) == oracle
