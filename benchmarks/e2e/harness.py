"""Set-up, the measured phase, the traced pass, and the metrics of each.

Every layer is measured from outside: the measured phase times calls
into the four in-path public functions (``compile_query`` → ``optimize``
→ ``execute_plan`` → a drain of ``iter_nonnull``) with tracing off, and
the traced pass wraps the same calls in the benchmark's own spans while
handing the engine a :class:`repro.obs.Tracer` through its public
``tracer=`` argument, so the optimizer-step and operator spans the
engine already records nest under them.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis import certify, certify_effects, check_certificate
from repro.analysis.base import plan_paths
from repro.errors import EffectSoundnessError, PartitionSoundnessError
from repro.execution import (
    ExecutionCounters,
    execute_plan,
    merge_partitions,
    partition_plan,
)
from repro.lang import compile_query, parse, tokenize
from repro.obs import Tracer
from repro.optimizer import optimize

from workloads import BUILDERS, WORKERS, Item, Workload

#: Set-up is repeated and its undisturbed time reported, so one slow
#: page-cache miss or scheduler stall does not move ``setup_s``.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 20
#: Positions probed per organization by the ``storage.probe_us`` side
#: probe (a ``log`` probe scans from the head, so 2 000 would not fit).
PROBE_POSITIONS = 200

#: Engine step spans → the per-layer metric their self time feeds.
STEP_METRICS = {
    "rewrite": "optimizer.rewrite_ms",
    "annotate": "optimizer.annotate_ms",
    "blocks": "optimizer.blocks_ms",
    "plan-gen": "optimizer.plan-gen_ms",
    "selection": "optimizer.selection_ms",
    "partition-contract": "analysis.partition-contract_ms",
    "effects": "analysis.effects_ms",
}
#: ``ExecutionCounters`` fields reported as per-query means.
EXECUTION_COUNTS = (
    "batches_built",
    "predicate_evals",
    "cache_ops",
    "kernels_fallback",
    "exprs_interpreted",
    "fallbacks_taken",
    "partitions_executed",
    "parallel_fallbacks",
    "partition_retries",
    "stragglers_redispatched",
)
STORAGE_COUNTS = (
    "page_reads",
    "buffer_hits",
    "buffer_evictions",
    "probes",
    "index_node_reads",
    "records_streamed",
)
#: The storage counts also reported per class family (a stream class
#: never probes, so it has no probe count).
FAMILY_COUNTS = {
    "stream": ("page_reads", "buffer_hits", "records_streamed"),
    "probe": ("page_reads", "buffer_hits", "probes", "records_streamed"),
}


# -- set-up -------------------------------------------------------------------


def set_up(name: str, seed: int, smoke: bool) -> tuple[Workload, float]:
    """Build a workload and its oracle answers; returns it and the seconds.

    The reference pairs come from the naive (denotational) evaluator over
    in-memory copies of the data, on the output span the optimizer chose:
    never from another executor of the engine under test.
    """
    started = time.perf_counter()
    workload = BUILDERS[name](seed, smoke)
    for item in workload.items:
        query = compile_query(item.text, workload.env)
        span = optimize(query, workload.catalog, workload.span).plan.output_span
        if workload.oracle_env is not workload.env:
            query = compile_query(item.text, workload.oracle_env)
        item.oracle = flatten(query.run_naive(span).iter_nonnull())
    return workload, time.perf_counter() - started


def flatten(pairs) -> tuple:
    """``(position, record)`` pairs as (positions, value tuples, schemas).

    Tuples of atoms are invisible to the cyclic collector, so the oracle
    answers held for the whole run do not lengthen the engine's garbage
    collections the way lists of records would.
    """
    positions, values, schemas = [], [], set()
    for position, record in pairs:
        positions.append(position)
        values.append(record.values)
        schemas.add(record.schema)
    return tuple(positions), tuple(values), tuple(schemas)


def deciles(values: list) -> list:
    """The nine deciles of ``values`` (of one value: that value)."""
    if len(values) < 2:
        return [values[0]] * 9
    return statistics.quantiles(values, n=10, method="inclusive")


def undisturbed(timings: list) -> float:
    """The lower decile of repeated timings of the same work.

    The sandbox is a few cores of a shared host: a neighbour's burst only
    ever adds time, for seconds at a stretch, so within a run the median
    of a repeated timing moves with the share of the run spent under a
    burst (and a pooled 90th percentile is made of little else), while
    the lower decile stays put until nine tenths of the run are disturbed.
    The work itself repeats exactly (same text, same data, the collector
    reset between rounds), so the lower decile loses nothing the engine
    does; it is steadier than the minimum and does not sink as a longer
    run collects more repetitions.
    """
    return deciles(timings)[0]


def repeated_set_up(name: str, seed: int, smoke: bool) -> tuple[Workload, float]:
    """Set up several times; returns the last workload and the undisturbed time.

    At least ``SETUP_REPEATS`` times, and a set-up of under a second
    until ``SETUP_MIN_SECONDS`` have gone into it, so that the time of a
    short set-up rests on more than three clock readings.
    """
    seconds: list[float] = []
    workload = None
    while not seconds or (
        not smoke
        and (len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_MIN_SECONDS)
        and len(seconds) < SETUP_MAX_REPEATS
    ):
        del workload
        gc.collect()
        workload, elapsed = set_up(name, seed, smoke)
        seconds.append(elapsed)
    return workload, undisturbed(seconds)


# -- correctness --------------------------------------------------------------


def verdict(item: Item, result, counters: ExecutionCounters, pairs: list) -> Optional[str]:
    """Why this query counts as failed, or None when it is right.

    The shape rules turn a silent downgrade into a failure instead of a
    speed-up: a probed join that became lock-step, a parallel run that
    fell back, or a batch run that re-ran on the row executor.
    """
    if flatten(pairs) != item.oracle:
        return f"answer differs from the naive evaluator's ({len(pairs)} pairs)"
    if item.expect_kinds:
        kinds = {node.kind for node in result.plan.plan.walk()}
        if not kinds.intersection(item.expect_kinds):
            return f"planned {sorted(kinds)}, expected one of {item.expect_kinds}"
    if item.parallel and (
        counters.partitions_executed != WORKERS or counters.parallel_fallbacks
    ):
        return (
            f"{counters.partitions_executed} partitions executed, "
            f"{counters.parallel_fallbacks} parallel fallbacks"
        )
    if counters.fallbacks_taken:
        return "the batch path fell back to the row executor"
    return None


@dataclass
class Tally:
    """Queries attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def note(self, item: Item, reason: Optional[str]) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{item.cls}: {reason}")


def _rounds(seconds: Optional[float], rounds: Optional[int]) -> Iterator[int]:
    """Whole rounds: a fixed count, or until ``seconds`` have passed."""
    deadline = time.perf_counter() + (seconds or 0.0)
    done = 0
    while True:
        gc.collect()
        yield done
        done += 1
        if rounds is None and time.perf_counter() >= deadline:
            return
        if rounds is not None and done >= rounds:
            return


# -- the measured phase (tracing off) -----------------------------------------


@dataclass
class Samples:
    """What the untraced phase measured.

    Attributes:
        total_ms: per item of the round, text → last record drained.
        plan_ms: per item of the round, text → chosen plan.
        round_qps: per round, queries ÷ the sum of their times.  The
            oracle comparison between two queries is not in that sum.
    """

    total_ms: dict = field(default_factory=lambda: defaultdict(list))
    plan_ms: dict = field(default_factory=lambda: defaultdict(list))
    round_qps: list = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)

    def pooled_ms(self) -> list:
        return [ms for samples in self.total_ms.values() for ms in samples]


def mix_deciles(per_item: dict) -> list:
    """Deciles, over a round's queries, of each query's undisturbed time.

    Every query runs once a round, so these are the percentiles of the
    query mix; what the rounds add is repetition, and that is reduced
    per query first (see :func:`undisturbed`), not pooled: the pooled
    median falls in the gap between two classes and is set by their
    tails, and the pooled 90th percentile by the host's bursts.
    """
    return deciles([undisturbed(samples) for samples in per_item.values()])


def measure(
    workload: Workload, seconds: Optional[float] = None, rounds: Optional[int] = None
) -> Samples:
    """Closed loop, one client, no think time: whole rounds of every item."""
    samples = Samples()
    for _ in _rounds(seconds, rounds):
        busy = 0.0
        for index, item in enumerate(workload.items):
            try:
                started = time.perf_counter()
                query = compile_query(item.text, workload.env)
                result = optimize(query, workload.catalog, workload.span)
                planned = time.perf_counter()
                counters = ExecutionCounters()
                answer = execute_plan(
                    result.plan.plan, result.plan.output_span, counters, **item.exec_kwargs
                )
                pairs = list(answer.iter_nonnull())
                ended = time.perf_counter()
            except Exception as error:  # a query that raises is a failed query
                samples.tally.note(item, f"{type(error).__name__}: {error}")
                continue
            busy += ended - started
            samples.total_ms[index].append((ended - started) * 1e3)
            samples.plan_ms[index].append((planned - started) * 1e3)
            samples.tally.note(item, verdict(item, result, counters, pairs))
        if busy:
            samples.round_qps.append(len(workload.items) / busy)
    return samples


def end_to_end(samples: Samples, setup_s: float) -> dict:
    """The end-to-end metrics of one untraced run."""
    query_ms = mix_deciles(samples.total_ms)
    return {
        "setup_s": setup_s,
        # The undisturbed round: lower decile of the round times, so
        # upper decile of the rates.
        "queries_per_s": deciles(samples.round_qps)[-1],
        "query_p50_ms": query_ms[4],
        "query_p90_ms": query_ms[8],
        "plan_p50_ms": mix_deciles(samples.plan_ms)[4],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# -- the traced pass ----------------------------------------------------------


class Recorder:
    """The benchmark's in-memory span recorder.

    A span is a dict: ``id``, ``name``, ``parent`` (an id, or None for a
    query root and for side probes), ``query`` (workload/class/iteration),
    ``start_us`` / ``end_us`` since the recorder was created.  Spans the
    engine recorded are adopted with their ``category``, ``busy_us`` and
    ``attrs`` (the counts measured at that boundary).
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._origin = time.perf_counter()

    def now_us(self) -> float:
        return (time.perf_counter() - self._origin) * 1e6

    @contextmanager
    def span(self, name: str, parent: Optional[dict], query: str) -> Iterator[dict]:
        span = {
            "id": len(self.spans) + 1,
            "name": name,
            "parent": parent["id"] if parent is not None else None,
            "query": query,
            "start_us": self.now_us(),
            "end_us": None,
        }
        self.spans.append(span)
        try:
            yield span
        finally:
            span["end_us"] = self.now_us()

    def adopt(self, tracer: Tracer, shift_us: float, hosts: list, query: str) -> list:
        """Re-parent a finished engine tracer's spans under ``hosts``.

        An engine root span goes under the host span that was open when
        it started; ``shift_us`` moves the tracer's clock onto ours.
        """
        ids: dict[int, int] = {}
        adopted = []
        for engine in tracer.spans:
            start = engine.start_us + shift_us
            parent = ids.get(engine.parent_id)
            if parent is None:
                parent = next(
                    (h["id"] for h in hosts if h["start_us"] <= start <= h["end_us"]), None
                )
            span = {
                "id": len(self.spans) + 1,
                "name": engine.name,
                "parent": parent,
                "query": query,
                "start_us": start,
                "end_us": engine.end_us + shift_us,
                "category": engine.category,
                "busy_us": engine.busy_us,
                "attrs": engine.attrs,
            }
            ids[engine.span_id] = span["id"]
            self.spans.append(span)
            adopted.append(span)
        return adopted

    def write(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")


def _ms(span: dict) -> float:
    return (span["end_us"] - span["start_us"]) / 1e3


def _storage_totals(workload: Workload) -> dict:
    totals = dict.fromkeys(STORAGE_COUNTS, 0)
    for sequence in workload.stored.values():
        counters = sequence.counters
        for name in STORAGE_COUNTS:
            totals[name] += getattr(counters, name)
    return totals


@dataclass
class Trace:
    """Running sums of the traced pass; ``per_layer`` turns them into means.

    ``sums`` is keyed by metric name; ``storage`` holds the storage-count
    deltas of all queries under ``""`` and of each class family under its
    name, with ``family_queries`` the number of queries in each.
    """

    sums: dict = field(default_factory=lambda: defaultdict(float))
    storage: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(int)))
    family_queries: dict = field(default_factory=lambda: defaultdict(int))
    whole_pass: dict = field(default_factory=dict)
    estimated_cost: dict = field(default_factory=dict)
    peak_plans_stored: int = 0
    max_cache_occupancy: int = 0
    certificates_issued: int = 0
    queries: int = 0
    total_ms: float = 0.0
    tally: Tally = field(default_factory=Tally)


def _traced_query(workload: Workload, item: Item, qid: str, rec: Recorder, trace: Trace):
    """One query under spans; returns what ``verdict`` needs."""
    sums = trace.sums
    before = _storage_totals(workload)
    shift_us = rec.now_us()
    tracer = Tracer()
    with rec.span("query", None, qid) as root:
        with rec.span("lang.compile_query", root, qid) as lang:
            query = compile_query(item.text, workload.env)
        with rec.span("optimizer.optimize", root, qid) as planning:
            result = optimize(query, workload.catalog, workload.span, tracer=tracer)
        counters = ExecutionCounters()
        with rec.span("execution.execute_plan", root, qid) as execution:
            answer = execute_plan(
                result.plan.plan,
                result.plan.output_span,
                counters,
                tracer=tracer,
                **item.exec_kwargs,
            )
        with rec.span("model.materialize", root, qid) as drain:
            pairs = list(answer.iter_nonnull())
    after = _storage_totals(workload)
    engine = rec.adopt(tracer, shift_us, [planning, execution], qid)

    trace.queries += 1
    trace.total_ms += _ms(root)
    sums["lang.compile_ms"] += _ms(lang)
    sums["optimizer.optimize_ms"] += _ms(planning)
    sums["execution.execute_ms"] += _ms(execution)
    sums["model.materialize_ms"] += _ms(drain)
    sums["harness.other_ms"] += _ms(root) - sum(
        _ms(child) for child in (lang, planning, execution, drain)
    )
    sums["obs.spans_per_query"] += 5 + len(engine)
    sums["model.records_per_query"] += len(pairs)

    # Self time: a span minus what its children cover.  Step spans are
    # wall intervals; operator spans carry busy time inclusive of their
    # operator children (pulls interleave, so their intervals overlap).
    child_ms: dict = defaultdict(float)
    child_busy: dict = defaultdict(float)
    for span in engine:
        child_ms[span["parent"]] += _ms(span)
        if span["category"] == "operator":
            child_busy[span["parent"]] += span["busy_us"]
    lanes = []
    for span in engine:
        name = span["name"]
        if span["category"] == "operator":
            kind = span["attrs"]["kind"]
            self_us = max(span["busy_us"] - child_busy[span["id"]], 0.0)
            sums[f"execution.op.{kind}.self_ms"] += self_us / 1e3
            sums[f"execution.op.{kind}.rows"] += span["attrs"].get("rows_emitted", 0)
        elif name in STEP_METRICS:
            sums[STEP_METRICS[name]] += _ms(span) - child_ms[span["id"]]
        elif name == "partition":
            lanes.append(_ms(span))
        elif name == "parallel":
            sums["execution.parallel_ms"] += _ms(span)
    if lanes:
        sums["execution.partition_lane_ms_max"] += max(lanes)
        sums["execution.partition_lane_ms_sum"] += sum(lanes)

    plan = result.plan
    sums["optimizer.plans_considered"] += plan.plans_considered
    sums["optimizer.rules_fired"] += len(plan.rewrites)
    sums["optimizer.blocks_planned"] += plan.block_count
    trace.peak_plans_stored = max(trace.peak_plans_stored, plan.peak_plans_stored)
    trace.estimated_cost[id(item)] = plan.estimated_cost
    for name in EXECUTION_COUNTS:
        sums[f"execution.{name}"] += getattr(counters, name)
    trace.max_cache_occupancy = max(trace.max_cache_occupancy, counters.max_cache_occupancy)
    trace.family_queries[item.family] += 1
    for family in {"", item.family}:
        for name in STORAGE_COUNTS:
            trace.storage[family][name] += after[name] - before[name]
    return result, counters, pairs


def _side_probes(item: Item, result, qid: str, rec: Recorder, trace: Trace) -> None:
    """Timed calls that duplicate in-path work; never part of the query's total."""
    sums = trace.sums

    @contextmanager
    def probe(name: str, metric: str) -> Iterator[None]:
        with rec.span(name, None, qid) as span:
            yield
        sums[metric] += _ms(span)

    with probe("lang.tokenize", "lang.lex_ms"):
        tokens = tokenize(item.text)
    with probe("lang.parse", "lang.lex+parse_ms"):
        parse(item.text)
    sums["lang.tokens_per_query"] += len(tokens)
    sums["lang.source_chars_per_query"] += len(item.text)

    plan = result.plan
    certificate = None
    with probe("analysis.certify", "analysis.certify_ms"):
        try:
            certificate = certify(plan, WORKERS)
        except PartitionSoundnessError:
            pass  # order-sensitive and blocking plans are refused: counted, not failed
    if certificate is not None:
        trace.certificates_issued += 1
        with probe("analysis.check_certificate", "analysis.check_certificate_ms"):
            check_certificate(plan, certificate)
    with probe("analysis.certify_effects", "analysis.effects_certify_ms"):
        try:
            certify_effects(plan)
        except EffectSoundnessError:
            pass
    if item.parallel and certificate is not None:
        root = plan.plan
        with probe("execution.partition_plan", "execution.partition_prepare_ms"):
            paths = plan_paths(root)
            subplans = [partition_plan(root, part, paths) for part in certificate.partitions]
        outputs = [
            execute_plan(sub, part.window, ExecutionCounters(), mode=item.exec_kwargs["mode"])
            for sub, part in zip(subplans, certificate.partitions)
        ]
        with probe("execution.merge_partitions", "execution.partition_merge_ms"):
            merge_partitions(outputs, certificate)


def _storage_probes(workload: Workload, seed: int, smoke: bool, rec: Recorder, trace: Trace):
    """Raw stored-sequence scans and probes, after the last traced query."""
    qid = f"{workload.name}/storage"
    scans = 3
    with rec.span("storage.stream_scan", None, qid) as span:
        for _ in range(scans):
            for _pair in workload.stored["dense"].iter_nonnull():
                pass
    trace.whole_pass["storage.stream_scan_ms"] = _ms(span) / scans
    span_of = workload.stored["p_log"].span
    rng = random.Random(seed)
    count = PROBE_POSITIONS // 10 if smoke else PROBE_POSITIONS
    positions = [rng.randint(span_of.start, span_of.end) for _ in range(count)]
    for organization in ("clustered", "indexed", "log"):
        sequence = workload.stored[f"p_{organization}"]
        with rec.span(f"storage.probe.{organization}", None, qid) as span:
            for position in positions:
                sequence.at(position)
        trace.whole_pass[f"storage.probe_us.{organization}"] = _ms(span) * 1e3 / count


def trace_pass(
    workload: Workload,
    seed: int,
    smoke: bool,
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
) -> tuple[Trace, Recorder]:
    """Whole rounds under spans, each query followed by its side probes."""
    rec = Recorder()
    trace = Trace()
    for index in _rounds(seconds, rounds):
        for item in workload.items:
            qid = f"{workload.name}/{item.cls}/{index}"
            try:
                result, counters, pairs = _traced_query(workload, item, qid, rec, trace)
            except Exception as error:  # a query that raises is a failed query
                trace.tally.note(item, f"{type(error).__name__}: {error}")
                continue
            trace.tally.note(item, verdict(item, result, counters, pairs))
            _side_probes(item, result, qid, rec, trace)
    if workload.stored:
        _storage_probes(workload, seed, smoke, rec, trace)
    return trace, rec


def per_layer(workload: Workload, samples: Samples, trace: Trace) -> dict:
    """Every per-layer metric this workload produced (means per query)."""
    sums = trace.sums
    queries = max(trace.queries, 1)
    metrics = {name: total / queries for name, total in sums.items()}
    metrics.update(trace.whole_pass)
    for name, total in trace.storage[""].items():
        metrics[f"storage.{name}_per_query"] = total / queries
    for family, names in FAMILY_COUNTS.items():
        for name in names:
            metrics[f"storage.{family}.{name}_per_query"] = trace.storage[family][name] / max(
                trace.family_queries[family], 1
            )

    lex_parse = metrics.pop("lang.lex+parse_ms")
    compile_ms = metrics.pop("lang.compile_ms")
    metrics["lang.parse_ms"] = lex_parse - metrics["lang.lex_ms"]
    metrics["lang.analyze_compile_ms"] = compile_ms - lex_parse

    reads = trace.storage[""]["page_reads"]
    hits = trace.storage[""]["buffer_hits"]
    metrics["storage.buffer_hit_rate"] = hits / (hits + reads) if hits + reads else 0.0
    metrics["catalog.register_s"] = workload.register_s
    metrics["storage.build_s"] = workload.build_s
    metrics["optimizer.peak_plans_stored"] = trace.peak_plans_stored
    metrics["optimizer.estimated_cost_total"] = sum(trace.estimated_cost.values())
    metrics["execution.max_cache_occupancy"] = trace.max_cache_occupancy
    metrics["analysis.certified_share"] = trace.certificates_issued / queries
    records = sums["model.records_per_query"]
    metrics["model.materialize_ns_per_record"] = (
        sums["model.materialize_ms"] * 1e6 / records if records else 0.0
    )
    untraced_ms = statistics.fmean(samples.pooled_ms())
    metrics["obs.trace_overhead_pct"] = (trace.total_ms / queries / untraced_ms - 1) * 100
    by_class = defaultdict(list)
    for index, values in samples.total_ms.items():
        by_class[workload.items[index].cls] += values
    for cls, values in by_class.items():
        metrics[f"class.{cls}.p50_ms"] = statistics.median(values)
    return metrics
