"""Execution-level work counters.

These complement the storage counters: they measure the engine-side
quantities the paper's analysis is phrased in — cache operations and
occupancy (Theorem 3.1's cache-finiteness), predicate applications (the
cost model's K), and how many scans were opened on base sequences (the
stream-access property's "single scan").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.counters import CounterSet


@dataclass
class ExecutionCounters(CounterSet):
    """Mutable counters of engine work during one plan execution.

    Attributes:
        scans_opened: stream scans opened on base sequences.
        probes_issued: point probes issued to base sequences or
            materialized/derived probers.
        cache_ops: insertions + evictions + lookups in operator caches.
        max_cache_occupancy: peak records resident in any single
            operator cache (constant for stream-access evaluations).
        predicate_evals: predicate applications (select + join).
        records_emitted: records produced by the root.
        operator_records: records flowing between operators (total).
        batches_built: column batches emitted by batch-mode operators
            (zero in row mode).
        batch_rows: valid records carried by those batches; the mean
            ``batch_rows / batches_built`` is the realized batch
            density.
        fallbacks_taken: batch-path internal failures recovered by
            re-running the query on the row-path oracle (the engine's
            opt-in graceful degradation).
        exprs_interpreted: expressions the codegen could not lower to a
            fused closure (custom ``Expr`` subclasses), counted once
            per compilation — interpreted tree-walk evaluation is the
            silent slow path, and this makes it visible.
        kernels_fallback: batch operators that could not run a
            whole-column vector kernel — the effect spec withheld
            vectorization safety, numpy is absent, a dtype is
            non-numeric, or an exactness guard refused the lowering —
            and degraded to the fused-closure/aggregator path instead.
            The vector kernels are the fast path; this counter (and the
            ``kernel:fallback`` trace event) makes the degradation
            observable.
        partitions_executed: certified partitions the partitioned run
            (the ladder's ``parallel`` rung, or ``execute_partitioned``)
            completed.
        partition_retries: partition rebuilds during prepare after a
            :class:`~repro.errors.TransientStorageError` escaped the
            buffer pool's own read-level retries.
        stragglers_redispatched: always 0 (nothing re-dispatches a
            partition); kept because the end-to-end benchmark harness
            still reads it.
        parallel_fallbacks: steps down from the certified partitions to
            the unpartitioned plan in the requested mode — the first
            rung of the degradation ladder (parallel → requested mode →
            row oracle; the last step is ``fallbacks_taken``) —
            mirrored by ``parallel:fallback`` trace events.
    """

    scans_opened: int = 0
    probes_issued: int = 0
    cache_ops: int = 0
    max_cache_occupancy: int = 0
    predicate_evals: int = 0
    records_emitted: int = 0
    operator_records: int = 0
    batches_built: int = 0
    batch_rows: int = 0
    fallbacks_taken: int = 0
    exprs_interpreted: int = 0
    kernels_fallback: int = 0
    partitions_executed: int = 0
    partition_retries: int = 0
    stragglers_redispatched: int = 0
    parallel_fallbacks: int = 0

    def note_occupancy(self, occupancy: int) -> None:
        """Record a cache occupancy observation."""
        if occupancy > self.max_cache_occupancy:
            self.max_cache_occupancy = occupancy
