"""Plan execution: streams, probers, caches, and the naive oracle."""

from repro.execution.batch_streams import DEFAULT_BATCH_SIZE
from repro.execution.context import build_batch_stream, build_prober, build_stream
from repro.execution.counters import ExecutionCounters
from repro.execution.engine import (
    RunResult,
    execute_plan,
    run_query,
    run_query_detailed,
)
from repro.execution.guard import (
    DEFAULT_CHECK_STRIDE,
    CancellationToken,
    QueryGuard,
)
from repro.execution.naive import OperatorView, build_views, evaluate_naive
from repro.execution.options import (
    DEFAULT_WORKERS,
    EXECUTION_MODES,
    PARALLEL_MODES,
    POOL_KINDS,
    ExecOptions,
)
from repro.execution.partition import (
    execute_partitioned,
    merge_partitions,
    partition_plan,
    slice_sequence,
)
from repro.execution.probers import Prober, ProberSequence
from repro.execution.sliding import (
    CumulativeAggregator,
    MonotonicAggregator,
    RunningSumAggregator,
    SlidingAggregator,
    make_sliding,
)

__all__ = [
    "CancellationToken",
    "CumulativeAggregator",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_CHECK_STRIDE",
    "DEFAULT_WORKERS",
    "EXECUTION_MODES",
    "PARALLEL_MODES",
    "POOL_KINDS",
    "ExecOptions",
    "ExecutionCounters",
    "QueryGuard",
    "MonotonicAggregator",
    "OperatorView",
    "Prober",
    "ProberSequence",
    "RunningSumAggregator",
    "RunResult",
    "SlidingAggregator",
    "build_batch_stream",
    "build_prober",
    "build_stream",
    "build_views",
    "evaluate_naive",
    "execute_partitioned",
    "execute_plan",
    "make_sliding",
    "merge_partitions",
    "partition_plan",
    "slice_sequence",
    "run_query",
    "run_query_detailed",
]
