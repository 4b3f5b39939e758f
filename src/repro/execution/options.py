"""Execution knobs: declared, defaulted and validated in exactly one place.

Every entry point that executes a plan (``execute_plan``, ``run_query``,
``run_query_detailed``, ``execute_parallel``, ``execute_partitioned``)
accepts the knobs below as keywords, builds one frozen
:class:`ExecOptions` from them *before any work or counter mutation
happens* (DESIGN §9), and hands that object to everything underneath —
the degradation ladder, the parallel supervisor, the per-partition
lanes and the flight recorder never see loose knobs and never
re-validate.  The CLI flags and the README knob table are derived from
the same field declarations, so a knob's name, default and validity
rule exist once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.errors import ExecutionError
from repro.execution.batch_streams import DEFAULT_BATCH_SIZE

if TYPE_CHECKING:
    from repro.execution.guard import QueryGuard

#: Execution modes: columnar batches, or the record-at-a-time oracle.
EXECUTION_MODES = ("batch", "row")

#: Parallel-execution modes: ``"off"`` (default), ``"auto"`` (parallel
#: when certifiable, degrading down the ladder on refusal or runtime
#: failure), and ``"force"`` (parallel or a typed refusal/failure).
PARALLEL_MODES = ("off", "auto", "force")

#: Worker-pool kinds the parallel supervisor can spawn.
POOL_KINDS = ("thread", "process")

#: Default worker count when ``parallel`` is requested without
#: ``workers``: one lane per visible CPU.
DEFAULT_WORKERS = max(1, os.cpu_count() or 1)


def _knob(default: Any, *, choices: tuple = (), kind: type = str, help: Optional[str]) -> Any:
    """Declare one knob: its default, its validity rule, its CLI help.

    ``choices`` makes it an enumeration; otherwise ``kind`` is ``bool``
    (a flag), ``int`` or ``float`` (a positive number; None is allowed
    exactly when it is the default).  ``help=None`` marks an API-only
    knob that has no command-line flag.
    """
    return field(default=default, metadata={"choices": choices, "kind": kind, "help": help})


@dataclass(frozen=True)
class ExecOptions:
    """The validated execution knobs of one query run.

    Attributes:
        mode: ``"batch"`` runs the columnar batch executor; ``"row"``
            runs the record-at-a-time executor, kept as the semantics
            oracle.  Both produce identical answers.
        batch_size: positions covered per batch in batch mode.
        fallback: opt-in graceful degradation — a batch-mode run that
            fails with an internal error is re-run on the row oracle.
        parallel: ``"off"`` executes single-threaded; ``"auto"`` runs
            partition-certified plans on the parallel supervisor and
            degrades to the single-thread path on refusal or
            infrastructure failure; ``"force"`` raises the typed
            refusal or failure instead of degrading.
        workers: parallel worker lanes (None: one per visible CPU).
        pool: ``"thread"`` or ``"process"`` worker pool.
        straggler_timeout: soft per-partition seconds before the
            supervisor speculatively re-dispatches a straggler (None
            disables the watch).

    Raises:
        ExecutionError: when any field violates its rule.
    """

    mode: str = _knob(
        "batch",
        choices=EXECUTION_MODES,
        help="execution mode: columnar batches or record-at-a-time rows",
    )
    batch_size: int = _knob(
        DEFAULT_BATCH_SIZE, kind=int, help="positions per column batch in batch mode"
    )
    fallback: bool = _knob(
        False,
        kind=bool,
        help="on a batch-path internal failure, re-run the query on the "
        "row-path oracle instead of failing",
    )
    parallel: str = _knob(
        "off",
        choices=PARALLEL_MODES,
        help="run partition-certified plans on the parallel supervisor: "
        "'auto' degrades to single-thread execution on refusal or "
        "infrastructure failure, 'force' raises the typed error instead",
    )
    workers: Optional[int] = _knob(
        None, kind=int, help=f"parallel worker lanes (default {DEFAULT_WORKERS}: one per CPU)"
    )
    pool: str = _knob("thread", choices=POOL_KINDS, help="parallel worker pool kind")
    straggler_timeout: Optional[float] = _knob(None, kind=float, help=None)

    def __post_init__(self) -> None:
        for spec in _KNOBS:
            value = getattr(self, spec.name)
            if not _satisfies(spec, value):
                raise ExecutionError(
                    f"{spec.name} must be {valid_values(spec)}, got {value!r}"
                )

    @classmethod
    def of(cls, options: Mapping[str, Any], guard: "Optional[QueryGuard]" = None) -> "ExecOptions":
        """Build the record from an entry point's ``**options`` keywords.

        The guard's budgets are validated at the same point, so a run
        that could never execute is refused before it starts.

        Raises:
            ExecutionError: for an unknown option name, a bad value, or
                a guard with nonsensical budgets.
        """
        unknown = sorted(options.keys() - cls.__dataclass_fields__.keys())
        if unknown:
            raise ExecutionError(
                f"unknown execution option(s) {unknown}; "
                f"expected some of {list(cls.__dataclass_fields__)}"
            )
        built = cls(**options)
        if guard is not None:
            guard.validate()
        return built

    @property
    def lanes(self) -> int:
        """The worker-lane count parallel execution uses."""
        return self.workers if self.workers is not None else DEFAULT_WORKERS


#: The knob declarations, in order (what the CLI and README iterate).
_KNOBS = fields(ExecOptions)


def _satisfies(spec: Any, value: Any) -> bool:
    """Whether ``value`` obeys the rule declared on the field ``spec``."""
    choices, kind = spec.metadata["choices"], spec.metadata["kind"]
    if choices:
        return isinstance(value, str) and value in choices
    if kind is bool:
        return isinstance(value, bool)
    if value is None:
        return spec.default is None
    accepted = (int, float) if kind is float else (int,)
    return isinstance(value, accepted) and not isinstance(value, bool) and value > 0


def valid_values(spec: Any) -> str:
    """The human-readable validity rule of one :class:`ExecOptions` field."""
    choices, kind = spec.metadata["choices"], spec.metadata["kind"]
    if choices:
        quoted = [f'"{choice}"' for choice in choices]
        return f"{', '.join(quoted[:-1])} or {quoted[-1]}"
    if kind is bool:
        return "True or False"
    rule = "a number > 0" if kind is float else "an integer >= 1"
    return f"{rule}, or None" if spec.default is None else rule
