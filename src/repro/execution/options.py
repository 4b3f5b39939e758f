"""Execution knobs: declared, defaulted and validated in exactly one place.

Every entry point that executes a plan (``execute_plan``, ``run_query``,
``run_query_detailed``, ``execute_partitioned``) accepts the knobs below
as keywords, builds one frozen :class:`ExecOptions` from them *before
any work or counter mutation happens* (DESIGN §9), and hands that object
to everything underneath — the degradation ladder, the partitioned run
and the flight recorder never see loose knobs and never re-validate.
The CLI flags and the README knob table are derived from
the same field declarations, so a knob's name, default and validity
rule exist once; an API-only knob (``pool``, whose one value is
``"thread"``) has a table row but no flag.
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

#: Partitioned-execution modes: ``"off"`` (default), ``"auto"``
#: (partitioned when certifiable, degrading down the ladder on refusal
#: or runtime failure), and ``"force"`` (partitioned or a typed
#: refusal/failure).
PARALLEL_MODES = ("off", "auto", "force")

#: Accepted ``pool`` values; partitions run on the calling thread
#: whatever it names.
POOL_KINDS = ("thread",)

#: Default partition count when ``parallel`` is requested without
#: ``workers``: one per visible CPU — the process's affinity mask where
#: the platform has one.
DEFAULT_WORKERS = max(
    1,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
)


def _knob(default: Any, *, choices: tuple = (), kind: type = str, help: Optional[str]) -> Any:
    """Declare one knob: its default, its validity rule, its CLI help.

    ``choices`` makes it an enumeration; otherwise ``kind`` is ``bool``
    (a flag) or ``int`` (a positive integer; None is allowed exactly
    when it is the default).  ``help=None`` marks an API-only knob that
    has no command-line flag.
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
        parallel: ``"off"`` executes the plan whole; ``"auto"`` runs a
            partition-certified plan range by range on the calling
            thread and degrades to the whole plan on refusal or an
            internal failure; ``"force"`` raises the typed refusal or
            failure instead of degrading.
        workers: partitions the certified plan is cut into (None: one
            per visible CPU).
        pool: ``"thread"`` is the only value.  API-only: accepted so
            callers that name it keep working.

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
        help="run partition-certified plans range by range: 'auto' "
        "degrades to the unpartitioned plan on refusal or internal "
        "failure, 'force' raises the typed error instead",
    )
    workers: Optional[int] = _knob(
        None,
        kind=int,
        help=f"partitions to certify the plan into (default {DEFAULT_WORKERS}: one per CPU)",
    )
    pool: str = _knob("thread", choices=POOL_KINDS, help=None)

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
    def partitions(self) -> int:
        """The partition count the parallel rung certifies the plan for."""
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
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def valid_values(spec: Any) -> str:
    """The human-readable validity rule of one :class:`ExecOptions` field."""
    choices, kind = spec.metadata["choices"], spec.metadata["kind"]
    if choices:
        quoted = [f'"{choice}"' for choice in choices]
        if len(quoted) == 1:
            return quoted[0]
        return f"{', '.join(quoted[:-1])} or {quoted[-1]}"
    if kind is bool:
        return "True or False"
    return "an integer >= 1, or None" if spec.default is None else "an integer >= 1"
