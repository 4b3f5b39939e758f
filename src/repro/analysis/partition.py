"""Partition-soundness analysis: certify plans as parallel-decomposable.

The span algebra makes sharding provable: a sequence splits into
disjoint position ranges, and the same scope arithmetic that drives the
optimizer's span restriction (Section 3.2 Step 2.b) computes exactly
which input span each range needs.  This module is the analysis-first
half of partitioned parallel execution — an abstract interpreter over
physical plans that

* derives, per subtree, a **partitioning contract** — ``pointwise``
  (every output reads exactly its own input position), ``windowed``
  (a fixed-size relative scope; sound with a finite halo, Definition
  3.3 / Lemma 3.2), ``order-sensitive`` (data-dependent variable
  scopes, Section 2.3: the positions read depend on the null pattern,
  so no positional cut is sound) or ``blocking`` (``all``/``all_past``
  scopes — cumulative and whole-sequence aggregates need unbounded
  prefixes);
* computes the **exact halo width** each partition boundary needs from
  :meth:`~repro.algebra.scope.ScopeSpec.halo` (window widths and
  offset reaches, composed per Proposition 2.1);
* emits a serializable :class:`PartitionCertificate` listing the cut
  points, per-partition input spans for every plan node, per-boundary
  halo obligations and a position-ordered merge proof.

The analysis is split prover/checker: :func:`certify` produces a
certificate, and the independent :func:`check_certificate` re-derives
every obligation from the plan alone — no prover state is reused — so
a parallel engine can trust certificates it did not produce.  Plans
that cannot be certified are rejected with typed ``PART*`` diagnostics
(:class:`~repro.errors.PartitionSoundnessError`), never silently
partitioned.  Plans carry no contract of their own: the certifier, the
checker and ``repro partition-check`` each derive it from the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Union

from repro.algebra.scope import ScopeSpec
from repro.analysis.base import (
    Certificate,
    CertificateAnalysis,
    CertificateCounters,
    object_entries,
    plan_fingerprint,
    plan_paths,
    root_plan,
)
from repro.analysis.diagnostics import Diagnostic, Severity, VerificationReport
from repro.analysis.effects import analyze_expr, node_expression_sites
from repro.errors import PartitionSoundnessError, ReproError
from repro.model.span import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer
    from repro.optimizer.plans import OptimizedPlan, PhysicalPlan

# -- rule identifiers ---------------------------------------------------------

#: Contract metadata disagrees with the derived contract (or is malformed).
PART_CONTRACT = "PART-CONTRACT"
#: A declared halo is narrower than the composed scope requires.
PART_HALO = "PART-HALO"
#: An order-sensitive (variable-scope) operator sits above a cut.
PART_ORDER = "PART-ORDER"
#: A blocking (``all``/``all_past``-scope) aggregate sits above a cut.
PART_BLOCKING = "PART-BLOCKING"
#: Cut points / partition windows do not tile the output span.
PART_COVER = "PART-COVER"

#: All partition rule identifiers, in severity-triage order.
PART_RULES = (PART_CONTRACT, PART_HALO, PART_ORDER, PART_BLOCKING, PART_COVER)

#: What every PART-HALO finding cites.
_HALO_CITATION = "Def 3.3 / Lem 3.2"

# -- contract kinds -----------------------------------------------------------

POINTWISE = "pointwise"
WINDOWED = "windowed"
ORDER_SENSITIVE = "order-sensitive"
BLOCKING = "blocking"

#: Every contract kind, from most to least decomposable.
CONTRACT_KINDS = (POINTWISE, WINDOWED, ORDER_SENSITIVE, BLOCKING)


@dataclass
class PartitionCounters(CertificateCounters):
    """Counters of partition-analysis work.

    Attributes:
        partitions_certified: partition ranges covered by issued
            certificates (sum of partition counts).
    """

    partitions_certified: int = 0


#: Module-level default counters; read them out with
#: ``repro.obs.metrics.collect(partition=PARTITION_COUNTERS)``.
PARTITION_COUNTERS = PartitionCounters()


# -- span (de)serialization ---------------------------------------------------


def span_to_json(span: Span) -> dict[str, object]:
    """A JSON-friendly dict of one span (``None`` bounds stay ``null``)."""
    if span.is_empty:
        return {"empty": True}
    return {"start": span.start, "end": span.end}


def span_from_json(data: Mapping[str, object]) -> Span:
    """Rebuild a span from :func:`span_to_json` output."""
    if not isinstance(data, Mapping):
        raise ReproError(f"span must be an object, got {data!r}")
    if data.get("empty"):
        return Span.EMPTY
    start = data.get("start")
    end = data.get("end")
    if start is not None and not isinstance(start, int):
        raise ReproError(f"span start must be int or null, got {start!r}")
    if end is not None and not isinstance(end, int):
        raise ReproError(f"span end must be int or null, got {end!r}")
    return Span(start, end)


# -- the partitioning contract ------------------------------------------------


@dataclass(frozen=True)
class PartitionContract:
    """The partitioning behaviour of one plan subtree.

    Attributes:
        kind: one of :data:`CONTRACT_KINDS`.
        halo_below: positions before a cut the right-hand partition
            must also read (``None`` when unbounded).
        halo_above: positions after a cut the left-hand partition must
            also read (``None`` when unbounded).
    """

    kind: str
    halo_below: Optional[int] = 0
    halo_above: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.kind not in CONTRACT_KINDS:
            raise ReproError(f"unknown partition contract kind {self.kind!r}")

    @property
    def is_decomposable(self) -> bool:
        """Whether a finite halo makes positional cuts sound."""
        return self.kind in (POINTWISE, WINDOWED)

    def to_dict(self) -> dict[str, object]:
        """A JSON-serializable dict of this contract."""
        return {
            "kind": self.kind,
            "halo_below": self.halo_below,
            "halo_above": self.halo_above,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "PartitionContract":
        """Rebuild a contract from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise ReproError(f"contract must be an object, got {data!r}")
        kind = data.get("kind")
        if not isinstance(kind, str):
            raise ReproError(f"contract kind must be a string, got {kind!r}")
        below = data.get("halo_below")
        above = data.get("halo_above")
        if below is not None and not isinstance(below, int):
            raise ReproError(f"halo_below must be int or null, got {below!r}")
        if above is not None and not isinstance(above, int):
            raise ReproError(f"halo_above must be int or null, got {above!r}")
        return PartitionContract(kind, below, above)

    @staticmethod
    def of_scopes(scopes: "list[ScopeSpec]") -> "PartitionContract":
        """Classify the composed leaf scopes of one subtree.

        Any ``all``/``all_past`` participant makes the subtree
        blocking; otherwise any variable scope makes it
        order-sensitive; otherwise the halo is the componentwise
        maximum of the relative scopes' lookback/lookahead, and the
        subtree is pointwise exactly when that maximum is ``(0, 0)``.
        """
        kinds = {scope.kind for scope in scopes}
        below: Optional[int] = 0
        above: Optional[int] = 0
        for scope in scopes:
            below = _halo_max(below, scope.lookback())
            above = _halo_max(above, scope.lookahead())
        if kinds & {"all", "all_past"}:
            return PartitionContract(BLOCKING, below, above)
        if kinds & {"variable_past", "variable_future"}:
            return PartitionContract(ORDER_SENSITIVE, below, above)
        if below == 0 and above == 0:
            return PartitionContract(POINTWISE, 0, 0)
        return PartitionContract(WINDOWED, below, above)


def _halo_max(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The larger of two halo widths, where ``None`` means unbounded."""
    if a is None or b is None:
        return None
    return max(a, b)


# -- the physical scope table -------------------------------------------------


def plan_scope_on(plan: "PhysicalPlan", index: int) -> Optional[ScopeSpec]:
    """The scope of a physical plan node on its ``index``-th child.

    This is the physical counterpart of
    :meth:`~repro.algebra.node.Operator.scope_on`: it describes which
    child positions each builder/prober actually reads per output
    position, per plan kind.  ``None`` means the kind is unknown to the
    analysis, which callers must treat as unanalyzable (conservatively
    blocking).
    """
    from repro.algebra.aggregate import WindowAggregate
    from repro.algebra.offsets import ValueOffset

    kind = plan.kind
    if kind in ("scan", "probe-source"):
        raise ReproError("a leaf plan has no inputs and hence no scope")
    if kind == "chain":
        shift = sum(step.offset for step in plan.steps if step.kind == "shift")
        return _UNIT_SCOPE if shift == 0 else ScopeSpec.shifted(shift)
    if kind in ("lockstep", "stream-probe", "probe-stream", "probe-join"):
        return _UNIT_SCOPE
    if kind == "window-agg":
        node = plan.node
        if isinstance(node, WindowAggregate):
            return ScopeSpec.window(node.width)
        return None
    if kind == "value-offset":
        node = plan.node
        if isinstance(node, ValueOffset):
            return node.scope_on(0)
        return None
    if kind == "cumulative-agg":
        return ScopeSpec.all_past()
    if kind == "global-agg":
        return ScopeSpec.everything()
    return None


#: Shared unit scope — the hottest allocation on the analysis path.
_UNIT_SCOPE = ScopeSpec.unit()

#: Per-node child scopes, keyed by ``id(node)``.
_EdgeScopes = dict[int, tuple[Optional[ScopeSpec], ...]]


def edge_scopes(root: "PhysicalPlan") -> _EdgeScopes:
    """Every node's per-child scope, computed once per analysis.

    The abstract interpretation walks the tree several times (contract
    derivation, classification, one span-assignment pass per
    partition); caching the edge scopes keeps the per-partition passes
    to pure span arithmetic.
    """
    return {
        id(node): tuple(
            plan_scope_on(node, index) for index in range(len(node.children))
        )
        for node in root.walk()
    }


def leaf_scopes(
    plan: "PhysicalPlan", paths: Mapping[int, str], edges: _EdgeScopes
) -> dict[str, ScopeSpec]:
    """The composed scope of ``plan``'s subtree on each leaf, by path.

    The physical analogue of
    :meth:`~repro.algebra.node.Operator.query_scope_on_leaves`:
    Proposition 2.1 composition (Minkowski sums of relative offset
    sets) applied along every root-to-leaf path of the plan tree.

    Raises:
        ReproError: when a plan kind is unknown to the scope table.
    """
    if not plan.children:
        return {paths[id(plan)]: _UNIT_SCOPE}
    composed: dict[str, ScopeSpec] = {}
    for child, outer in zip(plan.children, edges[id(plan)]):
        if outer is None:
            raise ReproError(
                f"plan kind {plan.kind!r} is unknown to the partition "
                "scope table"
            )
        for path, inner in leaf_scopes(child, paths, edges).items():
            composed[path] = outer.compose(inner)
    return composed


def _leaf_scope_values(node: "PhysicalPlan", edges: _EdgeScopes) -> list[ScopeSpec]:
    """Composed leaf scopes without path bookkeeping (contract fast path)."""
    if not node.children:
        return [_UNIT_SCOPE]
    values: list[ScopeSpec] = []
    node_edges = edges[id(node)]
    for index, child in enumerate(node.children):
        outer = node_edges[index]
        if outer is None:
            raise ReproError(
                f"plan kind {node.kind!r} is unknown to the partition "
                "scope table"
            )
        if outer.is_unit:
            values.extend(_leaf_scope_values(child, edges))
        else:
            values.extend(
                outer.compose(inner)
                for inner in _leaf_scope_values(child, edges)
            )
    return values


def derive_contract(plan: "Union[PhysicalPlan, OptimizedPlan]") -> PartitionContract:
    """The partitioning contract of a whole plan tree.

    Unknown plan kinds classify as blocking — the analysis never
    certifies what it cannot model.
    """
    root = root_plan(plan)
    return _derive(root, edge_scopes(root))


def _derive(root: "PhysicalPlan", edges: _EdgeScopes) -> PartitionContract:
    try:
        scopes = _leaf_scope_values(root, edges)
    except ReproError:
        return PartitionContract(BLOCKING, None, None)
    return PartitionContract.of_scopes(scopes)


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class PartitionRange:
    """One certified partition: an output window plus its input spans.

    Attributes:
        index: 0-based partition number, in position order.
        window: the output positions this partition produces.
        node_spans: for every plan node (by path), the span the
            narrowed per-partition subplan must carry — already halo
            widened and clamped to the node's own span.
        leaf_spans: the subset of ``node_spans`` for leaf access nodes
            (``scan`` / ``probe-source``): the exact stored-sequence
            ranges this partition reads.
    """

    index: int
    window: Span
    node_spans: dict[str, Span] = field(default_factory=dict)
    leaf_spans: dict[str, Span] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """A JSON-serializable dict of this partition."""
        return {
            "index": self.index,
            "window": span_to_json(self.window),
            "node_spans": {
                path: span_to_json(span) for path, span in self.node_spans.items()
            },
            "leaf_spans": {
                path: span_to_json(span) for path, span in self.leaf_spans.items()
            },
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "PartitionRange":
        """Rebuild a partition from :meth:`to_dict` output."""
        index = data.get("index")
        if not isinstance(index, int):
            raise ReproError(f"partition index must be int, got {index!r}")
        window = data.get("window")
        node_spans = data.get("node_spans")
        leaf_spans = data.get("leaf_spans")
        if not isinstance(window, Mapping):
            raise ReproError("partition window must be a span object")
        if not isinstance(node_spans, Mapping) or not isinstance(leaf_spans, Mapping):
            raise ReproError("partition spans must be path -> span mappings")
        return PartitionRange(
            index=index,
            window=span_from_json(window),
            node_spans={
                str(path): span_from_json(span) for path, span in node_spans.items()
            },
            leaf_spans={
                str(path): span_from_json(span) for path, span in leaf_spans.items()
            },
        )


@dataclass(frozen=True)
class HaloObligation:
    """The overlap one partition boundary imposes on one leaf.

    Attributes:
        cut: the first output position of the right-hand partition.
        path: the leaf plan node the obligation applies to.
        below: leaf positions before the mapped cut the right partition
            must also read (composed-scope lookback).
        above: leaf positions at/after the mapped cut the left
            partition must also read (composed-scope lookahead).
        span: the exact overlap of the two adjacent partitions' leaf
            spans (empty when the composed scope is a pure shift).
    """

    cut: int
    path: str
    below: int
    above: int
    span: Span

    def to_dict(self) -> dict[str, object]:
        """A JSON-serializable dict of this obligation."""
        return {
            "cut": self.cut,
            "path": self.path,
            "below": self.below,
            "above": self.above,
            "span": span_to_json(self.span),
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "HaloObligation":
        """Rebuild an obligation from :meth:`to_dict` output."""
        cut = data.get("cut")
        path = data.get("path")
        below = data.get("below")
        above = data.get("above")
        span = data.get("span")
        if not isinstance(cut, int) or not isinstance(path, str):
            raise ReproError("halo obligation needs an int cut and a str path")
        if not isinstance(below, int) or not isinstance(above, int):
            raise ReproError("halo obligation widths must be ints")
        if not isinstance(span, Mapping):
            raise ReproError("halo obligation span must be a span object")
        return HaloObligation(cut, path, below, above, span_from_json(span))


@dataclass(frozen=True)
class MergeProof:
    """Why concatenating partition outputs in order is the exact answer.

    The windows are pairwise disjoint, contiguous and in ascending
    position order, and together cover exactly ``covers`` — so the
    position-ordered concatenation of the per-partition answers equals
    the unpartitioned answer over ``covers``.  The booleans are
    *checked* facts, recomputed by :func:`check_certificate`.
    """

    windows: tuple[Span, ...]
    ascending: bool
    disjoint: bool
    contiguous: bool
    covers: Span

    def to_dict(self) -> dict[str, object]:
        """A JSON-serializable dict of this proof."""
        return {
            "order": "position",
            "windows": [span_to_json(window) for window in self.windows],
            "ascending": self.ascending,
            "disjoint": self.disjoint,
            "contiguous": self.contiguous,
            "covers": span_to_json(self.covers),
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "MergeProof":
        """Rebuild a proof from :meth:`to_dict` output."""
        windows = data.get("windows")
        covers = data.get("covers")
        if not isinstance(windows, list) or not isinstance(covers, Mapping):
            raise ReproError("merge proof needs a windows list and a covers span")
        return MergeProof(
            windows=tuple(span_from_json(window) for window in windows),
            ascending=bool(data.get("ascending")),
            disjoint=bool(data.get("disjoint")),
            contiguous=bool(data.get("contiguous")),
            covers=span_from_json(covers),
        )


@dataclass(frozen=True)
class PartitionCertificate(Certificate):
    """A machine-checkable proof that a plan is parallel-decomposable.

    Attributes:
        fingerprint: structural hash of the plan the certificate was
            issued for (:func:`plan_fingerprint`).
        parts: number of partitions.
        root_span: the output span the partitions tile.
        cut_points: first output position of partitions ``1..P-1``.
        contract: the derived root contract (kind + exact halo).
        partitions: the per-partition windows and input spans.
        halo_obligations: per cut x leaf overlap obligations.
        merge: the position-ordered merge proof.
    """

    fingerprint: str
    parts: int
    root_span: Span
    cut_points: tuple[int, ...]
    contract: PartitionContract
    partitions: tuple[PartitionRange, ...]
    halo_obligations: tuple[HaloObligation, ...]
    merge: MergeProof
    version: int = 1

    def to_dict(self) -> dict[str, object]:
        """A JSON-serializable dict of the whole certificate."""
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "parts": self.parts,
            "root_span": span_to_json(self.root_span),
            "cut_points": list(self.cut_points),
            "contract": self.contract.to_dict(),
            "partitions": [partition.to_dict() for partition in self.partitions],
            "halo_obligations": [ob.to_dict() for ob in self.halo_obligations],
            "merge": self.merge.to_dict(),
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "PartitionCertificate":
        """Rebuild a certificate from :meth:`to_dict` output."""
        fingerprint = data.get("fingerprint")
        parts = data.get("parts")
        root_span = data.get("root_span")
        cut_points = data.get("cut_points")
        contract = data.get("contract")
        partitions = data.get("partitions")
        obligations = data.get("halo_obligations")
        merge = data.get("merge")
        if not isinstance(fingerprint, str) or not isinstance(parts, int):
            raise ReproError("certificate needs a str fingerprint and int parts")
        if not isinstance(root_span, Mapping) or not isinstance(contract, Mapping):
            raise ReproError("certificate needs root_span and contract objects")
        if (
            not isinstance(cut_points, list)
            or not isinstance(partitions, list)
            or not isinstance(obligations, list)
            or not isinstance(merge, Mapping)
        ):
            raise ReproError("certificate lists/merge proof are malformed")
        if not all(isinstance(point, int) for point in cut_points):
            raise ReproError(f"certificate cut points must be ints, got {cut_points!r}")
        version = data.get("version")
        return PartitionCertificate(
            fingerprint=fingerprint,
            parts=parts,
            root_span=span_from_json(root_span),
            cut_points=tuple(cut_points),
            contract=PartitionContract.from_dict(contract),
            partitions=tuple(
                PartitionRange.from_dict(partition)
                for partition in object_entries(partitions, "certificate partitions")
            ),
            halo_obligations=tuple(
                HaloObligation.from_dict(ob)
                for ob in object_entries(obligations, "certificate halo obligations")
            ),
            merge=MergeProof.from_dict(merge),
            version=version if isinstance(version, int) else 1,
        )


# -- the shared comparisons ---------------------------------------------------


def _error(
    report: VerificationReport,
    message: str,
    path: str = "root",
    rule: str = PART_COVER,
    citation: str = "Sec 3.2",
) -> None:
    """Add one error finding (a PART-COVER tiling finding by default)."""
    report.add(Diagnostic(rule, Severity.ERROR, path, message, citation))


def _expression_findings(
    root: "PhysicalPlan", paths: Mapping[int, str]
) -> Iterator[Diagnostic]:
    """Predicates whose re-evaluation per partition is not provably sound.

    Discharges the certifier's determinism assumption: re-running a
    partition's subplan must recompute the same answer, so every
    predicate must be provably pure and deterministic.  An expression
    outside the modeled effect language (a custom ``Expr`` subclass)
    refuses the whole plan.
    """
    for node in root.walk():
        for key, expr, schema in node_expression_sites(node):
            spec = analyze_expr(expr, schema)
            if spec.is_unknown:
                why = (
                    "is outside the modeled effect language: its purity and "
                    "determinism cannot be certified, so re-evaluating it per "
                    "partition is not provably sound"
                )
            elif not (spec.pure and spec.deterministic):
                why = (
                    "is not certified pure and deterministic; partitions "
                    "re-evaluating it could disagree with the sequential answer"
                )
            else:
                continue
            yield Diagnostic(
                PART_CONTRACT, Severity.ERROR, f"{paths[id(node)]}#{key}",
                f"expression {expr!r} {why}", "Sec 3.1",
            )


def _node_findings(
    root: "PhysicalPlan", paths: Mapping[int, str], edges: _EdgeScopes
) -> Iterator[Diagnostic]:
    """Unknown, order-sensitive and blocking nodes.

    Every interior node sits above every cut (the cuts tile the whole
    root output), so one such operator anywhere already makes every
    positional cut unsound.
    """
    for node in root.walk():
        path = paths[id(node)]
        for scope in edges[id(node)]:
            if scope is None:
                yield Diagnostic(
                    PART_CONTRACT, Severity.ERROR, path,
                    f"plan kind {node.kind!r} is unknown to the partition "
                    "analysis; conservatively blocking",
                    "Sec 2.3",
                )
            elif scope.kind in ("all", "all_past"):
                yield Diagnostic(
                    PART_BLOCKING, Severity.ERROR, path,
                    f"blocking {node.kind} ({scope.kind} scope) above a "
                    "partition cut: every output needs an unbounded input "
                    "prefix, so no finite halo makes a positional cut sound",
                    "Sec 2.3 / Sec 4.1.3",
                )
            elif scope.kind in ("variable_past", "variable_future"):
                yield Diagnostic(
                    PART_ORDER, Severity.ERROR, path,
                    f"order-sensitive {node.kind} ({scope.kind} scope, "
                    f"reach {scope.reach}) above a partition cut: the "
                    "positions it reads depend on the data's null "
                    "pattern, so no static halo bounds a cut",
                    "Sec 2.3",
                )


def contract_findings(
    root: "PhysicalPlan",
    claimed: PartitionContract,
    paths: Mapping[int, str],
    edges: _EdgeScopes,
) -> Iterator[Diagnostic]:
    """A certificate's claimed contract against the one scope composition derives.

    A decomposable claim over a plan with an unknown, order-sensitive or
    blocking node is refuted by that node (PART-CONTRACT / PART-ORDER /
    PART-BLOCKING); otherwise the claimed kind must be the derived kind
    (PART-CONTRACT) and the claimed halo must cover the derived one
    (PART-HALO) — an understated halo is the quiet failure of
    partitioning: a window crossing a cut reads nulls where its
    neighbours should be, and every partition still runs.
    """
    path = paths[id(root)]
    if claimed.is_decomposable:
        refuted = list(_node_findings(root, paths, edges))
        if refuted:
            yield from refuted
            return
    derived = _derive(root, edges)
    if claimed.kind != derived.kind:
        yield Diagnostic(
            PART_CONTRACT, Severity.ERROR, path,
            f"plan claims a {claimed.kind!r} partitioning contract but scope "
            f"composition derives {derived.kind!r}",
            "Prop 2.1 / Sec 2.3",
        )
    if derived.is_decomposable and (
        _halo_understated(claimed.halo_below, derived.halo_below)
        or _halo_understated(claimed.halo_above, derived.halo_above)
    ):
        yield Diagnostic(
            PART_HALO, Severity.ERROR, path,
            f"claimed halo (below={claimed.halo_below}, "
            f"above={claimed.halo_above}) understates the derived halo "
            f"(below={derived.halo_below}, above={derived.halo_above})",
            _HALO_CITATION,
        )


def _halo_understated(claimed: Optional[int], derived: Optional[int]) -> bool:
    """Whether a claimed halo width is below the derived requirement."""
    if derived is None:
        return claimed is not None
    if claimed is None:
        return False  # unbounded claim covers any finite requirement
    return claimed < derived


# -- the prover ---------------------------------------------------------------


def _tile_windows(root_span: Span, parts: int) -> list[Span]:
    """Split a bounded non-empty span into ``parts`` contiguous windows."""
    length = root_span.length()
    assert length is not None and root_span.start is not None
    base, extra = divmod(length, parts)
    windows: list[Span] = []
    start = root_span.start
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        windows.append(Span(start, start + size - 1))
        start += size
    return windows


def _assign_spans(
    node: "PhysicalPlan",
    window: Span,
    paths: Mapping[int, str],
    node_spans: dict[str, Span],
    leaf_spans: dict[str, Span],
    edges: _EdgeScopes,
) -> None:
    """Top-down needed-span propagation for one partition window.

    The same restriction the optimizer's Step 2.b performs on the
    logical graph, replayed over the physical tree: each node must
    produce ``window`` clamped to its own span, and each child must
    provide the scope-required input window for that.
    """
    mine = window.intersect(node.span)
    node_spans[paths[id(node)]] = mine
    if not node.children:
        leaf_spans[paths[id(node)]] = mine
        return
    for child, scope in zip(node.children, edges[id(node)]):
        assert scope is not None  # unknown kinds were rejected earlier
        required = mine if scope.is_unit else scope.required_window(mine)
        _assign_spans(child, required, paths, node_spans, leaf_spans, edges)


def _prove(
    root: "PhysicalPlan",
    report: VerificationReport,
    counters: PartitionCounters,
    parts: int,
    span: Optional[Span],
) -> Optional[PartitionCertificate]:
    """The certificate for ``parts`` ranges of ``span``, or None on findings."""
    paths = plan_paths(root)
    root_path = paths[id(root)]
    root_span = root.span if span is None else span.intersect(root.span)
    if not root_span.is_bounded or root_span.is_empty:
        _error(
            report,
            f"cannot partition output span {root_span}: cut points need a "
            "bounded, non-empty position range",
            root_path,
        )
    length = root_span.length()
    if not isinstance(parts, int) or isinstance(parts, bool) or parts < 1:
        _error(
            report, f"partition count must be a positive integer, got {parts!r}", root_path
        )
    elif length is not None and length > 0 and parts > length:
        _error(
            report,
            f"cannot cut {length} output position(s) into {parts} non-empty partitions",
            root_path,
        )
    edges = edge_scopes(root)
    report.diagnostics.extend(_expression_findings(root, paths))
    report.diagnostics.extend(_node_findings(root, paths, edges))
    if not report.ok:
        return None

    composed = leaf_scopes(root, paths, edges)
    windows = _tile_windows(root_span, parts)
    partitions: list[PartitionRange] = []
    for index, window in enumerate(windows):
        node_spans: dict[str, Span] = {}
        leaf_span_map: dict[str, Span] = {}
        _assign_spans(root, window, paths, node_spans, leaf_span_map, edges)
        partitions.append(PartitionRange(index, window, node_spans, leaf_span_map))

    obligations: list[HaloObligation] = []
    leaf_plan_spans = {
        paths[id(node)]: node.span for node in root.walk() if not node.children
    }
    for window in windows[1:]:
        assert window.start is not None
        cut = window.start
        for path, scope in sorted(composed.items()):
            lo, hi = min(scope.offsets), max(scope.offsets)
            overlap = Span(cut + lo, cut - 1 + hi).intersect(
                leaf_plan_spans.get(path, Span.ALL)
            )
            obligations.append(HaloObligation(cut, path, max(0, -lo), max(0, hi), overlap))

    counters.partitions_certified += parts
    return PartitionCertificate(
        fingerprint=plan_fingerprint(root),
        parts=parts,
        root_span=root_span,
        cut_points=tuple(
            window.start for window in windows[1:] if window.start is not None
        ),
        contract=PartitionContract.of_scopes(list(composed.values())),
        partitions=tuple(partitions),
        halo_obligations=tuple(obligations),
        merge=MergeProof(tuple(windows), True, True, True, root_span),
    )


#: The prover/checker frame: spans, reports, counters, typed errors.
_FRAME = CertificateAnalysis(
    name="partition",
    noun="partition",
    rules=PART_RULES,
    refusal="plan is not parallel-decomposable",
    error=PartitionSoundnessError,
    fingerprint_rule=PART_CONTRACT,
    citation="Prop 2.1",
    counters=PARTITION_COUNTERS,
)


def analyze_partition(
    plan: "Union[PhysicalPlan, OptimizedPlan]",
    parts: int,
    span: Optional[Span] = None,
    *,
    counters: Optional[PartitionCounters] = None,
    tracer: "Optional[Tracer]" = None,
) -> tuple[Optional[PartitionCertificate], VerificationReport]:
    """Derive a partition certificate, or the diagnostics refusing one.

    Args:
        plan: the stream-mode physical plan (or optimizer output).
        parts: requested partition count.
        span: output span to tile; defaults to the plan's own span.
        counters: partition counters to charge (module default if
            omitted).
        tracer: optional span tracer; when active the analysis records
            a ``partition-certify`` span.

    Returns:
        ``(certificate, report)`` — the certificate is ``None`` exactly
        when the report carries error findings.
    """
    return _FRAME.prove(
        plan,
        lambda root, report, charged: _prove(root, report, charged, parts, span),
        counters,
        tracer,
        parts=parts,
    )


def certify(
    plan: "Union[PhysicalPlan, OptimizedPlan]",
    parts: int,
    span: Optional[Span] = None,
    *,
    counters: Optional[PartitionCounters] = None,
    tracer: "Optional[Tracer]" = None,
) -> PartitionCertificate:
    """Prove a plan parallel-decomposable into ``parts`` ranges.

    Raises:
        PartitionSoundnessError: when the plan cannot be certified; the
            error's report carries the typed ``PART*`` findings.
    """
    return _FRAME.certify(
        analyze_partition(plan, parts, span, counters=counters, tracer=tracer)
    )


# -- the independent checker --------------------------------------------------


def _check_cover(
    cert: PartitionCertificate, root: "PhysicalPlan", report: VerificationReport
) -> None:
    """Re-verify the tiling and the merge proof (PART-COVER)."""
    if not root.span.covers(cert.root_span):
        _error(
            report,
            f"certificate root span {cert.root_span} is not contained in the "
            f"plan span {root.span}",
        )
    if cert.parts != len(cert.partitions) or cert.parts < 1:
        _error(
            report,
            f"certificate declares {cert.parts} partition(s) but lists "
            f"{len(cert.partitions)}",
        )
        return
    windows = [partition.window for partition in cert.partitions]
    previous_end: Optional[int] = None
    tiled = True
    for index, window in enumerate(windows):
        if window.is_empty or window.start is None or window.end is None:
            _error(report, f"partition {index} window {window} is empty or unbounded")
            tiled = False
            continue
        if previous_end is not None and window.start != previous_end + 1:
            _error(
                report,
                f"partition {index} starts at {window.start}, expected "
                f"{previous_end + 1}: windows must be ascending, disjoint and "
                "contiguous",
            )
            tiled = False
        previous_end = window.end
    if tiled and windows:
        first, last = windows[0], windows[-1]
        if first.start != cert.root_span.start or last.end != cert.root_span.end:
            _error(
                report,
                f"partition windows cover [{first.start}, {last.end}] but the "
                f"certificate claims {cert.root_span}",
            )
    expected_cuts = tuple(
        window.start for window in windows[1:] if window.start is not None
    )
    if cert.cut_points != expected_cuts:
        _error(
            report,
            f"cut points {list(cert.cut_points)} disagree with the partition "
            f"windows (expected {list(expected_cuts)})",
        )
    if not (cert.merge.ascending and cert.merge.disjoint and cert.merge.contiguous):
        _error(
            report,
            "merge proof does not assert ascending + disjoint + contiguous windows",
        )
    if cert.merge.covers != cert.root_span or cert.merge.windows != tuple(windows):
        _error(report, "merge proof windows/coverage disagree with the partition list")


def _check_node_spans(
    node: "PhysicalPlan",
    granted: Span,
    partition: PartitionRange,
    paths: Mapping[int, str],
    report: VerificationReport,
    edges: _EdgeScopes,
) -> None:
    """Re-verify one partition's input spans bottom of one subtree.

    ``granted`` is the span the certificate records for ``node``; the
    certificate is sound if every child's recorded span covers what the
    node's scope requires to produce ``granted``.
    """
    path = paths[id(node)]
    for index, child in enumerate(node.children):
        child_path = paths[id(child)]
        recorded = partition.node_spans.get(child_path)
        if recorded is None:
            _error(
                report,
                f"partition {partition.index}: certificate records no input "
                "span for this node",
                child_path,
            )
            continue
        scope = edges[id(node)][index]
        if scope is None:
            continue  # already reported by the classification pass
        required = scope.required_window(granted).intersect(child.span)
        if not recorded.covers(required):
            _error(
                report,
                f"partition {partition.index}: producing {granted} needs input "
                f"span {required} from child {index}, but the certificate "
                f"grants only {recorded} — the halo at the cut is understated",
                path, PART_HALO, _HALO_CITATION,
            )
        _check_node_spans(child, recorded, partition, paths, report, edges)


def _check_halo_obligations(
    cert: PartitionCertificate,
    root: "PhysicalPlan",
    paths: Mapping[int, str],
    report: VerificationReport,
    edges: _EdgeScopes,
) -> None:
    """Re-verify the per-cut leaf obligations against composed scopes."""
    composed = leaf_scopes(root, paths, edges)
    recorded: dict[tuple[int, str], HaloObligation] = {
        (ob.cut, ob.path): ob for ob in cert.halo_obligations
    }
    for window in [partition.window for partition in cert.partitions][1:]:
        if window.start is None:
            continue
        cut = window.start
        for path, scope in composed.items():
            below = scope.lookback()
            above = scope.lookahead()
            obligation = recorded.get((cut, path))
            if obligation is None:
                _error(
                    report,
                    f"certificate records no halo obligation for leaf at cut {cut}",
                    path, PART_HALO, _HALO_CITATION,
                )
                continue
            if (
                below is None
                or above is None
                or obligation.below < below
                or obligation.above < above
            ):
                _error(
                    report,
                    f"halo obligation at cut {cut} grants (below={obligation.below}, "
                    f"above={obligation.above}) but the composed scope needs "
                    f"(below={below}, above={above}) — understated halo",
                    path, PART_HALO, _HALO_CITATION,
                )
            elif obligation.below > below or obligation.above > above:
                report.add(
                    Diagnostic(
                        PART_HALO, Severity.WARNING, path,
                        f"halo obligation at cut {cut} overstates the "
                        f"composed requirement (below={below}, above={above}):"
                        " sound, but the partitions read more overlap than "
                        "the exact halo",
                        _HALO_CITATION,
                    )
                )


def _compare(
    root: "PhysicalPlan",
    cert: PartitionCertificate,
    report: VerificationReport,
    _counters: PartitionCounters,
) -> None:
    """Every certificate obligation against the plan (fingerprint matched)."""
    paths = plan_paths(root)
    edges = edge_scopes(root)
    report.diagnostics.extend(_expression_findings(root, paths))
    root_path = paths[id(root)]
    if cert.contract.is_decomposable:
        report.diagnostics.extend(contract_findings(root, cert.contract, paths, edges))
    else:
        _error(
            report,
            f"certificate claims a {cert.contract.kind!r} contract, under which "
            "no positional cut is sound",
            root_path, PART_CONTRACT, "Sec 2.3",
        )
    if not report.ok:
        return
    _check_cover(cert, root, report)
    for partition in cert.partitions:
        granted_root = partition.node_spans.get(root_path)
        required_root = partition.window.intersect(root.span)
        if granted_root is None or not granted_root.covers(required_root):
            _error(
                report,
                f"partition {partition.index}: the root must produce "
                f"{required_root} but the certificate records {granted_root}",
                root_path,
            )
            continue
        _check_node_spans(root, granted_root, partition, paths, report, edges)
    _check_halo_obligations(cert, root, paths, report, edges)


def check_certificate(
    plan: "Union[PhysicalPlan, OptimizedPlan]",
    cert: PartitionCertificate,
    *,
    counters: Optional[PartitionCounters] = None,
    tracer: "Optional[Tracer]" = None,
) -> VerificationReport:
    """Independently re-verify every certificate obligation.

    Recomputes everything from ``plan`` and ``cert`` alone — contract
    classification, scope-required input spans, halo widths, tiling and
    merge proof — sharing no state with the prover, so certificates
    from untrusted producers are safe to check before use.
    """
    return _FRAME.check(plan, cert, _compare, counters, tracer, parts=cert.parts)


def require_certificate(
    plan: "Union[PhysicalPlan, OptimizedPlan]",
    cert: PartitionCertificate,
    *,
    counters: Optional[PartitionCounters] = None,
    tracer: "Optional[Tracer]" = None,
) -> PartitionCertificate:
    """Check a certificate and raise on any error finding.

    Raises:
        PartitionSoundnessError: when re-verification fails.
    """
    return _FRAME.require(
        check_certificate(plan, cert, counters=counters, tracer=tracer), cert
    )
