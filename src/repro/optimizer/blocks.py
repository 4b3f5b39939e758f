"""Query block identification (paper Section 3.1 / Step 4).

Operators of non-unit scope (aggregates, value offsets) cannot commute
with composes or selections, so they cut the query into *blocks*:

* a :class:`UnaryBlock` is a single non-unit-scope operator whose input
  is a lower block;
* a :class:`JoinBlock` is a maximal region of unit-scope operators —
  positional joins plus selections/projections/positional offsets —
  whose inputs are base/constant sequences or lower blocks.  Within a
  join block the positional joins may be reordered (Section 4.1.3).

The block tree is in topological order by construction: a block's
inputs are always lower blocks (Step 4's partial ordering).

Flattening a join block turns selections into block-level predicate
conjuncts and compose predicates likewise; projections and positional
offsets directly above the block root become a final shift and the
final projection to the root's schema.  A compose side with a prefix,
or any deeper structure (a projection above a compose, a nested
non-unit operator), becomes an atomic :class:`BlockInput`, optionally
with a local chain of unit operators over its source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import OptimizerError
from repro.model.schema import RecordSchema
from repro.algebra.aggregate import CumulativeAggregate, GlobalAggregate, WindowAggregate
from repro.algebra.compose import Compose
from repro.algebra.expressions import Expr, conjuncts
from repro.algebra.leaves import ConstantLeaf, SequenceLeaf
from repro.algebra.node import Operator
from repro.algebra.offsets import PositionalOffset, ValueOffset
from repro.algebra.project import Project
from repro.algebra.select import Select

NON_UNIT_SCOPE_OPS = (WindowAggregate, CumulativeAggregate, GlobalAggregate, ValueOffset)
CHAIN_OPS = (Select, Project, PositionalOffset)


@dataclass
class BlockInput:
    """One joinable input of a join block.

    Attributes:
        leaf: the base/constant leaf, when the input is a leaf source.
        source: the lower block, when the input is a derived sequence.
        chain: unit-scope unary operators applied over the source,
            bottom-up (first element applied first).
        prefix: rename prefix applied to the input's output schema at
            the block level (from a compose prefix).
        top: the topmost logical node of this input (pre-prefix); its
            annotation describes the input's span/density.
    """

    top: Operator
    leaf: Optional[Operator] = None
    source: Optional["Block"] = None
    chain: tuple[Operator, ...] = ()
    prefix: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.leaf is None) == (self.source is None):
            raise OptimizerError("block input needs exactly one of leaf/source")

    def block_schema(self) -> RecordSchema:
        """The input's schema as seen at the block level."""
        schema = self.top.schema
        return schema.prefixed(self.prefix) if self.prefix else schema

    def names(self) -> frozenset[str]:
        """Block-level attribute names of this input."""
        return frozenset(self.block_schema().names)

    def describe(self) -> str:
        """One-line rendering: source, chain, prefix."""
        base = self.leaf.describe() if self.leaf is not None else "<block>"
        bits = [base]
        bits.extend(op.describe() for op in self.chain)
        if self.prefix:
            bits.append(f"as {self.prefix}")
        return " | ".join(bits)


@dataclass
class JoinBlock:
    """A maximal unit-scope region: positional joins + filters."""

    root: Operator
    inputs: list[BlockInput]
    predicates: list[Expr]
    post_shift: int = 0

    @property
    def is_join(self) -> bool:
        """Join blocks answer True (UnaryBlock answers False)."""
        return True

    def describe(self) -> str:
        """One-line rendering of inputs, predicates and shift."""
        preds = "; ".join(repr(p) for p in self.predicates) or "true"
        return (
            f"JoinBlock(inputs=[{', '.join(i.describe() for i in self.inputs)}], "
            f"predicates={preds}, shift={self.post_shift:+d})"
        )


@dataclass
class UnaryBlock:
    """A single non-unit-scope operator over a lower block."""

    root: Operator
    child: "Block"

    @property
    def is_join(self) -> bool:
        """Unary (non-unit-scope) blocks answer False."""
        return False

    def describe(self) -> str:
        """One-line rendering of the block's operator."""
        return f"UnaryBlock({self.root.describe()})"


Block = Union[JoinBlock, UnaryBlock]


def _make_input(node: Operator, prefix: Optional[str]) -> BlockInput:
    """An atomic block input: a chain of unit unary ops over a source."""
    chain: list[Operator] = []
    current = node
    while isinstance(current, CHAIN_OPS):
        chain.append(current)
        current = current.inputs[0]
    chain.reverse()
    if isinstance(current, (SequenceLeaf, ConstantLeaf)):
        return BlockInput(top=node, leaf=current, chain=tuple(chain), prefix=prefix)
    return BlockInput(
        top=node, source=build_block(current), chain=tuple(chain), prefix=prefix
    )


def build_block(node: Operator) -> Block:
    """Build the block tree for the subtree rooted at ``node``."""
    if isinstance(node, NON_UNIT_SCOPE_OPS):
        return UnaryBlock(root=node, child=build_block(node.inputs[0]))

    predicates: list[Expr] = []
    inputs: list[BlockInput] = []

    # Peel root-level unit unary operators: selections become block
    # predicates, projections are subsumed by the final projection to
    # the root schema, positional offsets accumulate into a post-shift.
    post_shift = 0
    current = node
    while isinstance(current, CHAIN_OPS):
        if isinstance(current, Select):
            predicates.extend(conjuncts(current.predicate))
        elif isinstance(current, PositionalOffset):
            post_shift += current.offset
        current = current.inputs[0]

    def flatten(sub: Operator, prefix: Optional[str]) -> None:
        if prefix is None and isinstance(sub, Select):
            predicates.extend(conjuncts(sub.predicate))
            flatten(sub.inputs[0], None)
            return
        if prefix is None and isinstance(sub, Compose):
            if sub.predicate is not None:
                predicates.extend(conjuncts(sub.predicate))
            flatten(sub.inputs[0], sub.prefixes[0])
            flatten(sub.inputs[1], sub.prefixes[1])
            return
        inputs.append(_make_input(sub, prefix))

    flatten(current, None)

    seen: set[str] = set()
    for block_input in inputs:
        overlap = seen & block_input.names()
        if overlap:
            raise OptimizerError(
                f"ambiguous attributes {sorted(overlap)} across join-block "
                "inputs; add compose prefixes"
            )
        seen |= block_input.names()

    return JoinBlock(
        root=node, inputs=inputs, predicates=predicates, post_shift=post_shift
    )


def block_tree(root: Operator) -> Block:
    """Public entry point: the block decomposition of a query tree."""
    return build_block(root)


def count_blocks(block: Block) -> int:
    """Total number of blocks in a block tree."""
    if isinstance(block, UnaryBlock):
        return 1 + count_blocks(block.child)
    total = 1
    for block_input in block.inputs:
        if block_input.source is not None:
            total += count_blocks(block_input.source)
    return total


def describe_blocks(block: Block, indent: int = 0) -> str:
    """A tree rendering of the block decomposition."""
    pad = "  " * indent
    if isinstance(block, UnaryBlock):
        return pad + block.describe() + "\n" + describe_blocks(block.child, indent + 1)
    lines = [pad + block.describe()]
    for block_input in block.inputs:
        if block_input.source is not None:
            lines.append(describe_blocks(block_input.source, indent + 1))
    return "\n".join(lines)
