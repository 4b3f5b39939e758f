"""The sequence operator algebra (paper Sections 2.1-2.3)."""

from repro.algebra.aggregate import (
    AGGREGATE_FUNCS,
    CumulativeAggregate,
    GlobalAggregate,
    WindowAggregate,
    apply_aggregate,
    output_type,
)
from repro.algebra.builder import Seq, base, constant
from repro.algebra.equivalence import EquivalenceReport, queries_equivalent
from repro.algebra.compose import Compose
from repro.algebra.expressions import (
    And,
    Arith,
    Cmp,
    Col,
    Expr,
    Lit,
    Not,
    Or,
    col,
    compile_filter,
    compile_rowwise,
    conjoin,
    conjuncts,
    lit,
)
from repro.algebra.graph import Query
from repro.algebra.leaves import ConstantLeaf, SequenceLeaf
from repro.algebra.node import Operator
from repro.algebra.offsets import PositionalOffset, ValueOffset
from repro.algebra.project import Project
from repro.algebra.scope import ScopeSpec
from repro.algebra.select import Select

__all__ = [
    "AGGREGATE_FUNCS",
    "And",
    "Arith",
    "Cmp",
    "EquivalenceReport",
    "Col",
    "Compose",
    "ConstantLeaf",
    "CumulativeAggregate",
    "Expr",
    "GlobalAggregate",
    "Lit",
    "Not",
    "Operator",
    "Or",
    "PositionalOffset",
    "Project",
    "Query",
    "ScopeSpec",
    "Select",
    "Seq",
    "SequenceLeaf",
    "ValueOffset",
    "WindowAggregate",
    "apply_aggregate",
    "base",
    "col",
    "compile_filter",
    "compile_rowwise",
    "conjoin",
    "conjuncts",
    "constant",
    "lit",
    "output_type",
    "queries_equivalent",
]
