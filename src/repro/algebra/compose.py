"""The compose (positional join) operator (paper Section 2.1).

Compose pairs the records of its two inputs at each position:
``out(i) = in1(i) . in2(i)``, Null if either side is Null.  As the
paper notes, an implementation usefully allows additional join
predicates; ours takes an optional predicate over the concatenated
record.  Attribute name collisions are resolved by per-side prefixes.
"""

from __future__ import annotations

from typing import Optional, Sequence as PySequence

from repro.errors import QueryError
from repro.model.info import SequenceInfo
from repro.model.record import NULL, Record, RecordOrNull
from repro.model.schema import RecordSchema
from repro.model.sequence import Sequence
from repro.model.span import Span
from repro.model.types import AtomType
from repro.algebra.expressions import Expr, StatsLookup
from repro.algebra.node import Operator
from repro.algebra.scope import ScopeSpec


class Compose(Operator):
    """Positional join of two sequences, with an optional predicate."""

    name = "compose"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicate: Optional[Expr] = None,
        prefixes: tuple[Optional[str], Optional[str]] = (None, None),
    ):
        super().__init__((left, right))
        if predicate is not None and not isinstance(predicate, Expr):
            raise QueryError(f"compose predicate must be an Expr, got {predicate!r}")
        self.predicate = predicate
        self.prefixes = prefixes

    def with_inputs(self, inputs: PySequence[Operator]) -> "Compose":
        left, right = inputs
        return Compose(left, right, self.predicate, self.prefixes)

    def _side_schema(self, index: int, schema: RecordSchema) -> RecordSchema:
        prefix = self.prefixes[index]
        return schema.prefixed(prefix) if prefix else schema

    def _infer_schema(self, input_schemas: list[RecordSchema]) -> RecordSchema:
        left = self._side_schema(0, input_schemas[0])
        right = self._side_schema(1, input_schemas[1])
        collisions = left.collisions(right)
        if collisions:
            raise QueryError(
                f"composing these inputs duplicates column name(s) "
                f"{collisions}; add 'as' prefixes to disambiguate"
            )
        return self._typed(left.concat(right))

    def _typed(self, combined: RecordSchema) -> RecordSchema:
        """``combined``, once the predicate (if any) types BOOL over it."""
        if self.predicate is not None:
            if self.predicate.infer_type(combined) is not AtomType.BOOL:
                raise QueryError(
                    f"compose predicate {self.predicate!r} is not boolean"
                )
        return combined

    def with_predicate(self, predicate: Expr) -> "Compose":
        """This compose with ``predicate`` attached, over the same inputs.

        The combined schema this node already derived is type-checked
        against ``predicate`` and shared, not derived a second time.
        """
        combined = self.schema
        op = Compose(self.inputs[0], self.inputs[1], predicate, self.prefixes)
        op._schema_cache = op._typed(combined)
        return op

    def scope_on(self, input_index: int) -> ScopeSpec:
        return ScopeSpec.unit()

    def value_at(self, inputs: list[Sequence], position: int) -> RecordOrNull:
        left = inputs[0].get(position)
        if left is NULL:
            return NULL
        right = inputs[1].get(position)
        if right is NULL:
            return NULL
        combined = Record(self.schema, left.values + right.values)
        if self.predicate is not None and not self.predicate.eval(combined):
            return NULL
        return combined

    def infer_span(self, input_spans: list[Span]) -> Span:
        return input_spans[0].intersect(input_spans[1])

    def required_input_spans(
        self, output_span: Span, input_spans: list[Span]
    ) -> tuple[Span, ...]:
        # This is the heart of the global span optimization (Figure 3):
        # each input only needs the positions the (already intersected)
        # output range can produce.
        return (
            input_spans[0].intersect(output_span),
            input_spans[1].intersect(output_span),
        )

    def infer_density(
        self,
        input_infos: list[SequenceInfo],
        stats: Optional[StatsLookup] = None,
    ) -> float:
        selectivity = (
            self.predicate.selectivity(stats) if self.predicate is not None else 1.0
        )
        return input_infos[0].density * input_infos[1].density * selectivity

    def side_columns(self, input_index: int) -> frozenset[str]:
        """Output-schema column names contributed by one input."""
        schema = self._side_schema(input_index, self.inputs[input_index].schema)
        return frozenset(schema.names)

    def participating_columns(self) -> frozenset[str]:
        """Attributes the join predicate reads (pushdown legality)."""
        return self.predicate.columns() if self.predicate is not None else frozenset()

    def describe(self) -> str:
        pred = f" on {self.predicate!r}" if self.predicate is not None else ""
        return f"compose{pred}"
