"""The projection operator (paper Section 2.1).

Projection keeps a subset of the attributes at each position; the
projection of a Null record is Null.  Unit scope.
"""

from __future__ import annotations

from typing import Optional, Sequence as PySequence

from repro.errors import QueryError, SchemaError
from repro.model.info import SequenceInfo
from repro.model.record import NULL, Record, RecordOrNull
from repro.model.schema import RecordSchema
from repro.model.sequence import Sequence
from repro.model.span import Span
from repro.algebra.expressions import StatsLookup
from repro.algebra.node import Operator
from repro.algebra.scope import ScopeSpec


class Project(Operator):
    """Restrict each record to the attributes in ``names`` (in order)."""

    name = "project"

    def __init__(self, input_node: Operator, names: PySequence[str]):
        super().__init__((input_node,))
        names = tuple(names)
        if not names:
            raise QueryError("projection needs at least one attribute")
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate attributes in projection: {names}")
        self.names = names

    def with_inputs(self, inputs: PySequence[Operator]) -> "Project":
        (child,) = inputs
        return Project(child, self.names)

    def _infer_schema(self, input_schemas: list[RecordSchema]) -> RecordSchema:
        (schema,) = input_schemas
        try:
            return schema.project(self.names)
        except SchemaError as exc:
            raise QueryError(str(exc)) from exc

    def scope_on(self, input_index: int) -> ScopeSpec:
        return ScopeSpec.unit()

    def value_at(self, inputs: list[Sequence], position: int) -> RecordOrNull:
        record = inputs[0].get(position)
        if record is NULL:
            return NULL
        return Record(self.schema, tuple(record.get(name) for name in self.names))

    def infer_span(self, input_spans: list[Span]) -> Span:
        return input_spans[0]

    def required_input_spans(
        self, output_span: Span, input_spans: list[Span]
    ) -> tuple[Span, ...]:
        return (output_span,)

    def infer_density(
        self,
        input_infos: list[SequenceInfo],
        stats: Optional[StatsLookup] = None,
    ) -> float:
        return input_infos[0].density

    def participating_columns(self) -> frozenset[str]:
        """The projected attribute names."""
        return frozenset(self.names)

    def describe(self) -> str:
        return f"project[{', '.join(self.names)}]"
