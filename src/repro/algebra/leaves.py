"""Leaf nodes of the query graph: base and constant sequences."""

from __future__ import annotations

from typing import Optional, Sequence as PySequence

from repro.errors import QueryError
from repro.model.constant import ConstantSequence
from repro.model.info import SequenceInfo
from repro.model.record import Record, RecordOrNull
from repro.model.schema import RecordSchema
from repro.model.sequence import Sequence
from repro.model.span import Span
from repro.algebra.expressions import StatsLookup
from repro.algebra.node import Operator
from repro.algebra.scope import ScopeSpec
from repro.catalog.catalog import leaf_meta


class SequenceLeaf(Operator):
    """A reference to a base sequence (in-memory or stored)."""

    name = "base"

    def __init__(self, sequence: Sequence, alias: Optional[str] = None):
        super().__init__(())
        if not isinstance(sequence, Sequence):
            raise QueryError(f"SequenceLeaf needs a Sequence, got {sequence!r}")
        self.sequence = sequence
        self.alias = alias or getattr(sequence, "name", None) or "seq"

    def with_inputs(self, inputs: PySequence[Operator]) -> "SequenceLeaf":
        if inputs:
            raise QueryError("a leaf takes no inputs")
        return self

    def _infer_schema(self, input_schemas: list[RecordSchema]) -> RecordSchema:
        return self.sequence.schema

    def scope_on(self, input_index: int) -> ScopeSpec:
        raise QueryError("a leaf has no inputs and hence no scope")

    def value_at(self, inputs: list[Sequence], position: int) -> RecordOrNull:
        return self.sequence.get(position)

    def infer_span(self, input_spans: list[Span]) -> Span:
        return self.sequence.span

    def required_input_spans(
        self, output_span: Span, input_spans: list[Span]
    ) -> tuple[Span, ...]:
        return ()

    def infer_density(
        self,
        input_infos: list[SequenceInfo],
        stats: Optional[StatsLookup] = None,
    ) -> float:
        return leaf_meta(self.sequence).density

    def describe(self) -> str:
        return f"base({self.alias})"


class ConstantLeaf(Operator):
    """A constant sequence leaf (paper Section 2: constants are sequences)."""

    name = "constant"

    def __init__(self, constant: ConstantSequence):
        super().__init__(())
        if not isinstance(constant, ConstantSequence):
            raise QueryError(f"ConstantLeaf needs a ConstantSequence, got {constant!r}")
        self.constant = constant

    @classmethod
    def scalar(cls, name: str, value: object) -> "ConstantLeaf":
        """A single-attribute constant leaf."""
        return cls(ConstantSequence.scalar(name, value))

    @property
    def record(self) -> Record:
        """The constant record."""
        return self.constant.record

    def with_inputs(self, inputs: PySequence[Operator]) -> "ConstantLeaf":
        if inputs:
            raise QueryError("a leaf takes no inputs")
        return self

    def _infer_schema(self, input_schemas: list[RecordSchema]) -> RecordSchema:
        return self.constant.schema

    def scope_on(self, input_index: int) -> ScopeSpec:
        raise QueryError("a leaf has no inputs and hence no scope")

    def value_at(self, inputs: list[Sequence], position: int) -> RecordOrNull:
        return self.constant.get(position)

    def infer_span(self, input_spans: list[Span]) -> Span:
        return self.constant.span

    def required_input_spans(
        self, output_span: Span, input_spans: list[Span]
    ) -> tuple[Span, ...]:
        return ()

    def infer_density(
        self,
        input_infos: list[SequenceInfo],
        stats: Optional[StatsLookup] = None,
    ) -> float:
        return 1.0

    def describe(self) -> str:
        return f"const({self.record.as_dict()})"
