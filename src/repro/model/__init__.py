"""The positional sequence data model (paper Section 2)."""

from repro.model.base import BaseSequence
from repro.model.batch import ColumnBatch
from repro.model.constant import ConstantSequence
from repro.model.info import SequenceInfo
from repro.model.record import NULL, Record, RecordOrNull, is_null, record_from
from repro.model.schema import Attribute, RecordSchema
from repro.model.sequence import Sequence
from repro.model.span import Span
from repro.model.types import AtomType, check_value, common_type

__all__ = [
    "AtomType",
    "Attribute",
    "BaseSequence",
    "ColumnBatch",
    "ConstantSequence",
    "NULL",
    "Record",
    "RecordOrNull",
    "RecordSchema",
    "Sequence",
    "SequenceInfo",
    "Span",
    "check_value",
    "common_type",
    "is_null",
    "record_from",
]
