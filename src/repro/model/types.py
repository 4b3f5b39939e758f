"""Atomic attribute types for sequence records.

The paper's model (Section 2) builds record schemas from "indivisible
atomic types of fixed size".  We support the four atomic types needed by
the paper's examples and define the coercion lattice used by expression
type checking (INT widens to FLOAT; nothing else coerces).
"""

from __future__ import annotations

import enum

from repro.errors import SchemaError


class AtomType(enum.Enum):
    """An indivisible atomic attribute type."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AtomType.{self.name}"

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type participate in arithmetic."""
        return self in (AtomType.INT, AtomType.FLOAT)

    def accepts(self, value: object) -> bool:
        """Whether a Python ``value`` is a valid instance of this type.

        ``bool`` is deliberately *not* accepted by INT/FLOAT even though
        Python's ``bool`` subclasses ``int``: boolean attributes must be
        declared BOOL.
        """
        if self is AtomType.BOOL:
            return isinstance(value, bool)
        if isinstance(value, bool):
            return False
        if self is AtomType.INT:
            return isinstance(value, int)
        if self is AtomType.FLOAT:
            return isinstance(value, (int, float))
        if self is AtomType.STR:
            return isinstance(value, str)
        raise AssertionError(f"unhandled atom type {self}")


def common_type(left: AtomType, right: AtomType) -> AtomType:
    """The widened type of a binary arithmetic over ``left`` and ``right``.

    Raises:
        SchemaError: if the two types have no common numeric widening.
    """
    if left is right:
        return left
    numeric = (AtomType.INT, AtomType.FLOAT)
    if left in numeric and right in numeric:
        return AtomType.FLOAT
    raise SchemaError(f"no common type for {left.name} and {right.name}")


def check_value(atype: AtomType, value: object, context: str = "value") -> None:
    """Validate that ``value`` conforms to ``atype``.

    Raises:
        SchemaError: if the value is not an instance of the atomic type.
    """
    if not atype.accepts(value):
        raise SchemaError(
            f"{context}: {value!r} is not a valid {atype.name} value"
        )
