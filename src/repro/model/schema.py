"""Record schemas: ordered lists of named, typed attributes.

A record schema ``R = <A1:T1, ..., AN:TN>`` (paper Section 2).  Schemas
are immutable; operations like projection and concatenation return new
schemas.  Attribute names are unique within a schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence as PySequence

from repro.errors import SchemaError
from repro.model.types import AtomType


@dataclass(frozen=True)
class Attribute:
    """A named, typed attribute of a record schema."""

    name: str
    atype: AtomType

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.atype, AtomType):
            raise SchemaError(f"attribute type must be an AtomType, got {self.atype!r}")

    def renamed(self, name: str) -> "Attribute":
        """A copy of this attribute with a different name."""
        return Attribute(name, self.atype)


class RecordSchema:
    """An immutable ordered collection of uniquely named attributes."""

    # ``_hash`` is computed at the first ``__hash__``, not here: most
    # schemas (the optimizer's intermediate ones) are never hashed.
    __slots__ = ("_attrs", "_index", "_names", "_hash")

    def __init__(self, attrs: Iterable[Attribute]):
        attrs = tuple(attrs)
        index: dict[str, int] = {}
        for i, attr in enumerate(attrs):
            if not isinstance(attr, Attribute):
                raise SchemaError(f"expected Attribute, got {attr!r}")
            if attr.name in index:
                raise SchemaError(f"duplicate attribute name {attr.name!r}")
            index[attr.name] = i
        self._attrs = attrs
        self._index = index
        self._names = tuple(index)
        self._hash: Optional[int] = None

    @classmethod
    def of(cls, **attrs: AtomType) -> "RecordSchema":
        """Build a schema from keyword arguments, e.g. ``of(close=AtomType.FLOAT)``."""
        return cls(Attribute(name, atype) for name, atype in attrs.items())

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The attributes, in declaration order."""
        return self._attrs

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names, in declaration order."""
        return self._names

    def __len__(self) -> int:
        return len(self._attrs)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attrs)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RecordSchema) and self._attrs == other._attrs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._attrs)
        return self._hash

    def __reduce__(self) -> tuple[type["RecordSchema"], tuple[tuple[Attribute, ...]]]:
        # Rebuilt from its attributes, so a cached hash never crosses
        # into a process whose string hashes differ.
        return (RecordSchema, (self._attrs,))

    def __repr__(self) -> str:
        body = ", ".join(f"{a.name}:{a.atype.name}" for a in self._attrs)
        return f"<{body}>"

    def index_of(self, name: str) -> int:
        """The position of attribute ``name``.

        Raises:
            SchemaError: if the attribute does not exist.
        """
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"no attribute {name!r} in schema {self!r}"
            ) from None

    def attribute(self, name: str) -> Attribute:
        """The attribute named ``name``."""
        return self._attrs[self.index_of(name)]

    def type_of(self, name: str) -> AtomType:
        """The atomic type of attribute ``name``."""
        return self.attribute(name).atype

    def project(self, names: PySequence[str]) -> "RecordSchema":
        """A new schema keeping only ``names``, in the order given."""
        return RecordSchema(self.attribute(n) for n in names)

    def prefixed(self, prefix: str) -> "RecordSchema":
        """A copy with every attribute renamed to ``prefix + '_' + name``."""
        return RecordSchema(a.renamed(f"{prefix}_{a.name}") for a in self._attrs)

    def collisions(self, other: "RecordSchema") -> list[str]:
        """Attribute names shared with ``other`` (sorted).

        A non-empty result means :meth:`concat` would fail; the
        semantic analyzer uses this to report name collisions without
        raising.
        """
        return sorted(self._index.keys() & other._index.keys())

    def concat(self, other: "RecordSchema") -> "RecordSchema":
        """Concatenate two schemas (compose-operator output schema).

        Raises:
            SchemaError: if attribute names collide; callers should use
                :meth:`prefixed` on one side first.
        """
        overlap = self._index.keys() & other._index.keys()
        if overlap:
            raise SchemaError(
                f"cannot concat schemas: colliding attributes {sorted(overlap)}"
            )
        return RecordSchema(self._attrs + other._attrs)
