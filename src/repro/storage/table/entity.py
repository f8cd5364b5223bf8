"""Entities for the Table service: schema-less property bags.

"All of the properties of a table are stored as (Name, Value) pairs, i.e.
two entities in the same table can have different properties." (paper IV.C)
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Tuple

from ..content import Content
from ..errors import (
    EntityTooLargeError,
    InvalidOperationError,
    TooManyPropertiesError,
)
from ..limits import ServiceLimits

__all__ = ["Entity", "entity_size", "SYSTEM_PROPERTIES"]

#: Property names managed by the service itself.
SYSTEM_PROPERTIES = frozenset({"PartitionKey", "RowKey", "Timestamp"})

#: Python types storable as property values (EDM types of the 2012 service).
_ALLOWED_TYPES = (str, int, float, bool, bytes, Content)


def _value_size(value: Any) -> int:
    """Approximate stored size of one property value, in bytes.

    Mirrors the published Azure entity-size formula closely enough for the
    1 MB limit to bite where it would on the real service: strings count
    2 bytes/char (UTF-16 on the wire), binary its length, numbers 8 bytes.
    """
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return 2 * len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, Content):
        return value.size
    raise InvalidOperationError(
        f"unsupported property type {type(value).__name__}"
    )


def entity_size(partition_key: str, row_key: str,
                properties: Mapping[str, Any]) -> int:
    """Approximate stored size of an entity, in bytes."""
    size = 4 + 2 * (len(partition_key) + len(row_key))
    for name, value in properties.items():
        size += 8 + 2 * len(name) + _value_size(value)
    return size


class Entity:
    """One table entity: (PartitionKey, RowKey) plus a property bag.

    Immutable from the outside; the table state machine produces new
    instances on update/merge so snapshots taken by queries stay stable.
    That is also why ``size`` (bytes, see :func:`entity_size`) is
    computed once, at construction, and stored: queries and capacity
    accounting read it for every row.
    """

    __slots__ = ("partition_key", "row_key", "_properties", "etag",
                 "timestamp", "size")

    def __init__(self, partition_key: str, row_key: str,
                 properties: Mapping[str, Any], *, etag: str = "",
                 timestamp: float = 0.0) -> None:
        if not isinstance(partition_key, str) or not isinstance(row_key, str):
            raise InvalidOperationError("PartitionKey and RowKey must be strings")
        for name, value in properties.items():
            if name in SYSTEM_PROPERTIES:
                raise InvalidOperationError(
                    f"property {name!r} is reserved for the system"
                )
            if not isinstance(value, _ALLOWED_TYPES):
                raise InvalidOperationError(
                    f"property {name!r} has unsupported type {type(value).__name__}"
                )
        self.partition_key = partition_key
        self.row_key = row_key
        self._properties: Dict[str, Any] = dict(properties)
        self.etag = etag
        self.timestamp = timestamp
        self.size = entity_size(partition_key, row_key, self._properties)

    # -- validation ---------------------------------------------------------
    def validate(self, limits: ServiceLimits) -> None:
        """Enforce the ≤255-property and ≤1 MB entity limits."""
        if len(self._properties) > limits.max_entity_properties:
            raise TooManyPropertiesError(
                f"{len(self._properties)} properties exceed "
                f"{limits.max_entity_properties}"
            )
        size = self.size
        if size > limits.max_entity_bytes:
            raise EntityTooLargeError(
                f"entity of {size} B exceeds {limits.max_entity_bytes} B"
            )

    # -- access ---------------------------------------------------------------
    @property
    def key(self) -> Tuple[str, str]:
        return (self.partition_key, self.row_key)

    def properties(self) -> Dict[str, Any]:
        """Copy of the user property bag."""
        return dict(self._properties)

    def get(self, name: str, default: Any = None) -> Any:
        if name == "PartitionKey":
            return self.partition_key
        if name == "RowKey":
            return self.row_key
        if name == "Timestamp":
            return self.timestamp
        return self._properties.get(name, default)

    def __getitem__(self, name: str) -> Any:
        sentinel = object()
        value = self.get(name, sentinel)
        if value is sentinel:
            raise KeyError(name)
        return value

    def __contains__(self, name: str) -> bool:
        return name in SYSTEM_PROPERTIES or name in self._properties

    def __iter__(self) -> Iterator[str]:
        return iter(self._properties)

    def __len__(self) -> int:
        return len(self._properties)

    # -- derivation -------------------------------------------------------
    def replaced_with(self, properties: Mapping[str, Any], *, etag: str,
                      timestamp: float) -> "Entity":
        """A new entity with the property bag fully replaced."""
        return Entity(self.partition_key, self.row_key, properties,
                      etag=etag, timestamp=timestamp)

    def merged_with(self, properties: Mapping[str, Any], *, etag: str,
                    timestamp: float) -> "Entity":
        """A new entity with ``properties`` merged over the current bag."""
        merged = dict(self._properties)
        merged.update(properties)
        return Entity(self.partition_key, self.row_key, merged,
                      etag=etag, timestamp=timestamp)

    def project(self, names) -> "Entity":
        """A copy keeping only the ``names`` properties (OData ``$select``).

        System keys are always retained; selecting an absent property
        simply omits it, like the 2012 service.
        """
        kept = {n: self._properties[n] for n in names
                if n in self._properties}
        return Entity(self.partition_key, self.row_key, kept,
                      etag=self.etag, timestamp=self.timestamp)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Entity(pk={self.partition_key!r}, rk={self.row_key!r}, "
                f"props={len(self._properties)}, etag={self.etag!r})")
