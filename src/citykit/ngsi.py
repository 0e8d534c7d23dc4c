"""Context entity model: entities, attributes, and their wire form.

An entity is ``{id, entityType, attributes}``; each attribute carries a
``value``, a ``valueType`` tag, and an open metadata map. The JSON wire form
mirrors that structure exactly, so round-tripping is lossless.
"""

import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Optional

# Well-known valueType tags. The set is advisory: unknown tags are carried
# through untouched so domain extensions don't need code changes here.
TEXT = "Text"
NUMBER = "Number"
BOOLEAN = "Boolean"
DATETIME = "DateTime"
GEOJSON = "geo:json"
STRUCTURED = "StructuredValue"
REFERENCE = "Reference"

ISO_RE = re.compile(
    r"(?P<y>\d{4})-(?P<m>\d{2})-(?P<d>\d{2})"
    r"[T ](?P<H>\d{2}):(?P<M>\d{2}):(?P<S>\d{2}(?:\.\d+)?)"
    r"(?P<tz>Z|[+-]\d{2}:?\d{2})?$"
)

_ATTR_NAME_RE = re.compile(r"[A-Za-z0-9_:\-]+$")
_SPACE_RE = re.compile(r"\s")  # exactly the characters str.isspace accepts
_RESERVED_ATTR_NAMES = frozenset({"id", "type"})


class KindError(Exception):
    """A service failure whose ``kind`` names its class for callers and wire replies.

    ``message`` is the text without the kind; ``str()`` is ``"kind: message"``.
    """

    def __init__(self, kind: str, message: str):
        self.kind = kind
        self.message = message
        super().__init__(f"{kind}: {message}")


class NgsiError(KindError, ValueError):
    """Malformed entity, attribute, or wire document."""

    kind = "invalid-entity"

    def __init__(self, message: str):
        super().__init__(self.kind, message)


@dataclass
class Attribute:
    """One named value on an entity."""

    value: Any
    valueType: str
    metadata: dict = field(default_factory=dict)

    def to_wire(self) -> dict:
        doc = {"value": self.value, "valueType": self.valueType}
        if self.metadata:
            doc["metadata"] = dict(self.metadata)
        return doc

    @classmethod
    def from_wire(cls, doc: dict) -> "Attribute":
        if not isinstance(doc, dict) or "value" not in doc:
            raise NgsiError(f"attribute document needs a value: {doc!r}")
        value_type = doc.get("valueType")
        if value_type is None:
            value_type = infer_value_type(doc["value"])
        if not isinstance(value_type, str) or not value_type:
            raise NgsiError(f"attribute valueType must be a non-empty string: {doc!r}")
        metadata = doc.get("metadata") or {}
        if not isinstance(metadata, dict):
            raise NgsiError(f"attribute metadata must be an object: {doc!r}")
        return cls(value=doc["value"], valueType=value_type, metadata=dict(metadata))


@dataclass
class NgsiEntity:
    """Context entity keyed by id, with a typed attribute map."""

    id: str
    entityType: str
    attributes: dict[str, Attribute] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise NgsiError(f"entity id must be a non-empty string: {self.id!r}")
        if not self.entityType or not isinstance(self.entityType, str):
            raise NgsiError(
                f"entity type must be a non-empty string: {self.entityType!r}"
            )
        for name in self.attributes:
            if not name or not isinstance(name, str):
                raise NgsiError(f"attribute name must be a non-empty string: {name!r}")

    def value(self, name: str, default: Any = None) -> Any:
        attr = self.attributes.get(name)
        return default if attr is None else attr.value

    def set(self, name: str, value: Any, valueType: Optional[str] = None,
            metadata: Optional[dict] = None) -> None:
        if not name or not isinstance(name, str):
            raise NgsiError(f"attribute name must be a non-empty string: {name!r}")
        self.attributes[name] = Attribute(
            value=value,
            valueType=valueType or infer_value_type(value),
            metadata=dict(metadata or {}),
        )

    def copy(self) -> "NgsiEntity":
        return NgsiEntity(
            id=self.id,
            entityType=self.entityType,
            attributes={
                name: Attribute(a.value, a.valueType, dict(a.metadata))
                for name, a in self.attributes.items()
            },
        )

    def to_wire(self) -> dict:
        return {
            "id": self.id,
            "entityType": self.entityType,
            "attributes": {n: a.to_wire() for n, a in self.attributes.items()},
        }

    @classmethod
    def from_wire(cls, doc: dict) -> "NgsiEntity":
        if not isinstance(doc, dict):
            raise NgsiError(f"entity document must be an object: {doc!r}")
        missing = {"id", "entityType"} - set(doc)
        if missing:
            raise NgsiError(f"entity document missing {sorted(missing)}: {doc!r}")
        attrs_doc = doc.get("attributes") or {}
        if not isinstance(attrs_doc, dict):
            raise NgsiError(f"entity attributes must be an object: {doc!r}")
        attributes = {n: Attribute.from_wire(a) for n, a in attrs_doc.items()}
        return cls(id=doc["id"], entityType=doc["entityType"], attributes=attributes)


def check_entity(entity: NgsiEntity) -> None:
    """Enforce the full entity invariants; raises ``NgsiError``.

    Construction is deliberately permissive (only non-empty strings are
    required), so stores can reject bad input at the write boundary instead
    of the caller being unable to even build the value under test.
    """
    for text, label in ((entity.id, "id"), (entity.entityType, "entityType")):
        if not isinstance(text, str) or not text or _SPACE_RE.search(text):
            raise NgsiError(f"entity {label} must be non-empty without whitespace: {text!r}")
    check_attributes(entity.attributes)


def check_attributes(attributes: dict) -> None:
    """Enforce the name and value rules on each attribute; raises ``NgsiError``."""
    for name, attr in attributes.items():
        if name in _RESERVED_ATTR_NAMES:
            raise NgsiError(f"attribute name {name!r} is reserved")
        if not isinstance(name, str) or not _ATTR_NAME_RE.match(name):
            raise NgsiError(f"attribute name {name!r} has characters outside [A-Za-z0-9_:-]")
        validate_attribute(name, attr)


def validate_attribute(name: str, attr: Attribute) -> None:
    if not isinstance(attr.valueType, str) or not attr.valueType:
        raise NgsiError(f"attribute {name!r} valueType must be a non-empty string")
    if not isinstance(attr.metadata, dict):
        raise NgsiError(f"attribute {name!r} metadata must be an object")
    if attr.valueType == NUMBER:
        if not is_number(attr.value):
            raise NgsiError(f"attribute {name!r} tagged Number holds {attr.value!r}")
    elif attr.valueType == DATETIME:
        if not isinstance(attr.value, str) or not ISO_RE.match(attr.value):
            raise NgsiError(
                f"attribute {name!r} tagged DateTime holds a non-ISO value {attr.value!r}"
            )


def is_number(value: Any) -> bool:
    """True for ints and floats; a bool is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def infer_value_type(value: Any) -> str:
    """Best-effort valueType tag for a bare JSON value."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, (int, float)):
        return NUMBER
    if isinstance(value, str):
        return DATETIME if ISO_RE.match(value) else TEXT
    if isinstance(value, dict) and value.get("type") in (
        "Point", "LineString", "Polygon", "MultiPoint", "MultiLineString",
        "MultiPolygon",
    ):
        return GEOJSON
    return STRUCTURED


def make_entity(entity_id: str, entity_type: str, **attrs: Any) -> NgsiEntity:
    """Build an entity from keyword values, inferring each valueType.

    Pass an ``Attribute`` instance to pin the type or metadata explicitly.
    """
    entity = NgsiEntity(id=entity_id, entityType=entity_type)
    for name, value in attrs.items():
        if isinstance(value, Attribute):
            entity.attributes[name] = value
        else:
            entity.set(name, value)
    return entity


def iso_utc(ts: float) -> str:
    """Seconds since the epoch to ``YYYY-MM-DDTHH:MM:SSZ`` (UTC, whole seconds)."""
    return datetime.fromtimestamp(round(ts), tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def parse_iso(text: str) -> float:
    """ISO-8601 timestamp to seconds since the epoch; bare stamps read as UTC."""
    m = ISO_RE.match(text.strip())
    if not m:
        raise NgsiError(f"not an ISO-8601 timestamp: {text!r}")
    frac = 0.0
    seconds_text = m.group("S")
    if "." in seconds_text:
        whole, _, fracpart = seconds_text.partition(".")
        frac = float("0." + fracpart)
        seconds_text = whole
    dt = datetime(
        int(m.group("y")), int(m.group("m")), int(m.group("d")),
        int(m.group("H")), int(m.group("M")), int(seconds_text),
        tzinfo=timezone.utc,
    )
    ts = dt.timestamp() + frac
    tz = m.group("tz")
    if tz and tz != "Z":
        sign = 1 if tz[0] == "+" else -1
        hh = int(tz[1:3])
        mm = int(tz[-2:])
        ts -= sign * (hh * 3600 + mm * 60)
    return ts
