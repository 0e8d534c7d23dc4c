"""Data-integration services: legacy JSON to NGSI, and NGSI to NGSI-LD.

The legacy mapper is rule-driven: a ruleset names an id template (with
`{path}` placeholders resolved against each source record), an entity type,
and per-attribute mappings carrying one of four transforms: identity,
scale(factor), enumMap(table), parseTimestamp(format). An array at the
document root fans out to one record per element; a record whose id template
cannot be resolved is reported (with its index) instead of producing an
entity, so records = entities + id failures always holds.

NGSI-LD translation is a fixed convention: ids become
`urn:ngsi-ld:{type}:{id}` (existing URNs kept), geo:json values become
GeoProperties, attributes named `ref...` with valueType Reference become
Relationships pointing at `urn:ngsi-ld:{TypeAfterRef}:{value}`, everything
else a Property with the value untouched. Attribute metadata becomes
sub-properties. Both directions of the mapper are pure functions.
"""

import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Optional

from citykit.ngsi import GEOJSON, REFERENCE, Attribute, KindError, NgsiEntity, is_number

_PLACEHOLDER_RE = re.compile(r"\{([^{}]+)\}")
_PATH_STEP_RE = re.compile(r"([^.\[\]]+)|\[(\d+)\]")
_URN_RE = re.compile(r"^urn:[A-Za-z0-9][A-Za-z0-9-]*:.+")

TRANSFORM_NAMES = ("identity", "scale", "enumMap", "parseTimestamp")


class TransformError(KindError):
    """Mapper failures; ``kind`` names the failure class."""


def resolve_path(doc: Any, path: str):
    """Walk a dot/bracket path; returns (found: bool, value)."""
    node = doc
    for m in _PATH_STEP_RE.finditer(path):
        key, index = m.group(1), m.group(2)
        if key is not None:
            if not isinstance(node, dict) or key not in node:
                return False, None
            node = node[key]
        else:
            i = int(index)
            if not isinstance(node, list) or i >= len(node):
                return False, None
            node = node[i]
    return True, node


def _apply_transform(spec, value):
    name = spec if isinstance(spec, str) else spec.get("name")
    if name == "identity" or name is None:
        return value
    if name == "scale":
        factor = spec.get("factor", 1)
        if not is_number(value):
            raise TransformError("transform-error", f"scale needs a number, got {value!r}")
        result = value * factor
        if isinstance(result, float):
            result = round(result, 12)  # trim float dirt so 37*0.01 is 0.37
        return result
    if name == "enumMap":
        table = spec.get("table") or {}
        key = value if isinstance(value, str) else json.dumps(value)
        if key not in table:
            raise TransformError("transform-error", f"enumMap has no entry for {key!r}")
        return table[key]
    if name == "parseTimestamp":
        fmt = spec.get("format", "%Y-%m-%d %H:%M:%S")
        if not isinstance(value, str):
            raise TransformError("transform-error", f"parseTimestamp needs a string, got {value!r}")
        try:
            dt = datetime.strptime(value, fmt)
        except ValueError as exc:
            raise TransformError("transform-error", str(exc)) from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    raise TransformError("invalid-rules", f"unknown transform {name!r}")


@dataclass
class AttributeMapping:
    sourcePath: str
    targetAttribute: str
    valueType: str
    transform: Any = "identity"


@dataclass
class MappingRuleSet:
    entityTypeTemplate: str
    idTemplate: str
    attributeMappings: list[AttributeMapping] = field(default_factory=list)

    def __post_init__(self):
        targets = [m.targetAttribute for m in self.attributeMappings]
        dupes = {t for t in targets if targets.count(t) > 1}
        if dupes:
            raise TransformError("invalid-rules", f"duplicate target attributes {sorted(dupes)}")
        for m in self.attributeMappings:
            name = m.transform if isinstance(m.transform, str) else m.transform.get("name")
            if name not in TRANSFORM_NAMES:
                raise TransformError("invalid-rules", f"unknown transform {name!r}")

    @classmethod
    def from_doc(cls, doc) -> "MappingRuleSet":
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except json.JSONDecodeError as exc:
                raise TransformError("invalid-rules", f"ruleset does not parse: {exc}") from exc
        if not isinstance(doc, dict):
            raise TransformError("invalid-rules", "ruleset must be a JSON object")
        missing = {"entityTypeTemplate", "idTemplate"} - set(doc)
        if missing:
            raise TransformError("invalid-rules", f"ruleset missing {sorted(missing)}")
        mappings = []
        for m in doc.get("attributeMappings") or []:
            if not isinstance(m, dict):
                raise TransformError("invalid-rules", f"mapping must be an object: {m!r}")
            need = {"sourcePath", "targetAttribute", "valueType"} - set(m)
            if need:
                raise TransformError("invalid-rules", f"mapping missing {sorted(need)}: {m!r}")
            mappings.append(AttributeMapping(
                sourcePath=m["sourcePath"],
                targetAttribute=m["targetAttribute"],
                valueType=m["valueType"],
                transform=m.get("transform", "identity"),
            ))
        return cls(
            entityTypeTemplate=doc["entityTypeTemplate"],
            idTemplate=doc["idTemplate"],
            attributeMappings=mappings,
        )


@dataclass
class MappingOutcome:
    entities: list[NgsiEntity] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)


def _fill_template(template: str, record, index: int, what: str) -> str:
    def sub(m):
        found, value = resolve_path(record, m.group(1))
        if not found or value is None:
            raise TransformError(
                "id-unresolvable",
                f"record {index}: {what} placeholder {m.group(1)!r} has no value",
            )
        return str(value)

    return _PLACEHOLDER_RE.sub(sub, template)


def json_to_ngsi(document, rules: MappingRuleSet) -> MappingOutcome:
    """Map a legacy document (object or array of objects) to entities.

    Unresolvable optional attribute paths are skipped quietly; a failed id
    template or a transform failure is recorded in ``errors`` with the record
    index. Transform failures still emit the entity, minus that attribute.
    """
    records = document if isinstance(document, list) else [document]
    out = MappingOutcome()
    for index, record in enumerate(records):
        try:
            entity_id = _fill_template(rules.idTemplate, record, index, "idTemplate")
            entity_type = _fill_template(rules.entityTypeTemplate, record, index,
                                         "entityTypeTemplate")
        except TransformError as exc:
            out.errors.append({"index": index, "error": "id-unresolvable",
                               "detail": str(exc)})
            continue
        entity = NgsiEntity(id=entity_id, entityType=entity_type)
        for mapping in rules.attributeMappings:
            found, raw = resolve_path(record, mapping.sourcePath)
            if not found:
                continue
            try:
                value = _apply_transform(mapping.transform, raw)
            except TransformError as exc:
                out.errors.append({
                    "index": index,
                    "error": "transform-error",
                    "attribute": mapping.targetAttribute,
                    "detail": str(exc),
                })
                continue
            entity.attributes[mapping.targetAttribute] = Attribute(
                value=value, valueType=mapping.valueType
            )
        out.entities.append(entity)
    return out


@dataclass
class LdMember:
    kind: str  # Property | GeoProperty | Relationship
    value: Any
    subProperties: dict = field(default_factory=dict)

    def to_wire(self) -> dict:
        doc = {"type": self.kind}
        doc["object" if self.kind == "Relationship" else "value"] = self.value
        for name, sub in self.subProperties.items():
            doc[name] = {"type": "Property", "value": sub}
        return doc


@dataclass
class NgsiLdEntity:
    id: str
    entityType: str
    contextUrls: list[str] = field(default_factory=list)
    members: dict[str, LdMember] = field(default_factory=dict)

    def __post_init__(self):
        if not _URN_RE.match(self.id):
            raise TransformError("malformed-reference", f"id {self.id!r} is not a URN")
        for name, member in self.members.items():
            if member.kind == "Relationship" and not (
                isinstance(member.value, str) and _URN_RE.match(member.value)
            ):
                raise TransformError(
                    "malformed-reference",
                    f"relationship {name!r} object {member.value!r} is not a URN",
                )

    def to_wire(self) -> dict:
        doc = {
            "id": self.id,
            "type": self.entityType,
            "@context": list(self.contextUrls),
        }
        for name, member in self.members.items():
            doc[name] = member.to_wire()
        return doc


def ngsi_to_ngsild(entity: NgsiEntity, context_url: str) -> NgsiLdEntity:
    """Translate one entity; value-preserving for Property/GeoProperty members."""
    if entity.id.startswith("urn:"):
        ld_id = entity.id
    else:
        ld_id = f"urn:ngsi-ld:{entity.entityType}:{entity.id}"
    members: dict[str, LdMember] = {}
    for name, attr in entity.attributes.items():
        sub = dict(attr.metadata)
        if attr.valueType == GEOJSON:
            members[name] = LdMember("GeoProperty", attr.value, sub)
        elif name.startswith("ref") and attr.valueType == REFERENCE:
            if not isinstance(attr.value, str) or not attr.value:
                raise TransformError(
                    "malformed-reference",
                    f"{name!r} must hold a non-empty string id, got {attr.value!r}",
                )
            if attr.value.startswith("urn:"):
                target = attr.value
            else:
                referenced_type = name[3:] or "Entity"
                target = f"urn:ngsi-ld:{referenced_type}:{attr.value}"
            members[name] = LdMember("Relationship", target, sub)
        else:
            members[name] = LdMember("Property", attr.value, sub)
    return NgsiLdEntity(
        id=ld_id,
        entityType=entity.entityType,
        contextUrls=[context_url],
        members=members,
    )
