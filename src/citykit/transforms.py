"""Data-integration services: legacy JSON to NGSI, and NGSI to NGSI-LD.

The legacy mapper is rule-driven: a ruleset names an id template (with
`{path}` placeholders resolved against each source record), an entity type,
and per-attribute mappings carrying one of four transforms: identity,
scale(factor), enumMap(table), parseTimestamp(format). Each transform and its
parameter are checked once, when the ruleset loads. An array at the
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
from typing import Any

from citykit.ngsi import GEOJSON, REFERENCE, Attribute, KindError, NgsiEntity, is_number

_PLACEHOLDER_RE = re.compile(r"\{([^{}]+)\}")
_PATH_STEP_RE = re.compile(r"([^.\[\]]+)|\[(\d+)\]")
_URN_RE = re.compile(r"^urn:[A-Za-z0-9][A-Za-z0-9-]*:.+")

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


# per transform: the parameter an object spec may give it, its default and its type
_TRANSFORMS = {
    "identity": (None, None, object, "anything"),
    "scale": ("factor", 1, (int, float), "a number"),
    "enumMap": ("table", {}, dict, "an object"),
    "parseTimestamp": ("format", "%Y-%m-%d %H:%M:%S", str, "a string"),
}


def _check_transform(spec) -> tuple:
    """A spec's ``(name, parameter)``; ``invalid-rules`` when the spec cannot run."""
    if isinstance(spec, str):
        spec = {"name": spec}
    name = spec.get("name") if isinstance(spec, dict) else None
    if not isinstance(name, str) or name not in _TRANSFORMS:
        raise TransformError("invalid-rules", f"unknown transform {spec!r}")
    param, default, kind, what = _TRANSFORMS[name]
    arg = spec.get(param, default)
    if not isinstance(arg, kind) or isinstance(arg, bool):  # a bool is not a number
        raise TransformError("invalid-rules", f"{name} {param} must be {what}: {arg!r}")
    return name, arg


def _apply_transform(name: str, arg, value):
    """Run one checked transform, with its parameter ``arg``, on a source value."""
    if name == "identity":
        return value
    if name == "scale":
        if not is_number(value):
            raise TransformError("transform-error", f"scale needs a number, got {value!r}")
        result = value * arg
        return round(result, 12) if isinstance(result, float) else result  # 37*0.01 -> 0.37
    if name == "enumMap":
        key = value if isinstance(value, str) else json.dumps(value)
        if key not in arg:
            raise TransformError("transform-error", f"enumMap has no entry for {key!r}")
        return arg[key]
    if not isinstance(value, str):  # parseTimestamp
        raise TransformError("transform-error", f"parseTimestamp needs a string, got {value!r}")
    try:
        dt = datetime.strptime(value, arg)
    except ValueError as exc:
        raise TransformError("transform-error", str(exc)) from exc
    dt = dt.replace(tzinfo=dt.tzinfo or timezone.utc)  # a stamp with no zone is UTC
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class AttributeMapping:
    sourcePath: str
    targetAttribute: str
    valueType: str
    transform: Any = "identity"

    def __post_init__(self):
        self._transform = _check_transform(self.transform)  # checked once, at load


@dataclass
class MappingRuleSet:
    entityTypeTemplate: str
    idTemplate: str
    attributeMappings: list[AttributeMapping] = field(default_factory=list)

    def __post_init__(self):
        targets = [m.targetAttribute for m in self.attributeMappings]
        if not all(t and isinstance(t, str) for t in targets):
            raise TransformError("invalid-rules", f"a targetAttribute is not a name: {targets!r}")
        dupes = {t for t in targets if targets.count(t) > 1}
        if dupes:
            raise TransformError("invalid-rules", f"duplicate target attributes {sorted(dupes)}")

    @classmethod
    def from_doc(cls, doc: dict) -> "MappingRuleSet":
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

    if not (filled := _PLACEHOLDER_RE.sub(sub, template)):
        raise TransformError("id-unresolvable", f"record {index}: {what} fills to an empty string")
    return filled


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
                value = _apply_transform(*mapping._transform, raw)
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


def _member(kind: str, value, metadata: dict) -> dict:
    doc = {"type": kind, "object" if kind == "Relationship" else "value": value}
    for name, sub in metadata.items():
        doc[name] = {"type": "Property", "value": sub}
    return doc


def ngsi_to_ngsild(entity: NgsiEntity, context_url: str) -> dict:
    """The NGSI-LD document for one entity; Property/GeoProperty values are kept as-is."""
    if entity.id.startswith("urn:"):
        ld_id = entity.id
    else:
        ld_id = f"urn:ngsi-ld:{entity.entityType}:{entity.id}"
    members = {}
    for name, attr in entity.attributes.items():
        if attr.valueType == GEOJSON:
            members[name] = _member("GeoProperty", attr.value, attr.metadata)
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
            members[name] = _member("Relationship", target, attr.metadata)
        else:
            members[name] = _member("Property", attr.value, attr.metadata)
    if not _URN_RE.match(ld_id):
        raise TransformError("malformed-reference", f"id {ld_id!r} is not a URN")
    for name, member in members.items():
        if member["type"] == "Relationship" and not _URN_RE.match(member["object"]):
            raise TransformError(
                "malformed-reference",
                f"relationship {name!r} object {member['object']!r} is not a URN",
            )
    return {"id": ld_id, "type": entity.entityType, "@context": [context_url], **members}
