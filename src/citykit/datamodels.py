"""Entity-type schemas and the validation service built on them.

A schema is one JSON object per entity type: a rule per attribute
(expected valueType, optional numeric range, enum, or regex), a required set,
and optional `lessOrEqual` cross-field pairs. Validation never raises on bad
entities; every problem becomes a report line with one of six rule kinds:

  missing-required, wrong-type, out-of-range, not-in-enum,
  pattern-mismatch, unknown-entity-type

An unknown entity type yields a single violation with an empty
attributeName. A wrong-type attribute suppresses its own range/enum/pattern
checks so each underlying fault is reported exactly once.
"""

import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from citykit.ngsi import (
    BOOLEAN,
    DATETIME,
    GEOJSON,
    ISO_RE,
    NUMBER,
    REFERENCE,
    STRUCTURED,
    TEXT,
    KindError,
    NgsiEntity,
    NgsiError,
    is_number,
    parse_iso,
)
from citykit.textio import read_json

RULE_KINDS = (
    "missing-required",
    "wrong-type",
    "out-of-range",
    "not-in-enum",
    "pattern-mismatch",
    "unknown-entity-type",
)

class SchemaError(KindError):
    """Schema document problems; ``kind`` is parse-error or inconsistent-rule."""


@dataclass
class Rule:
    expectedValueType: str
    numericRange: Optional[tuple] = None  # (min|None, max|None)
    enumValues: Optional[frozenset] = None
    pattern: Optional[str] = None

    def __post_init__(self):
        if self.enumValues is not None and self.pattern is not None:
            raise SchemaError("inconsistent-rule", "enumValues and pattern are exclusive")
        if self.numericRange is not None:
            lo, hi = self.numericRange
            if lo is not None and hi is not None and lo > hi:
                raise SchemaError("inconsistent-rule", f"range min {lo} > max {hi}")
        self._rx = re.compile(self.pattern) if self.pattern is not None else None

    @classmethod
    def from_doc(cls, name: str, doc: dict) -> "Rule":
        if not isinstance(doc, dict) or "expectedValueType" not in doc:
            raise SchemaError("parse-error", f"rule for {name!r} needs expectedValueType")
        rng = doc.get("numericRange")
        if rng is not None:
            if not isinstance(rng, (list, tuple)) or len(rng) != 2:
                raise SchemaError("parse-error", f"rule for {name!r}: numericRange must be [min, max]")
            rng = (rng[0], rng[1])
        enum = doc.get("enumValues")
        if enum is not None:
            enum = frozenset(enum)
        try:
            return cls(
                expectedValueType=doc["expectedValueType"],
                numericRange=rng,
                enumValues=enum,
                pattern=doc.get("pattern"),
            )
        except re.error as exc:
            raise SchemaError("parse-error", f"rule for {name!r}: bad pattern: {exc}") from exc


@dataclass
class DataModelSchema:
    entityType: str
    attributeRules: dict[str, Rule] = field(default_factory=dict)
    requiredAttributes: frozenset = frozenset()
    lessOrEqual: tuple = ()  # pairs (a, b) meaning value(a) <= value(b)

    def __post_init__(self):
        missing = set(self.requiredAttributes) - set(self.attributeRules)
        if missing:
            raise SchemaError(
                "inconsistent-rule",
                f"required attributes without rules: {sorted(missing)}",
            )

    @classmethod
    def from_doc(cls, doc: dict) -> "DataModelSchema":
        if not isinstance(doc, dict) or not doc.get("entityType"):
            raise SchemaError("parse-error", "schema needs a non-empty entityType")
        rules_doc = doc.get("attributeRules") or {}
        if not isinstance(rules_doc, dict):
            raise SchemaError("parse-error", "attributeRules must be an object")
        rules = {name: Rule.from_doc(name, rd) for name, rd in rules_doc.items()}
        pairs = []
        for pair in doc.get("lessOrEqual") or []:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise SchemaError("parse-error", "lessOrEqual entries must be [a, b]")
            pairs.append((pair[0], pair[1]))
        return cls(
            entityType=doc["entityType"],
            attributeRules=rules,
            requiredAttributes=frozenset(doc.get("requiredAttributes") or ()),
            lessOrEqual=tuple(pairs),
        )


@dataclass
class Violation:
    attributeName: str
    ruleKind: str
    message: str


@dataclass
class ValidationReport:
    entityId: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations


def load_schemas(path) -> dict[str, DataModelSchema]:
    """Entity type → schema for each ``*.json`` file in a directory, in sorted
    order; a later file with the same type replaces an earlier one."""
    schemas = {}
    for file in sorted(Path(path).glob("*.json")):
        schema = DataModelSchema.from_doc(read_json(file, "parse-error"))
        schemas[schema.entityType] = schema
    return schemas


def bundled_registry() -> dict[str, DataModelSchema]:
    """The schema map shipped in the package's ``schemas/``."""
    return load_schemas(Path(__file__).with_name("schemas"))


def _type_ok(expected: str, value) -> bool:
    if expected == NUMBER:
        return is_number(value)
    if expected == TEXT:
        return isinstance(value, str)
    if expected == DATETIME:  # a calendar timestamp, not only its syntax
        if not (isinstance(value, str) and ISO_RE.match(value)):
            return False
        try:
            parse_iso(value)
        except NgsiError:
            return False
        return True
    if expected == BOOLEAN:
        return isinstance(value, bool)
    if expected == REFERENCE:
        return isinstance(value, str) and bool(value)
    if expected == GEOJSON:
        return isinstance(value, dict) and "type" in value
    if expected == STRUCTURED:
        return isinstance(value, (dict, list))
    return True  # unknown tags: declared equality is all we can ask


def validate_entity(entity: NgsiEntity,
                    registry: dict[str, DataModelSchema]) -> ValidationReport:
    """Check one entity against its type's schema; pure, never raises."""
    report = ValidationReport(entityId=entity.id)
    schema = registry.get(entity.entityType)
    if schema is None:
        report.violations.append(Violation(
            "", "unknown-entity-type",
            f"no schema registered for entity type {entity.entityType!r}",
        ))
        return report

    for name in sorted(schema.requiredAttributes):
        if name not in entity.attributes:
            report.violations.append(Violation(
                name, "missing-required", f"required attribute {name!r} is absent",
            ))

    for name in sorted(entity.attributes):
        rule = schema.attributeRules.get(name)
        if rule is None:
            continue
        attr = entity.attributes[name]
        value = attr.value
        if attr.valueType != rule.expectedValueType or not _type_ok(rule.expectedValueType, value):
            report.violations.append(Violation(
                name, "wrong-type",
                f"{name!r} expected {rule.expectedValueType}, got "
                f"{attr.valueType} value {value!r}",
            ))
            continue  # downstream checks would double-report the same fault
        if rule.numericRange is not None and is_number(value):
            lo, hi = rule.numericRange
            if (lo is not None and value < lo) or (hi is not None and value > hi):
                report.violations.append(Violation(
                    name, "out-of-range",
                    f"{name!r}={value!r} outside [{lo}, {hi}]",
                ))
        if rule.enumValues is not None and value not in rule.enumValues:
            report.violations.append(Violation(
                name, "not-in-enum",
                f"{name!r}={value!r} not one of {sorted(rule.enumValues)}",
            ))
        if rule._rx is not None and isinstance(value, str) and not rule._rx.search(value):
            report.violations.append(Violation(
                name, "pattern-mismatch",
                f"{name!r}={value!r} does not match {rule.pattern!r}",
            ))

    for a, b in schema.lessOrEqual:
        va = entity.value(a)
        vb = entity.value(b)
        if is_number(va) and is_number(vb) and va > vb:
            report.violations.append(Violation(
                a, "out-of-range", f"{a!r}={va!r} exceeds {b!r}={vb!r}",
            ))
    return report


def validate_batch(entities: Iterable[NgsiEntity], registry: dict[str, DataModelSchema],
                   report_sink=None) -> dict:
    """Fold ``validate_entity`` over a stream; O(1) memory beyond the summary.

    ``report_sink``, when given, receives each per-entity report document.
    """
    total = valid = 0
    per_kind: dict[str, int] = {}
    for entity in entities:
        report = validate_entity(entity, registry)
        total += 1
        if report.valid:
            valid += 1
        else:
            for violation in report.violations:
                per_kind[violation.ruleKind] = per_kind.get(violation.ruleKind, 0) + 1
        if report_sink is not None:
            report_sink(asdict(report))
    return {
        "total": total,
        "valid": valid,
        "invalid": total - valid,
        "perKindCounts": dict(sorted(per_kind.items())),
    }
