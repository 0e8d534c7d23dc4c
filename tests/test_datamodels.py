"""Schema registry and entity validation: rule kinds, reports, batches."""

import json
from dataclasses import asdict

import pytest

from citykit.datamodels import (
    DataModelSchema,
    Rule,
    SchemaError,
    bundled_registry,
    load_schemas,
    validate_batch,
    validate_entity,
)
from citykit.ngsi import Attribute, KindError, make_entity

PARKING_SCHEMA = {
    "entityType": "OnStreetParking",
    "requiredAttributes": ["totalSpotNumber", "availableSpotNumber"],
    "attributeRules": {
        "totalSpotNumber": {"expectedValueType": "Number", "numericRange": [0, None]},
        "availableSpotNumber": {"expectedValueType": "Number", "numericRange": [0, None]},
        "status": {"expectedValueType": "Text", "enumValues": ["open", "closed"]},
        "zoneCode": {"expectedValueType": "Text", "pattern": "^[A-Z]{2}[0-9]+$"},
    },
    "lessOrEqual": [["availableSpotNumber", "totalSpotNumber"]],
}


@pytest.fixture
def registry():
    return {PARKING_SCHEMA["entityType"]: DataModelSchema.from_doc(PARKING_SCHEMA)}


def parking(**overrides):
    attrs = {"totalSpotNumber": 40, "availableSpotNumber": 12}
    attrs.update(overrides)
    return make_entity("lot-1", "OnStreetParking", **attrs)


def kinds(report):
    return [v.ruleKind for v in report.violations]


def test_clean_entity_has_no_violations(registry):
    report = validate_entity(parking(status="open", zoneCode="AB12"), registry)
    assert report.valid
    assert report.violations == []


def test_unknown_entity_type(registry):
    report = validate_entity(make_entity("x-1", "Mystery", a=1), registry)
    assert kinds(report) == ["unknown-entity-type"]
    assert report.violations[0].attributeName == ""


def test_missing_required(registry):
    entity = make_entity("lot-1", "OnStreetParking", totalSpotNumber=40)
    report = validate_entity(entity, registry)
    assert kinds(report) == ["missing-required"]
    assert report.violations[0].attributeName == "availableSpotNumber"


def test_wrong_type_suppresses_downstream_checks(registry):
    report = validate_entity(parking(availableSpotNumber="lots"), registry)
    assert kinds(report) == ["wrong-type"]


def test_wrong_type_on_mismatched_tag(registry):
    entity = parking(status=Attribute(3, "Text"))
    assert kinds(validate_entity(entity, registry)) == ["wrong-type"]


@pytest.mark.parametrize("stamp, valid", [
    ("2025-06-02T08:30:00Z", True),
    ("2025-06-02T08:30:00.25+02:00", True),
    ("2025-13-01T00:00:00Z", False),  # month 13
    ("2025-02-30T00:00:00Z", False),  # no such day
    ("2025-06-02T24:00:00Z", False),  # hour 24
    ("2025-06-02T08:30:00+24:00", False),  # no such offset
    ("2025-06-02", False),  # not a timestamp at all
])
def test_a_datetime_is_a_calendar_timestamp(stamp, valid):
    schema = DataModelSchema.from_doc({
        "entityType": "Reading", "requiredAttributes": [],
        "attributeRules": {"dateObserved": {"expectedValueType": "DateTime"}}})
    entity = make_entity("r-1", "Reading", dateObserved=Attribute(stamp, "DateTime"))
    report = validate_entity(entity, {"Reading": schema})
    assert kinds(report) == ([] if valid else ["wrong-type"])


@pytest.mark.parametrize("tag, value, valid", [
    ("Boolean", True, True),
    ("Boolean", 1, False),  # a number is not a bool
    ("geo:json", {"type": "Point", "coordinates": [-3.7, 40.4]}, True),
    ("geo:json", {"coordinates": [-3.7, 40.4]}, False),
    ("geo:json", "POINT (-3.7 40.4)", False),
    ("Postcode", ["any", "value"], True),  # an unknown tag asks only for itself
])
def test_a_value_is_checked_against_its_expected_tag(tag, value, valid):
    schema = DataModelSchema.from_doc({
        "entityType": "Reading", "requiredAttributes": [],
        "attributeRules": {"reading": {"expectedValueType": tag}}})
    entity = make_entity("r-1", "Reading", reading=Attribute(value, tag))
    assert kinds(validate_entity(entity, {"Reading": schema})) == ([] if valid else ["wrong-type"])


def test_out_of_range_low_and_high(registry):
    assert kinds(validate_entity(parking(availableSpotNumber=-1), registry)) \
        == ["out-of-range"]
    doc = {
        "entityType": "T",
        "attributeRules": {"pct": {"expectedValueType": "Number",
                                   "numericRange": [0, 1]}},
    }
    reg = {doc["entityType"]: DataModelSchema.from_doc(doc)}
    assert kinds(validate_entity(make_entity("t", "T", pct=1.5), reg)) \
        == ["out-of-range"]


def test_less_or_equal_pair(registry):
    report = validate_entity(parking(availableSpotNumber=50), registry)
    assert kinds(report) == ["out-of-range"]
    assert "totalSpotNumber" in report.violations[0].message


def test_not_in_enum(registry):
    assert kinds(validate_entity(parking(status="ajar"), registry)) == ["not-in-enum"]


def test_pattern_mismatch(registry):
    assert kinds(validate_entity(parking(zoneCode="12AB"), registry)) \
        == ["pattern-mismatch"]


def test_unlisted_attributes_pass_untouched(registry):
    report = validate_entity(parking(comment="anything goes", weird=[1, 2]), registry)
    assert report.valid


def test_multiple_violations_accumulate(registry):
    entity = make_entity("lot-1", "OnStreetParking",
                         availableSpotNumber=-3, status="ajar")
    report = validate_entity(entity, registry)
    assert sorted(kinds(report)) == ["missing-required", "not-in-enum", "out-of-range"]


def test_report_document_shape(registry):
    doc = asdict(validate_entity(parking(status="ajar"), registry))
    assert doc["entityId"] == "lot-1"
    assert doc["violations"][0]["ruleKind"] == "not-in-enum"
    assert set(doc["violations"][0]) == {"attributeName", "ruleKind", "message"}


class TestSchemaParsing:
    def test_from_json_text(self, tmp_path):
        (tmp_path / "parking.json").write_text(json.dumps(PARKING_SCHEMA))
        schema = load_schemas(tmp_path)["OnStreetParking"]
        assert schema.entityType == "OnStreetParking"
        assert schema.attributeRules["status"].enumValues == frozenset({"open", "closed"})

    def test_rejects_required_without_rule(self):
        with pytest.raises(SchemaError):
            DataModelSchema.from_doc({"entityType": "T",
                                      "requiredAttributes": ["ghost"]})

    def test_rejects_enum_and_pattern_together(self):
        with pytest.raises(SchemaError):
            Rule("Text", enumValues=frozenset({"a"}), pattern="a")

    def test_rejects_inverted_range_and_bad_pattern(self):
        with pytest.raises(SchemaError):
            Rule("Number", numericRange=(5, 1))
        with pytest.raises(SchemaError):
            Rule.from_doc("x", {"expectedValueType": "Text", "pattern": "("})

    def test_rejects_malformed_documents(self):
        with pytest.raises(SchemaError):
            DataModelSchema.from_doc({"attributeRules": {}})
        with pytest.raises(SchemaError):
            DataModelSchema.from_doc({"entityType": "T",
                                      "attributeRules": {"a": {}}})

    @pytest.mark.parametrize("doc, detail", [
        ({"attributeRules": ["a"]}, "attributeRules must be an object"),
        ({"attributeRules": {"a": {"expectedValueType": "Number", "numericRange": [0]}}},
         "rule for 'a': numericRange must be [min, max]"),
        ({"attributeRules": {"a": {"expectedValueType": "Number", "numericRange": 5}}},
         "rule for 'a': numericRange must be [min, max]"),
        ({"lessOrEqual": [["a", "b", "c"]]}, "lessOrEqual entries must be [a, b]"),
        ({"lessOrEqual": ["ab"]}, "lessOrEqual entries must be [a, b]"),
    ])
    def test_rejects_a_malformed_part(self, doc, detail):
        with pytest.raises(SchemaError) as err:
            DataModelSchema.from_doc({"entityType": "T", **doc})
        assert (err.value.kind, err.value.message) == ("parse-error", detail)


def test_load_schemas_refuses_a_file_that_is_not_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(KindError) as err:
        load_schemas(tmp_path)
    assert err.value.kind == "parse-error"
    assert str(bad) in err.value.message


def test_registry_load_dir(tmp_path):
    (tmp_path / "parking.json").write_text(json.dumps(PARKING_SCHEMA))
    (tmp_path / "sensor.json").write_text(json.dumps({
        "entityType": "Sensor",
        "attributeRules": {"level": {"expectedValueType": "Number"}},
    }))
    (tmp_path / "notes.txt").write_text("ignored")
    schemas = load_schemas(tmp_path)
    assert len(schemas) == 2
    assert sorted(schemas) == ["OnStreetParking", "Sensor"]


def test_registry_reload_replaces_schema(registry):
    relaxed = dict(PARKING_SCHEMA, requiredAttributes=[])
    registry["OnStreetParking"] = DataModelSchema.from_doc(relaxed)
    entity = make_entity("lot-1", "OnStreetParking")
    assert validate_entity(entity, registry).valid


def test_bundled_registry_covers_the_city_types():
    registry = bundled_registry()
    expected = {
        "OnStreetParking", "ParkingSpot", "TrafficFlowObserved",
        "NoiseLevelObserved", "ArrivalEstimation", "GtfsAgency", "GtfsStop",
        "GtfsRoute", "GtfsTrip", "GtfsStopTime", "GtfsService",
        "GtfsTransitFeedFile",
    }
    assert expected <= set(registry)


def test_validate_batch_counts_and_sink(registry):
    entities = [
        parking(),
        parking(availableSpotNumber=-1),
        make_entity("x", "Mystery"),
        parking(status="ajar"),
    ]
    reports = []
    summary = validate_batch(entities, registry, report_sink=reports.append)
    assert summary == {
        "total": 4,
        "valid": 1,
        "invalid": 3,
        "perKindCounts": {"not-in-enum": 1, "out-of-range": 1,
                          "unknown-entity-type": 1},
    }
    assert len(reports) == 4
    assert reports[0]["violations"] == []
