"""Mapper tests: path resolution, rule transforms, linked-data translation."""

import pytest

from citykit.ngsi import Attribute, make_entity
from citykit.transforms import (
    MappingRuleSet,
    TransformError,
    json_to_ngsi,
    ngsi_to_ngsild,
    resolve_path,
)

from oracles import extract_ld_values, value_multiset

RULES_DOC = {
    "entityTypeTemplate": "ParkingSite",
    "idTemplate": "parking-{meta.code}",
    "attributeMappings": [
        {"sourcePath": "spots.free", "targetAttribute": "availableSpotNumber",
         "valueType": "Number"},
        {"sourcePath": "spots.total", "targetAttribute": "totalSpotNumber",
         "valueType": "Number"},
        {"sourcePath": "occupancy_pct", "targetAttribute": "occupancy",
         "valueType": "Number", "transform": {"name": "scale", "factor": 0.01}},
        {"sourcePath": "state", "targetAttribute": "status", "valueType": "Text",
         "transform": {"name": "enumMap", "table": {"0": "closed", "1": "open"}}},
        {"sourcePath": "read_at", "targetAttribute": "dateObserved",
         "valueType": "DateTime",
         "transform": {"name": "parseTimestamp", "format": "%d/%m/%Y %H:%M"}},
    ],
}

RECORD = {
    "meta": {"code": "A7"},
    "spots": {"free": 11, "total": 40},
    "occupancy_pct": 37,
    "state": "1",
    "read_at": "02/06/2025 08:15",
}


@pytest.fixture
def rules():
    return MappingRuleSet.from_doc(RULES_DOC)


class TestResolvePath:
    def test_dots_and_brackets(self):
        doc = {"a": {"b": [{"c": 5}, {"c": 7}]}}
        assert resolve_path(doc, "a.b[1].c") == (True, 7)
        assert resolve_path(doc, "a.b[0].c") == (True, 5)

    def test_missing_steps_report_not_found(self):
        doc = {"a": [1]}
        assert resolve_path(doc, "a[3]") == (False, None)
        assert resolve_path(doc, "a.b") == (False, None)
        assert resolve_path(doc, "nope") == (False, None)

    def test_found_none_is_distinguishable(self):
        assert resolve_path({"a": None}, "a") == (True, None)


class TestJsonToNgsi:
    def test_maps_one_record(self, rules):
        outcome = json_to_ngsi(RECORD, rules)
        assert outcome.errors == []
        (entity,) = outcome.entities
        assert entity.id == "parking-A7"
        assert entity.entityType == "ParkingSite"
        assert entity.value("availableSpotNumber") == 11
        assert entity.value("status") == "open"
        assert entity.value("dateObserved") == "2025-06-02T08:15:00Z"

    def test_scale_keeps_decimal_values_clean(self, rules):
        entity = json_to_ngsi(RECORD, rules).entities[0]
        assert entity.value("occupancy") == 0.37  # exactly, not 0.370000...04

    def test_array_root_fans_out(self, rules):
        records = [RECORD, dict(RECORD, meta={"code": "B2"})]
        outcome = json_to_ngsi(records, rules)
        assert [e.id for e in outcome.entities] == ["parking-A7", "parking-B2"]

    def test_unresolvable_id_is_reported_not_fatal(self, rules):
        records = [{"spots": {"free": 1}}, RECORD]
        outcome = json_to_ngsi(records, rules)
        assert [e.id for e in outcome.entities] == ["parking-A7"]
        (err,) = outcome.errors
        assert err["index"] == 0
        assert err["error"] == "id-unresolvable"

    def test_missing_optional_path_skips_attribute(self, rules):
        record = dict(RECORD)
        del record["occupancy_pct"]
        outcome = json_to_ngsi(record, rules)
        assert outcome.errors == []
        assert "occupancy" not in outcome.entities[0].attributes

    def test_transform_failure_drops_attribute_keeps_entity(self, rules):
        record = dict(RECORD, state="9")  # not in the enum table
        outcome = json_to_ngsi(record, rules)
        (entity,) = outcome.entities
        assert "status" not in entity.attributes
        assert entity.value("availableSpotNumber") == 11
        (err,) = outcome.errors
        assert err["error"] == "transform-error"
        assert err["attribute"] == "status"

    def test_scale_rejects_non_numbers(self, rules):
        record = dict(RECORD, occupancy_pct="37%")
        outcome = json_to_ngsi(record, rules)
        assert outcome.errors[0]["error"] == "transform-error"

    def test_bad_timestamp_reported(self, rules):
        for read_at in ("junk", 20250602):  # not in the format, not a string
            outcome = json_to_ngsi(dict(RECORD, read_at=read_at), rules)
            assert outcome.errors[0]["attribute"] == "dateObserved"

    def test_records_equals_entities_plus_id_failures(self, rules):
        records = [RECORD, {}, dict(RECORD, state="9"), {}]
        outcome = json_to_ngsi(records, rules)
        id_failures = [e for e in outcome.errors if e["error"] == "id-unresolvable"]
        assert len(records) == len(outcome.entities) + len(id_failures)

    def test_an_id_or_type_that_fills_to_nothing_is_unresolvable(self):
        rules = MappingRuleSet.from_doc({"entityTypeTemplate": "{kind}", "idTemplate": "{code}"})
        records = [{"code": "a", "kind": "T"}, {"code": "", "kind": "T"},
                   {"code": "c", "kind": ""}, {"code": "d", "kind": "T"}]
        outcome = json_to_ngsi(records, rules)
        assert [e.id for e in outcome.entities] == ["a", "d"]
        assert [(e["index"], e["error"]) for e in outcome.errors] == [
            (1, "id-unresolvable"), (2, "id-unresolvable")]


class TestRuleParsing:
    def test_rejects_duplicate_targets(self):
        doc = dict(RULES_DOC)
        doc["attributeMappings"] = [
            {"sourcePath": "a", "targetAttribute": "x", "valueType": "Number"},
            {"sourcePath": "b", "targetAttribute": "x", "valueType": "Number"},
        ]
        with pytest.raises(TransformError):
            MappingRuleSet.from_doc(doc)

    @pytest.mark.parametrize("target", ["", None, 5])
    def test_rejects_a_target_attribute_that_is_not_a_name(self, target):
        doc = dict(RULES_DOC)
        doc["attributeMappings"] = [
            {"sourcePath": "a", "targetAttribute": target, "valueType": "Number"},
        ]
        with pytest.raises(TransformError) as err:
            MappingRuleSet.from_doc(doc)
        assert err.value.kind == "invalid-rules"

    def test_rejects_unknown_transform(self):
        doc = dict(RULES_DOC)
        doc["attributeMappings"] = [
            {"sourcePath": "a", "targetAttribute": "x", "valueType": "Number",
             "transform": "uppercase"},
        ]
        with pytest.raises(TransformError):
            MappingRuleSet.from_doc(doc)

    @pytest.mark.parametrize("transform", [
        None, ["scale"], 5,
        {"name": "scale", "factor": "ab"}, {"name": "scale", "factor": True},
        {"name": "scale", "factor": None},
        {"name": "enumMap", "table": [["0", "closed"]]}, {"name": "enumMap", "table": None},
        {"name": "parseTimestamp", "format": 5},
        {"factor": 2}, {"name": ["scale"]},
    ])
    def test_rejects_a_transform_it_cannot_run_when_the_rules_load(self, transform):
        doc = dict(RULES_DOC)
        doc["attributeMappings"] = [
            {"sourcePath": "a", "targetAttribute": "x", "valueType": "Number",
             "transform": transform},
        ]
        with pytest.raises(TransformError) as err:
            MappingRuleSet.from_doc(doc)
        assert err.value.kind == "invalid-rules"

    @pytest.mark.parametrize("transform, source, value", [
        ("scale", 7, 7),
        ({"name": "scale"}, 2.5, 2.5),
        ({"name": "identity", "factor": "ignored"}, "x", "x"),
        ("parseTimestamp", "2025-06-02 08:15:00", "2025-06-02T08:15:00Z"),
    ])
    def test_a_transform_named_without_its_parameter_takes_the_default(
            self, transform, source, value):
        rules = MappingRuleSet.from_doc({**RULES_DOC, "attributeMappings": [
            {"sourcePath": "a", "targetAttribute": "x", "valueType": "Number",
             "transform": transform}]})
        outcome = json_to_ngsi({"meta": {"code": "A7"}, "a": source}, rules)
        assert outcome.errors == []
        assert outcome.entities[0].value("x") == value

    def test_rejects_missing_fields_and_bad_json(self):
        with pytest.raises(TransformError):
            MappingRuleSet.from_doc({"idTemplate": "x"})
        with pytest.raises(TransformError, match=r"mapping missing \['targetAttribute'"):
            MappingRuleSet.from_doc({**RULES_DOC, "attributeMappings": [{"sourcePath": "a"}]})

    def test_entity_type_template_is_templated_too(self):
        rules = MappingRuleSet.from_doc({
            "entityTypeTemplate": "{kind}",
            "idTemplate": "{kind}-{n}",
        })
        outcome = json_to_ngsi({"kind": "Sensor", "n": 4}, rules)
        assert outcome.entities[0].entityType == "Sensor"
        assert outcome.entities[0].id == "Sensor-4"


class TestNgsiToLd:
    def test_plain_id_gains_urn_prefix(self):
        entity = make_entity("lot-1", "ParkingSite", availableSpotNumber=3)
        ld = ngsi_to_ngsild(entity, "https://ctx.example/core.jsonld")
        assert ld["id"] == "urn:ngsi-ld:ParkingSite:lot-1"
        assert ld["@context"] == ["https://ctx.example/core.jsonld"]

    def test_existing_urn_id_kept(self):
        entity = make_entity("urn:custom:55", "Sensor", level=1)
        ld = ngsi_to_ngsild(entity, "https://ctx.example/core.jsonld")
        assert ld["id"] == "urn:custom:55"

    def test_property_value_untouched(self):
        entity = make_entity("s-1", "Sensor", level=7.5, tags=["a", "b"])
        doc = ngsi_to_ngsild(entity, "ctx")
        assert doc["level"] == {"type": "Property", "value": 7.5}
        assert doc["tags"]["value"] == ["a", "b"]

    def test_geo_json_becomes_geo_property(self):
        point = {"type": "Point", "coordinates": [-3.7, 40.4]}
        entity = make_entity("s-1", "Sensor", location=point)
        doc = ngsi_to_ngsild(entity, "ctx")
        assert doc["location"]["type"] == "GeoProperty"
        assert doc["location"]["value"] == point

    def test_reference_becomes_relationship_with_derived_type(self):
        entity = make_entity("st-1", "GtfsStopTime",
                             refStop=Attribute("S4", "Reference"))
        doc = ngsi_to_ngsild(entity, "ctx")
        assert doc["refStop"] == {"type": "Relationship",
                                  "object": "urn:ngsi-ld:Stop:S4"}

    def test_urn_reference_kept_verbatim(self):
        entity = make_entity("st-1", "GtfsStopTime",
                             refStop=Attribute("urn:custom:S4", "Reference"))
        doc = ngsi_to_ngsild(entity, "ctx")
        assert doc["refStop"]["object"] == "urn:custom:S4"

    def test_ref_name_without_reference_tag_stays_property(self):
        entity = make_entity("x", "T", refCount=3)
        doc = ngsi_to_ngsild(entity, "ctx")
        assert doc["refCount"]["type"] == "Property"

    def test_metadata_becomes_sub_properties(self):
        entity = make_entity("s-1", "Sensor",
                             level=Attribute(7, "Number", {"accuracy": 0.9}))
        doc = ngsi_to_ngsild(entity, "ctx")
        assert doc["level"]["accuracy"] == {"type": "Property", "value": 0.9}

    def test_empty_reference_is_malformed(self):
        entity = make_entity("x", "T", refStop=Attribute("", "Reference"))
        with pytest.raises(TransformError):
            ngsi_to_ngsild(entity, "ctx")

    @pytest.mark.parametrize("entity_id, ref, detail", [
        ("urn:x", "S4", "id 'urn:x' is not a URN"),
        ("x", "urn:x", "relationship 'refStop' object 'urn:x' is not a URN"),
    ])
    def test_a_urn_prefix_without_a_namespace_is_malformed(self, entity_id, ref, detail):
        entity = make_entity(entity_id, "T", refStop=Attribute(ref, "Reference"))
        with pytest.raises(TransformError) as err:
            ngsi_to_ngsild(entity, "ctx")
        assert (err.value.kind, err.value.message) == ("malformed-reference", detail)

    def test_extraction_recovers_values(self):
        entity = make_entity(
            "lot-1", "ParkingSite",
            availableSpotNumber=3,
            refZone=Attribute("z9", "Reference"),
            refDepot=Attribute("urn:custom:d1", "Reference"),
        )
        doc = ngsi_to_ngsild(entity, "ctx")
        got = value_multiset(extract_ld_values(doc))
        want = value_multiset((n, a.value) for n, a in entity.attributes.items())
        assert got == want
