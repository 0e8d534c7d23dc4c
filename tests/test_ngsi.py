"""Entity model: construction, wire round-trips, validation, helpers."""

import pytest

from citykit.ngsi import (
    Attribute,
    NgsiEntity,
    NgsiError,
    check_entity,
    infer_value_type,
    iso_utc,
    make_entity,
    parse_iso,
)


def test_attribute_wire_round_trip():
    attr = Attribute(42, "Number", {"unit": "spots"})
    doc = attr.to_wire()
    assert doc == {"value": 42, "valueType": "Number", "metadata": {"unit": "spots"}}
    assert Attribute.from_wire(doc) == attr


def test_attribute_wire_omits_empty_metadata():
    assert Attribute("x", "Text").to_wire() == {"value": "x", "valueType": "Text"}


def test_attribute_from_wire_infers_type_when_missing():
    assert Attribute.from_wire({"value": 3}).valueType == "Number"
    assert Attribute.from_wire({"value": "hi"}).valueType == "Text"


def test_attribute_from_wire_rejects_missing_value():
    with pytest.raises(NgsiError):
        Attribute.from_wire({"valueType": "Number"})


def test_attribute_from_wire_rejects_bad_metadata():
    with pytest.raises(NgsiError):
        Attribute.from_wire({"value": 1, "metadata": "oops"})


@pytest.mark.parametrize("metadata", [False, 0, "", []])
def test_attribute_from_wire_refuses_falsy_metadata(metadata):
    with pytest.raises(NgsiError, match="metadata must be an object"):
        Attribute.from_wire({"value": 1, "metadata": metadata})


@pytest.mark.parametrize("attributes", [0, False, "", []])
def test_entity_from_wire_refuses_falsy_attributes(attributes):
    with pytest.raises(NgsiError, match="attributes must be an object"):
        NgsiEntity.from_wire({"id": "e1", "entityType": "T", "attributes": attributes})


def test_null_attributes_and_metadata_read_as_none():
    assert Attribute.from_wire({"value": 1, "metadata": None}).metadata == {}
    entity = NgsiEntity.from_wire({"id": "e1", "entityType": "T", "attributes": None})
    assert entity.attributes == {}


def test_entity_wire_round_trip():
    entity = make_entity("stop-1", "GtfsStop", name="Centro", latitude=40.1)
    doc = entity.to_wire()
    assert doc["id"] == "stop-1"
    assert doc["entityType"] == "GtfsStop"
    assert NgsiEntity.from_wire(doc) == entity


def test_entity_from_wire_requires_id_and_type():
    with pytest.raises(NgsiError):
        NgsiEntity.from_wire({"id": "x"})
    with pytest.raises(NgsiError):
        NgsiEntity.from_wire({"entityType": "T"})
    with pytest.raises(NgsiError):
        NgsiEntity.from_wire("not a dict")


@pytest.mark.parametrize("doc", [
    {"id": "", "entityType": "T"},
    {"id": 5, "entityType": "T"},
    {"id": "e1", "entityType": ""},
    {"id": "e1", "entityType": None},
    {"id": "e1", "entityType": "T", "attributes": {"": {"value": 1}}},
])
def test_entity_from_wire_requires_non_empty_names(doc):
    with pytest.raises(NgsiError) as err:
        NgsiEntity.from_wire(doc)
    assert "must be a non-empty string" in err.value.message


def test_entity_copy_is_deep_for_attributes():
    entity = make_entity("e1", "T", level=Attribute(1, "Number", {"a": 1}))
    clone = entity.copy()
    clone.attributes["level"].metadata["a"] = 2
    clone.set("other", 9)
    assert entity.attributes["level"].metadata == {"a": 1}
    assert "other" not in entity.attributes


def test_value_accessor_with_default():
    entity = make_entity("e1", "T", level=5)
    assert entity.value("level") == 5
    assert entity.value("missing", "fallback") == "fallback"


def test_infer_value_type_covers_json_kinds():
    assert infer_value_type(True) == "Boolean"
    assert infer_value_type(3) == "Number"
    assert infer_value_type(3.5) == "Number"
    assert infer_value_type("plain") == "Text"
    assert infer_value_type("2025-06-02T08:00:00Z") == "DateTime"
    assert infer_value_type({"type": "Point", "coordinates": [0, 0]}) == "geo:json"
    assert infer_value_type({"a": 1}) == "StructuredValue"
    assert infer_value_type([1, 2]) == "StructuredValue"


class TestValidation:
    def test_accepts_well_formed_entity(self):
        check_entity(make_entity("e1", "T", level=3, when="2025-06-02T08:00:00Z"))

    def test_rejects_whitespace_in_id(self):
        with pytest.raises(NgsiError):
            check_entity(NgsiEntity(id="has space", entityType="T"))

    def test_rejects_reserved_attribute_names(self):
        entity = NgsiEntity(id="e1", entityType="T",
                            attributes={"type": Attribute(1, "Number")})
        with pytest.raises(NgsiError):
            check_entity(entity)

    def test_rejects_bad_attribute_characters(self):
        entity = NgsiEntity(id="e1", entityType="T",
                            attributes={"a b": Attribute(1, "Number")})
        with pytest.raises(NgsiError):
            check_entity(entity)

    def test_number_tag_must_hold_a_number(self):
        entity = make_entity("e1", "T", level=Attribute("3", "Number"))
        with pytest.raises(NgsiError):
            check_entity(entity)

    def test_number_tag_rejects_bool(self):
        entity = make_entity("e1", "T", level=Attribute(True, "Number"))
        with pytest.raises(NgsiError):
            check_entity(entity)

    def test_datetime_tag_must_hold_iso_text(self):
        entity = make_entity("e1", "T", when=Attribute("yesterday", "DateTime"))
        with pytest.raises(NgsiError):
            check_entity(entity)

    def test_unknown_value_type_tags_pass_through(self):
        check_entity(make_entity("e1", "T", x=Attribute(1, "CustomTag")))


def test_iso_utc_and_parse_iso_invert():
    ts = 1748851680.0
    assert parse_iso(iso_utc(ts)) == ts


def test_parse_iso_accepts_offsets_and_fractions():
    base = parse_iso("2025-06-02T08:00:00Z")
    assert parse_iso("2025-06-02T10:00:00+02:00") == base
    assert parse_iso("2025-06-02T08:00:00.250Z") == base + 0.25
    for text in ("not a stamp", "2025-13-01T00:00:00Z", "2025-06-02T24:00:00Z",
                 "2025-06-02T08:00:99Z", "2025-02-30T08:00:00Z",
                 "2025-06-02T08:00:00+24:00", "2025-06-02T08:00:00+01:60"):
        with pytest.raises(NgsiError):
            parse_iso(text)
