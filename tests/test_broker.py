"""Context broker: store semantics, filtering, notifications, journal."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citykit.broker import (
    BrokerError,
    CollectSink,
    ContextBroker,
    InvalidEntity,
    MalformedPattern,
    MalformedSubscription,
    NotFound,
    Subscription,
    TypeMismatch,
    compare_values,
    notified_entities,
    parse_q,
)
from citykit.clock import SimulatedClock
from citykit.feedgen import Lcg64
from citykit.ngsi import Attribute, NgsiEntity, NgsiError, check_entity, make_entity

from oracles import OrderingMismatch, random_filters, random_store, scan_query


def make_parking(eid="p-1", spots=12):
    return make_entity(eid, "ParkingSite", availableSpotNumber=spots, name="Lot")


# -- entity store ------------------------------------------------------------

def test_upsert_reports_created_then_updated(broker):
    assert broker.upsert_entity(make_parking()) == "created"
    assert broker.upsert_entity(make_parking(spots=3)) == "updated"
    assert broker.get_entity("p-1").value("availableSpotNumber") == 3


def test_upsert_is_full_replace(broker):
    broker.upsert_entity(make_parking())
    broker.upsert_entity(make_entity("p-1", "ParkingSite", name="Renamed"))
    entity = broker.get_entity("p-1")
    assert "availableSpotNumber" not in entity.attributes
    assert entity.value("name") == "Renamed"


def test_upsert_validates_at_the_write_boundary(broker):
    bad = make_entity("p-1", "ParkingSite", level=Attribute("3", "Number"))
    with pytest.raises(InvalidEntity):
        broker.upsert_entity(bad)
    with pytest.raises(NotFound):
        broker.get_entity("p-1")


def test_get_returns_an_isolated_copy(broker):
    broker.upsert_entity(make_parking())
    broker.get_entity("p-1").set("availableSpotNumber", 0)
    assert broker.get_entity("p-1").value("availableSpotNumber") == 12


def test_update_attributes_patches_named_attrs_only(broker):
    broker.upsert_entity(make_parking())
    broker.update_attributes("p-1", {"availableSpotNumber": Attribute(7, "Number")})
    entity = broker.get_entity("p-1")
    assert entity.value("availableSpotNumber") == 7
    assert entity.value("name") == "Lot"


def test_update_attributes_rejects_unknown_entity_and_bad_patch(broker):
    with pytest.raises(NotFound):
        broker.update_attributes("ghost", {"x": Attribute(1, "Number")})
    broker.upsert_entity(make_parking())
    with pytest.raises(InvalidEntity):
        broker.update_attributes("p-1", {"x": 5})


def test_update_attributes_validates_the_result(broker):
    broker.upsert_entity(make_parking())
    with pytest.raises(InvalidEntity):
        broker.update_attributes("p-1", {"availableSpotNumber": Attribute("x", "Number")})
    # failed patch leaves the stored entity untouched
    assert broker.get_entity("p-1").value("availableSpotNumber") == 12


# -- querying ----------------------------------------------------------------

def seed_entities(broker):
    broker.upsert_entity(make_entity("a-2", "Sensor", level=5))
    broker.upsert_entity(make_entity("a-10", "Sensor", level=9, label="hi"))
    broker.upsert_entity(make_parking("b-1", spots=2))


def test_query_sorts_by_id(broker):
    seed_entities(broker)
    assert [e.id for e in broker.query_entities()] == ["a-10", "a-2", "b-1"]


def test_query_filters_by_type_and_id_pattern(broker):
    seed_entities(broker)
    assert [e.id for e in broker.query_entities(typeFilter="Sensor")] == ["a-10", "a-2"]
    # pattern matches anywhere in the id
    assert [e.id for e in broker.query_entities(idPattern="-1")] == ["a-10", "b-1"]
    assert [e.id for e in broker.query_entities(idPattern="^a-2$")] == ["a-2"]


def test_query_attr_filters_and_together(broker):
    seed_entities(broker)
    assert [e.id for e in broker.query_entities(attrFilter=[("level", ">", 4)])] \
        == ["a-10", "a-2"]
    assert [e.id for e in broker.query_entities(
        attrFilter=[("level", ">", 4), ("label", "==", "hi")])] == ["a-10"]


def test_query_missing_attribute_never_matches(broker):
    seed_entities(broker)
    assert broker.query_entities(attrFilter=[("nope", "==", 1)]) == []
    # != included: absence is not inequality
    assert broker.query_entities(attrFilter=[("nope", "!=", 1)]) == []


def test_query_rejects_bad_id_pattern(broker):
    with pytest.raises(MalformedPattern):
        broker.query_entities(idPattern="(")


def test_query_ordering_across_kinds_raises(broker):
    seed_entities(broker)
    with pytest.raises(TypeMismatch):
        broker.query_entities(attrFilter=[("label", "<", 3)])


def test_equality_is_type_strict_except_numeric_widths():
    assert compare_values(3, "==", 3.0)
    assert compare_values("3", "==", "3")
    assert not compare_values("3", "==", 3)
    assert not compare_values(1, "==", True)
    assert not compare_values(0, "!=", 0.0)


def test_parse_q_literals_and_clauses():
    assert parse_q("level>=5;label==hi") == [("level", ">=", 5), ("label", "==", "hi")]
    assert parse_q('name=="5"') == [("name", "==", "5")]
    assert parse_q("open==true") == [("open", "==", True)]
    with pytest.raises(MalformedPattern):
        parse_q("no comparator here")


def test_query_matches_linear_scan_on_random_stores():
    """Spot equivalence of the indexed path and the scan reference."""
    for seed in range(60):
        rng = Lcg64(seed * 9176 + 5)
        entities = random_store(rng, 1 + rng.randrange(25))
        tf, ip, af = random_filters(rng)
        broker = ContextBroker(delivery="manual")
        for entity in entities:
            broker.upsert_entity(entity)
        try:
            got = [e.id for e in broker.query_entities(tf, ip, af)]
        except TypeMismatch:
            got = TypeMismatch
        try:
            want = [e.id for e in scan_query(entities, tf, ip, af)]
        except OrderingMismatch:
            want = TypeMismatch
        assert got == want, f"seed {seed}: {tf} {ip} {af}"
        broker.close()


# -- subscriptions and notifications -----------------------------------------

def collect_sub(broker, **kwargs):
    sink = CollectSink()
    sub_id = broker.subscribe(Subscription(id="", target=sink, **kwargs))
    return sub_id, sink


def test_every_commit_notifies_in_order(broker):
    _, sink = collect_sub(broker)
    broker.upsert_entity(make_parking(spots=5))
    broker.update_attributes("p-1", {"availableSpotNumber": Attribute(4, "Number")})
    broker.upsert_entity(make_entity("q-1", "Sensor", level=1))
    seen = [(doc["data"][0]["id"], len(doc["data"])) for doc in sink.notifications]
    assert seen == [("p-1", 1), ("p-1", 1), ("q-1", 1)]


def test_notification_carries_snapshot_and_subscription_id(broker):
    sub_id, sink = collect_sub(broker)
    broker.upsert_entity(make_parking(spots=8))
    doc = sink.notifications[0]
    assert doc["subscriptionId"] == sub_id
    assert doc["data"][0]["attributes"]["availableSpotNumber"]["value"] == 8
    assert "issuedAt" in doc


def test_type_and_id_filters_select_commits(broker):
    _, sink = collect_sub(broker, entityTypeFilter="Sensor", idPattern="^a-")
    broker.upsert_entity(make_parking())                       # wrong type
    broker.upsert_entity(make_entity("b-1", "Sensor", level=1))  # wrong id
    broker.upsert_entity(make_entity("a-1", "Sensor", level=1))
    assert [doc["data"][0]["id"] for doc in sink.notifications] == ["a-1"]


def test_watched_attributes_gate_on_changed_set(broker):
    _, sink = collect_sub(broker, watchedAttributes=frozenset({"availableSpotNumber"}))
    broker.upsert_entity(make_parking(spots=5))  # upsert changes every attribute
    broker.update_attributes("p-1", {"name": Attribute("Lot B", "Text")})
    broker.update_attributes("p-1", {"availableSpotNumber": Attribute(1, "Number")})
    values = [doc["data"][0]["attributes"]["availableSpotNumber"]["value"]
              for doc in sink.notifications]
    assert values == [5, 1]


def test_unsubscribe_stops_notifications_immediately(broker):
    sub_id, sink = collect_sub(broker)
    broker.upsert_entity(make_parking())
    assert broker.unsubscribe(sub_id) is True
    broker.upsert_entity(make_parking(spots=1))
    broker.upsert_entity(make_entity("x-1", "Sensor", level=0))
    assert len(sink.notifications) == 1
    with pytest.raises(NotFound):
        broker.unsubscribe(sub_id)


def test_unsubscribe_drops_queued_backlog():
    broker = ContextBroker(delivery="manual")
    sub_id, sink = collect_sub(broker)
    broker.upsert_entity(make_parking())
    broker.unsubscribe(sub_id)
    broker.deliver_notifications()
    assert sink.notifications == []
    broker.close()


def test_throttle_first_delivery_immediate_then_coalesced():
    clock = SimulatedClock(1000.0)
    broker = ContextBroker(clock=clock, delivery="manual")
    _, sink = collect_sub(broker, throttlingSeconds=60)
    broker.upsert_entity(make_parking(spots=5))
    broker.deliver_notifications()
    assert len(sink.notifications) == 1

    broker.update_attributes("p-1", {"availableSpotNumber": Attribute(4, "Number")})
    broker.update_attributes("p-1", {"availableSpotNumber": Attribute(3, "Number")})
    broker.upsert_entity(make_entity("q-1", "Sensor", level=2))
    broker.deliver_notifications()
    assert len(sink.notifications) == 1  # still inside the throttle window

    clock.advance(60)
    broker.deliver_notifications()
    assert len(sink.notifications) == 2
    batch = sink.notifications[1]["data"]
    # one latest snapshot per entity, first-appearance order
    assert [d["id"] for d in batch] == ["p-1", "q-1"]
    assert batch[0]["attributes"]["availableSpotNumber"]["value"] == 3
    broker.close()


def test_failing_sink_is_retired_after_three_strikes(broker):
    class Exploding:
        def deliver(self, doc):
            raise RuntimeError("sink down")

    sub_id = broker.subscribe(Subscription(id="", target=Exploding()))
    for spots in (3, 2, 1):
        broker.upsert_entity(make_parking(spots=spots))
    assert broker.subscription_status(sub_id) == "failed"
    # a failed subscription no longer receives anything, but stays inspectable
    broker.upsert_entity(make_parking(spots=0))
    assert broker.subscription_status(sub_id) == "failed"


def test_callable_target_and_wire_subscription(broker):
    seen = []
    sub_id = broker.subscribe(Subscription.from_wire({
        "entityTypeFilter": "ParkingSite",
        "target": seen.append,
    }))
    assert isinstance(sub_id, str) and sub_id
    broker.upsert_entity(make_parking())
    assert len(seen) == 1


def test_wire_subscription_rejects_unknown_fields(broker):
    with pytest.raises(MalformedSubscription):
        broker.subscribe(Subscription.from_wire({"target": lambda d: None,
                                                 "entityType": "Oops"}))


def test_subscription_rejects_bad_pattern_and_negative_throttle(broker):
    with pytest.raises(MalformedSubscription):
        broker.subscribe(Subscription(id="", idPattern="(", target=lambda d: None))
    with pytest.raises(MalformedSubscription):
        broker.subscribe(Subscription(id="", throttlingSeconds=-1, target=lambda d: None))


def test_notification_completeness_under_many_commits(broker):
    """No commit matching an active subscription is ever dropped."""
    _, sink = collect_sub(broker, entityTypeFilter="Sensor")
    expected = []
    for i in range(200):
        eid = f"s-{i % 17}"
        broker.upsert_entity(make_entity(eid, "Sensor", level=i))
        expected.append((eid, i))
    got = [(doc["data"][0]["id"],
            doc["data"][0]["attributes"]["level"]["value"]) for doc in sink.notifications]
    assert got == expected


# -- journal -----------------------------------------------------------------

def test_journal_replays_entities_on_restart(tmp_path):
    path = tmp_path / "journal.jsonl"
    broker = ContextBroker(journal_path=path)
    broker.upsert_entity(make_parking(spots=9))
    broker.update_attributes("p-1", {"availableSpotNumber": Attribute(6, "Number")})
    broker.upsert_entity(make_entity("q-1", "Sensor", level=3))
    broker.close()

    reborn = ContextBroker(journal_path=path)
    assert reborn.entity_count() == 2
    assert reborn.get_entity("p-1").value("availableSpotNumber") == 6
    assert reborn.get_entity("q-1").value("level") == 3
    reborn.close()


def test_journal_survives_a_second_generation(tmp_path):
    path = tmp_path / "journal.jsonl"
    first = ContextBroker(journal_path=path)
    first.upsert_entity(make_parking())
    first.close()
    second = ContextBroker(journal_path=path)
    second.upsert_entity(make_entity("r-9", "Sensor", level=1))
    second.close()
    third = ContextBroker(journal_path=path)
    assert {e.id for e in third.query_entities()} == {"p-1", "r-9"}
    third.close()


def test_torn_last_journal_record_is_cut_off(tmp_path, caplog):
    path = tmp_path / "journal.jsonl"
    first = ContextBroker(journal_path=path)
    first.upsert_entity(make_parking(spots=9))
    first.close()
    whole = path.read_bytes()
    with open(path, "ab") as fh:  # a crash halfway through the next record
        fh.write(b'{"entity": {"id": "q-1", "entityT')

    second = ContextBroker(journal_path=path)
    assert "torn record at line 2" in caplog.text
    assert path.read_bytes() == whole
    assert [e.id for e in second.query_entities()] == ["p-1"]
    second.upsert_entity(make_entity("q-2", "Sensor", level=1))
    second.close()

    third = ContextBroker(journal_path=path)
    assert [e.id for e in third.query_entities()] == ["p-1", "q-2"]
    assert third.get_entity("p-1").value("availableSpotNumber") == 9
    third.close()


def test_corrupt_record_inside_the_journal_fails_loudly(tmp_path):
    path = tmp_path / "journal.jsonl"
    first = ContextBroker(journal_path=path)
    first.upsert_entity(make_parking())
    first.upsert_entity(make_entity("q-1", "Sensor", level=3))
    first.close()
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0] + b'{"op": "ups\n' + lines[1])
    with pytest.raises(BrokerError, match="line 2"):
        ContextBroker(journal_path=path)


@pytest.mark.parametrize("record", [
    {"op": "upsert", "entity": {"id": "q-1", "entityType": "Sensor", "attributes": {
        "level": {"value": "high", "valueType": "Number"}}}},
    {"op": "upsert", "entity": {"id": "q 1", "entityType": "Sensor"}},
    {"op": "upsert"},
    {"op": "patch", "id": "p-1", "attrs": {"type": {"value": "Lot", "valueType": "Text"}}},
    {"op": "patch", "id": "p-1", "attrs": {
        "opened": {"value": "yesterday", "valueType": "DateTime"}}},
    ["op", "upsert"],
])
def test_invalid_record_inside_the_journal_fails_loudly(tmp_path, record):
    """Replay checks each record as its commit was checked."""
    path = tmp_path / "journal.jsonl"
    first = ContextBroker(journal_path=path)
    first.upsert_entity(make_parking())
    first.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    with pytest.raises(BrokerError, match=f"journal {path} line 2 is invalid"):
        ContextBroker(journal_path=path)


# -- committed versions -------------------------------------------------------

def test_queued_notification_keeps_the_version_it_committed():
    broker = ContextBroker(delivery="manual")
    _, sink = collect_sub(broker)
    broker.upsert_entity(make_parking(spots=9))
    broker.update_attributes("p-1", {"availableSpotNumber": Attribute(6, "Number")})
    broker.update_attributes("p-1", {"name": Attribute("Lot B", "Text"),
                                     "availableSpotNumber": Attribute(3, "Number")})
    broker.deliver_notifications()
    seen = [(doc["data"][0]["attributes"]["availableSpotNumber"]["value"],
             doc["data"][0]["attributes"]["name"]["value"]) for doc in sink.notifications]
    assert seen == [(9, "Lot"), (6, "Lot"), (3, "Lot B")]
    broker.close()


def test_patch_result_and_notification_docs_are_the_callers_to_mutate(broker):
    def vandal(doc):
        attrs = doc["data"][0]["attributes"]
        attrs["availableSpotNumber"]["value"] = -1
        attrs["name"]["metadata"] = {"scribbled": True}
        attrs.pop("name")

    broker.subscribe(Subscription(id="", target=vandal))
    _, sink = collect_sub(broker)
    broker.upsert_entity(make_parking(spots=9))
    result = broker.update_attributes("p-1", {"availableSpotNumber": Attribute(
        6, "Number", {"unit": "spots"})})
    result.set("availableSpotNumber", 0)
    result.attributes["name"].metadata["scribbled"] = True
    result.attributes.pop("name")

    stored = broker.get_entity("p-1")
    assert stored.value("availableSpotNumber") == 6
    assert stored.attributes["availableSpotNumber"].metadata == {"unit": "spots"}
    assert stored.attributes["name"].metadata == {}
    assert [doc["data"][0]["attributes"]["availableSpotNumber"]["value"]
            for doc in sink.notifications] == [9, 6]
    assert all("name" in doc["data"][0]["attributes"] for doc in sink.notifications)


def test_patch_copies_the_callers_attributes_in(broker):
    broker.upsert_entity(make_parking())
    mine = Attribute(7, "Number", {"unit": "spots"})
    broker.update_attributes("p-1", {"availableSpotNumber": mine})
    mine.value = "seven"
    mine.metadata["unit"] = "cars"
    stored = broker.get_entity("p-1").attributes["availableSpotNumber"]
    assert (stored.value, stored.metadata) == (7, {"unit": "spots"})


class ReferenceStore:
    """Every candidate deep-copied and run through the full entity check."""

    def __init__(self):
        self.entities = {}
        self.commits = []  # the wire form of every accepted version, in order

    def upsert(self, entity):
        return self._commit(copy.deepcopy(entity))

    def patch(self, entity_id, patch):
        if entity_id not in self.entities:
            return "not-found"
        if not patch:
            return "ok"
        candidate = copy.deepcopy(self.entities[entity_id])
        for name, attr in patch.items():
            candidate.attributes[name] = copy.deepcopy(attr)
        return self._commit(candidate)

    def _commit(self, candidate):
        try:
            check_entity(candidate)
        except NgsiError:
            return "invalid"
        self.entities[candidate.id] = candidate
        self.commits.append(candidate.to_wire())
        return "ok"


ATTR_NAMES = st.sampled_from(["level", "name", "when", "note", "id", "type", "bad name"])
ATTRIBUTES = st.builds(
    Attribute,
    st.one_of(st.integers(-3, 3), st.floats(allow_nan=False, width=32), st.booleans(),
              st.sampled_from(["", "Lot", "2025-06-02T08:00:00Z", "yesterday"])),
    st.sampled_from(["Number", "Text", "DateTime", "Boolean"]),
    st.dictionaries(st.sampled_from(["unit", "observedAt"]), st.integers(0, 3), max_size=1),
)
OPERATIONS = st.lists(st.tuples(
    st.sampled_from(["upsert", "patch"]),
    st.sampled_from(["p-1", "p-2", "p 3"]),
    st.dictionaries(ATTR_NAMES, ATTRIBUTES, max_size=3),
), max_size=25)


@settings(max_examples=300, deadline=None, database=None)
@given(OPERATIONS)
def test_commits_match_a_deep_copying_full_check_reference(operations):
    broker = ContextBroker(delivery="manual")
    _, sink = collect_sub(broker)
    reference = ReferenceStore()
    for op, entity_id, attrs in operations:
        if op == "upsert":
            entity = NgsiEntity(entity_id, "Sensor", attributes=attrs)
            want = reference.upsert(entity)
            call = lambda: broker.upsert_entity(entity)
        else:
            want = reference.patch(entity_id, attrs)
            call = lambda: broker.update_attributes(entity_id, attrs)
        try:
            call()
            got = "ok"
        except InvalidEntity:
            got = "invalid"
        except NotFound:
            got = "not-found"
        assert got == want, (op, entity_id, attrs)
    broker.deliver_notifications()
    assert [e.to_wire() for e in broker.query_entities()] == \
        [reference.entities[k].to_wire() for k in sorted(reference.entities)]
    assert [doc["data"][0] for doc in sink.notifications] == reference.commits
    broker.close()


@pytest.mark.parametrize("cls, kind", [
    (NotFound, "not-found"), (InvalidEntity, "invalid-entity"),
    (MalformedPattern, "malformed-pattern"), (TypeMismatch, "type-mismatch"),
    (MalformedSubscription, "malformed-subscription"),
])
def test_each_broker_error_names_its_wire_kind(cls, kind):
    exc = cls("what went wrong")
    assert (exc.kind, exc.message, str(exc)) == (kind, "what went wrong",
                                                 f"{kind}: what went wrong")


def test_a_rejected_entity_names_its_kind_once(broker):
    bad = NgsiEntity("p-1", "T", {"n": Attribute("s", "Number")})
    with pytest.raises(InvalidEntity) as err:
        broker.upsert_entity(bad)
    assert str(err.value).count("invalid-entity") == 1
    broker.upsert_entity(make_entity("p-1", "T", n=1))
    with pytest.raises(InvalidEntity) as err:
        broker.update_attributes("p-1", {"n": Attribute("s", "Number")})
    assert str(err.value).count("invalid-entity") == 1


def test_notified_entities_skips_only_malformed_entities(caplog):
    good = [make_entity("a", "T", n=1), make_entity("b", "T", n=2)]
    doc = {"data": [good[0].to_wire(), {"id": "no-type"}, good[1].to_wire(),
                    {"id": "c", "entityType": "T", "attributes": {"n": {}}}]}
    assert list(notified_entities(doc)) == good
    assert caplog.text.count("ignoring malformed entity") == 2
    assert list(notified_entities({})) == []
