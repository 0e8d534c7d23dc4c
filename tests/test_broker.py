"""Context broker: store semantics, filtering, notifications, journal."""

import copy
import json
import threading
from types import SimpleNamespace

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
    parse_q,
)
from citykit.clock import SimulatedClock
from citykit.estimator.ingest import ingest_subscription
from citykit.estimator.store import TimeSeriesStore
from citykit.feedgen import Lcg64
from citykit.httpd import JsonHttpServer
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
    assert parse_q("a==1;;b==2; ;") == [("a", "==", 1), ("b", "==", 2)]  # empty clauses


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


def test_one_notification_carries_the_whole_queue_in_commit_order():
    broker = ContextBroker(delivery="manual")
    _, sink = collect_sub(broker)
    broker.upsert_entity(make_parking(spots=5))
    broker.upsert_entity(make_entity("q-1", "Sensor", level=1))
    broker.update_attributes("p-1", {"availableSpotNumber": Attribute(4, "Number")})
    assert broker.deliver_notifications() == 1
    (doc,) = sink.notifications
    assert [(d["id"], d["attributes"].get("availableSpotNumber", {}).get("value"))
            for d in doc["data"]] == [("p-1", 5), ("q-1", None), ("p-1", 4)]
    assert broker.deliver_notifications() == 0
    broker.close()


def test_a_webhook_posts_every_queued_version_at_once():
    broker = ContextBroker(delivery="manual")
    bodies = []
    hook = JsonHttpServer()
    hook.add_route("POST", r"/hook", lambda match, params, body: bodies.append(body) or (200, {}))
    hook.start()
    try:
        broker.subscribe(Subscription(id="", target=hook.url("/hook")))
        broker.upsert_entity(make_parking(spots=5))
        broker.update_attributes("p-1", {"availableSpotNumber": Attribute(4, "Number")})
        assert broker.deliver_notifications() == 1
    finally:
        hook.stop()
        broker.close()
    (body,) = bodies
    assert [d["attributes"]["availableSpotNumber"]["value"] for d in body["data"]] == [5, 4]


def test_a_failed_delivery_keeps_its_batch_for_the_next_call():
    calls = []

    class FailsOnce:
        def deliver(self, sub_id, issued_at, versions):
            calls.append([v.value("level") for v in versions])
            if len(calls) == 1:
                raise RuntimeError("sink down")

    broker = ContextBroker(delivery="manual")
    sub = Subscription(id="", target=FailsOnce())
    broker.subscribe(sub)
    broker.upsert_entity(make_entity("a-1", "Sensor", level=1))
    broker.upsert_entity(make_entity("b-1", "Sensor", level=2))
    assert broker.deliver_notifications() == 0
    assert sub.consecutive_failures == 1
    broker.upsert_entity(make_entity("a-1", "Sensor", level=3))
    assert broker.deliver_notifications() == 1
    assert calls == [[1, 2], [1, 2, 3]]
    assert (sub.queue, sub.consecutive_failures, sub.status) == ([], 0, "active")
    broker.close()


def test_failing_sink_is_retired_after_three_strikes(broker):
    class Exploding:
        def deliver(self, sub_id, issued_at, versions):
            raise RuntimeError("sink down")

    sub = Subscription(id="", target=Exploding())
    broker.subscribe(sub)
    for spots in (3, 2, 1):
        broker.upsert_entity(make_parking(spots=spots))
    assert sub.status == "failed"
    assert sub.queue == []  # nothing would ever deliver it
    # a failed subscription no longer receives anything, but stays inspectable
    broker.upsert_entity(make_parking(spots=0))
    assert sub.status == "failed"


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


@pytest.mark.parametrize("target", [None, 5])
def test_a_target_that_is_no_sink_url_or_callable_is_refused(broker, target):
    with pytest.raises(MalformedSubscription, match="unusable notification target"):
        broker.subscribe(Subscription(id="", target=target))


def test_a_duplicate_subscription_id_is_refused(broker):
    first = broker.subscribe(Subscription(id="", target=lambda d: None))
    with pytest.raises(MalformedSubscription, match=f"duplicate subscription id '{first}'"):
        broker.subscribe(Subscription(id=first, target=lambda d: None))
    assert broker.unsubscribe(first)


def test_an_unknown_delivery_mode_is_refused():
    with pytest.raises(ValueError, match="unknown delivery mode 'eager'"):
        ContextBroker(delivery="eager")


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


def test_a_commit_that_finds_the_pump_ending_is_still_delivered():
    """A caller that finds the pump busy leaves its work to the running cycle,
    even when that cycle ends between the caller's failed try and its return."""
    broker = ContextBroker(delivery="inline")
    entered, unblock = threading.Event(), threading.Event()

    class BlockingSink:
        def deliver(self, sub_id, issued_at, versions):
            entered.set()
            unblock.wait(5)

    broker.subscribe(Subscription(id="a", entityTypeFilter="A", target=BlockingSink()))
    _, sink = collect_sub(broker, entityTypeFilter="B")
    first = threading.Thread(target=broker.upsert_entity, args=(make_entity("a-1", "A", n=1),))
    first.start()
    assert entered.wait(5)
    pump_lock = broker._pump_lock

    class LosingLock:
        """On a failed try, lets the running pump finish before answering."""

        def acquire(self, blocking=True):
            if pump_lock.acquire(blocking):
                return True
            unblock.set()
            first.join(5)
            return False

        def release(self):
            pump_lock.release()

    broker._pump_lock = LosingLock()
    broker.upsert_entity(make_entity("b-1", "B", n=1))
    assert not first.is_alive()
    assert [doc["data"][0]["id"] for doc in sink.notifications] == ["b-1"]
    broker.close()


def test_background_delivery_needs_no_pump_call_and_close_ends_it():
    broker = ContextBroker(delivery="background")
    delivered = threading.Event()
    seen = []

    class SignallingSink:
        def deliver(self, sub_id, issued_at, versions):
            seen.extend(version.id for version in versions)
            delivered.set()

    try:
        broker.subscribe(Subscription(id="", target=SignallingSink()))
        broker.upsert_entity(make_parking())
        assert delivered.wait(5.0)  # a failure bound only: the poll thread delivers
    finally:
        broker.close()
    assert seen == ["p-1"]
    assert not broker._poll_thread.is_alive()


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


@pytest.mark.parametrize("record, rule", [
    ({"id": "q-1", "entityType": "Sensor", "attributes": {
        "level": {"value": "high", "valueType": "Number"}}}, "tagged Number holds 'high'"),
    ({"id": "q 1", "entityType": "Sensor", "attributes": {}}, "without whitespace: 'q 1'"),
    ({"id": "q-1", "attributes": {}}, r"missing \['entityType'\]"),
    ({"id": "p-1", "entityType": "ParkingSite", "attributes": {
        "type": {"value": "Lot", "valueType": "Text"}}}, "name 'type' is reserved"),
    ({"id": "p-1", "entityType": "ParkingSite", "attributes": {
        "opened": {"value": "yesterday", "valueType": "DateTime"}}}, "non-ISO value 'yesterday'"),
    ([{"id": "q-1", "entityType": "Sensor", "attributes": {}}], "must be an object"),
    ({"id": "q-1", "entityType": "Sensor", "attributes": ""}, "attributes must be an object"),
    ({"id": "q-1", "entityType": "Sensor", "attributes": {
        "level": {"value": 3, "metadata": False}}}, "metadata must be an object"),
])
def test_invalid_record_inside_the_journal_fails_loudly(tmp_path, record, rule):
    """Replay checks each version as its commit was checked."""
    path = tmp_path / "journal.jsonl"
    first = ContextBroker(journal_path=path)
    first.upsert_entity(make_parking())
    first.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    with pytest.raises(BrokerError, match=f"journal {path} line 2 is invalid: .*{rule}"):
        ContextBroker(journal_path=path)


def test_a_journal_line_is_the_version_a_get_returns(tmp_path):
    path = tmp_path / "journal.jsonl"
    broker = ContextBroker(journal_path=path)
    broker.upsert_entity(make_parking(spots=9))
    upserted = broker.get_entity("p-1").to_wire()
    broker.update_attributes("p-1", {"availableSpotNumber": Attribute(6, "Number")})
    patched = broker.get_entity("p-1").to_wire()
    broker.close()
    assert path.read_bytes().splitlines() == [
        json.dumps(doc, sort_keys=True).encode("utf-8") for doc in (upserted, patched)]


def test_replay_loads_each_version_and_runs_no_commit_step(tmp_path, monkeypatch):
    path = tmp_path / "journal.jsonl"
    path.write_text("".join(json.dumps(e.to_wire()) + "\n" for e in [
        make_parking(spots=9), make_entity("q-1", "Sensor", level=3),
        make_entity("p-1", "Lot", open=True)]), encoding="utf-8")

    def no_commit(self, version, changed):
        raise AssertionError("replay ran a commit step")

    monkeypatch.setattr(ContextBroker, "_commit", no_commit)
    broker = ContextBroker(journal_path=path)
    assert [e.to_wire() for e in broker.query_entities()] == [  # the last line for p-1 wins
        make_entity("p-1", "Lot", open=True).to_wire(),
        make_entity("q-1", "Sensor", level=3).to_wire()]
    broker.close()


@pytest.mark.parametrize("text, reason", [
    # the operation records of the journal format before versions
    pytest.param(json.dumps({"op": "upsert", "entity": make_parking().to_wire()}) + "\n",
                 "line 1 is invalid", id="op-record"),
    pytest.param("\n" + json.dumps(make_parking().to_wire()) + "\n",
                 "line 1 is corrupt", id="blank-line"),
])
def test_a_journal_of_anything_but_versions_is_refused_at_start(tmp_path, text, reason):
    path = tmp_path / "journal.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(BrokerError, match=reason):
        ContextBroker(journal_path=path)
    assert path.read_text(encoding="utf-8") == text


def test_a_write_the_journal_refuses_is_not_applied(tmp_path, monkeypatch):
    broker = ContextBroker(journal_path=tmp_path / "journal.jsonl")
    broker.upsert_entity(make_entity("b", "Sensor", level=1))
    seen = []
    broker.subscribe(Subscription(id="", target=seen.extend))

    def disk_full(text):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(broker._journal_fh, "write", disk_full)
    with pytest.raises(OSError):
        broker.upsert_entity(make_entity("a", "Sensor", level=5))
    with pytest.raises(OSError):
        broker.update_attributes("b", {"level": Attribute(2, "Number")})
    assert [e.to_wire() for e in broker.query_entities()] == [
        make_entity("b", "Sensor", level=1).to_wire()]
    assert seen == []
    broker.close()


def test_a_failed_or_short_journal_write_is_cut_off_and_not_replayed(tmp_path, monkeypatch):
    path = tmp_path / "journal.jsonl"
    broker = ContextBroker(journal_path=path)
    broker.upsert_entity(make_entity("ok", "Sensor", level=1))
    real_write = broker._journal_fh.write

    def disk_full(data):
        raise OSError(28, "No space left on device")

    def half(data):  # a short write: half the record reaches the file
        return real_write(data[:len(data) // 2])

    faults = iter([disk_full, half])
    monkeypatch.setattr(broker._journal_fh, "write", lambda data: next(faults, real_write)(data))
    with pytest.raises(OSError):
        broker.upsert_entity(make_entity("refused", "Sensor", level=2))
    with pytest.raises(OSError):
        broker.update_attributes("ok", {"level": Attribute(3, "Number")})
    broker.upsert_entity(make_entity("later", "Sensor", level=4))
    acknowledged = [make_entity("later", "Sensor", level=4).to_wire(),
                    make_entity("ok", "Sensor", level=1).to_wire()]
    assert [e.to_wire() for e in broker.query_entities()] == acknowledged
    broker.close()
    reborn = ContextBroker(journal_path=path)
    assert [e.to_wire() for e in reborn.query_entities()] == acknowledged
    reborn.close()


def test_a_journal_that_cannot_cut_off_a_short_write_refuses_every_later_write(
        tmp_path, monkeypatch, caplog):
    path = tmp_path / "journal.jsonl"
    broker = ContextBroker(journal_path=path)
    broker.upsert_entity(make_entity("ok", "Sensor", level=1))
    real_write = broker._journal_fh.write

    def read_only(size):
        raise OSError(30, "Read-only file system")

    monkeypatch.setattr(broker._journal_fh, "write", lambda data: real_write(data[:5]))
    monkeypatch.setattr(broker._journal_fh, "truncate", read_only)
    with pytest.raises(OSError):
        broker.upsert_entity(make_entity("torn", "Sensor", level=2))
    with pytest.raises(ValueError):  # the append to the closed journal
        broker.upsert_entity(make_entity("later", "Sensor", level=3))
    assert [e.id for e in broker.query_entities()] == ["ok"]
    broker.close()
    reborn = ContextBroker(journal_path=path)
    assert "torn record at line 2" in caplog.text
    assert [e.to_wire() for e in reborn.query_entities()] == [
        make_entity("ok", "Sensor", level=1).to_wire()]
    reborn.close()


def test_a_closed_broker_takes_no_writes(tmp_path):
    path = tmp_path / "journal.jsonl"
    broker = ContextBroker(journal_path=path)
    broker.upsert_entity(make_parking(spots=9))
    broker.close()
    with pytest.raises(ValueError):  # the append to the closed journal
        broker.upsert_entity(make_entity("q-1", "Sensor", level=3))
    with pytest.raises(ValueError):
        broker.update_attributes("p-1", {"availableSpotNumber": Attribute(6, "Number")})
    reborn = ContextBroker(journal_path=path)
    for handle in (broker, reborn):
        assert [e.to_wire() for e in handle.query_entities()] == [make_parking(spots=9).to_wire()]
    reborn.close()


def test_replay_copies_no_entity(tmp_path, monkeypatch):
    path = tmp_path / "journal.jsonl"
    first = ContextBroker(journal_path=path)
    first.upsert_entity(make_parking(spots=9))
    first.update_attributes("p-1", {"availableSpotNumber": Attribute(6, "Number")})
    first.upsert_entity(make_entity("q-1", "Sensor", level=3))
    first.close()
    copies = []
    real_copy = NgsiEntity.copy
    monkeypatch.setattr(NgsiEntity, "copy", lambda self: copies.append(self.id) or real_copy(self))
    reborn = ContextBroker(journal_path=path)
    assert copies == []
    assert reborn.get_entity("p-1").value("availableSpotNumber") == 6
    reborn.close()


# -- committed versions -------------------------------------------------------

def test_queued_notification_keeps_the_version_it_committed():
    broker = ContextBroker(delivery="manual")
    _, sink = collect_sub(broker)
    broker.upsert_entity(make_parking(spots=9))
    broker.update_attributes("p-1", {"availableSpotNumber": Attribute(6, "Number")})
    broker.update_attributes("p-1", {"name": Attribute("Lot B", "Text"),
                                     "availableSpotNumber": Attribute(3, "Number")})
    broker.deliver_notifications()
    delivered = [e for doc in sink.notifications for e in doc["data"]]
    seen = [(e["attributes"]["availableSpotNumber"]["value"], e["attributes"]["name"]["value"])
            for e in delivered]
    assert seen == [(9, "Lot"), (6, "Lot"), (3, "Lot B")]
    broker.close()


def test_patch_result_and_notification_docs_are_the_callers_to_mutate(broker):
    def vandal(entities):
        attrs = entities[0].attributes
        attrs["availableSpotNumber"].value = -1
        attrs["name"].metadata["scribbled"] = True
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


def test_webhook_body_is_the_whole_notification_document():
    broker = ContextBroker(clock=SimulatedClock(1748851200.4))  # 2025-06-02 08:00 UTC
    bodies = []

    def on_hook(match, params, body):
        bodies.append(body)
        return 200, {}

    hook = JsonHttpServer()
    hook.add_route("POST", r"/hook", on_hook)
    hook.start()
    entity = make_entity("p-1", "ParkingSite", name="Lot",
                         availableSpotNumber=Attribute(9, "Number", {"unit": "spots"}))
    try:
        web_id = broker.subscribe(Subscription(id="", target=hook.url("/hook")))
        collect_id, sink = collect_sub(broker)
        broker.upsert_entity(entity)
    finally:
        hook.stop()
        broker.close()

    def document(sub_id):
        return {"subscriptionId": sub_id, "issuedAt": "2025-06-02T08:00:00Z",
                "data": [entity.to_wire()]}

    assert bodies == [document(web_id)]
    assert sink.notifications == [document(collect_id)]


def test_in_process_subscribers_get_entities_without_a_wire_round_trip(monkeypatch):
    broker = ContextBroker(clock=SimulatedClock(1748851200))
    store = TimeSeriesStore()
    ingest_subscription(store, broker, {"Sensor": "level"}, clock=broker.clock)
    broker.upsert_entity(make_entity("s-1", "Sensor", level=1))
    calls = []
    to_wire, from_wire = NgsiEntity.to_wire, NgsiEntity.from_wire.__func__

    def counted_to_wire(self):
        calls.append("to_wire")
        return to_wire(self)

    def counted_from_wire(cls, doc):
        calls.append("from_wire")
        return from_wire(cls, doc)

    monkeypatch.setattr(NgsiEntity, "to_wire", counted_to_wire)
    monkeypatch.setattr(NgsiEntity, "from_wire", classmethod(counted_from_wire))
    broker.clock.advance(60)
    broker.update_attributes("s-1", {"level": Attribute(2, "Number")})
    assert calls == []
    assert [s.value for s in store.get("s-1", "level")] == [1.0, 2.0]
    broker.close()


def test_patch_copies_the_callers_attributes_in(broker):
    broker.upsert_entity(make_parking())
    mine = Attribute(7, "Number", {"unit": "spots"})
    broker.update_attributes("p-1", {"availableSpotNumber": mine})
    mine.value = "seven"
    mine.metadata["unit"] = "cars"
    stored = broker.get_entity("p-1").attributes["availableSpotNumber"]
    assert (stored.value, stored.metadata) == (7, {"unit": "spots"})


def layout_lot(eid="p-1"):
    return make_entity(eid, "ParkingSite", layout={"rows": 4, "bays": [1, 2]})


def test_structured_values_read_back_are_the_callers_own(broker):
    broker.upsert_entity(layout_lot())
    for read in (broker.get_entity("p-1"), broker.query_entities()[0]):
        layout = read.attributes["layout"].value
        layout["rows"] = 99
        layout["bays"].append(3)
    assert broker.get_entity("p-1").value("layout") == {"rows": 4, "bays": [1, 2]}


def test_a_structured_patch_value_is_copied_in(broker):
    broker.upsert_entity(make_parking())
    layout = {"rows": 2, "bays": [1]}
    broker.update_attributes("p-1", {"layout": Attribute(layout, "StructuredValue")})
    layout["rows"] = "x"
    layout["bays"].append(2)
    assert broker.get_entity("p-1").value("layout") == {"rows": 2, "bays": [1]}


def test_a_callable_subscriber_may_edit_structured_values(broker):
    def vandal(entities):
        entities[0].attributes["layout"].value["bays"].clear()

    broker.subscribe(Subscription(id="", target=vandal))
    _, sink = collect_sub(broker)
    broker.upsert_entity(layout_lot())
    assert broker.get_entity("p-1").value("layout") == {"rows": 4, "bays": [1, 2]}
    (doc,) = sink.notifications
    assert doc["data"][0]["attributes"]["layout"]["value"] == {"rows": 4, "bays": [1, 2]}


def test_a_collected_document_shares_nothing_with_the_store(broker):
    _, sink = collect_sub(broker)
    broker.upsert_entity(layout_lot())
    (doc,) = sink.notifications
    doc["data"][0]["attributes"]["layout"]["value"]["bays"].append(3)
    assert broker.get_entity("p-1").value("layout") == {"rows": 4, "bays": [1, 2]}


JSON_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=2)),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=2), kids, max_size=3)),
    max_leaves=8)
TREE_ATTRIBUTES = st.builds(
    Attribute, JSON_TREES, st.just("StructuredValue"),
    st.dictionaries(st.sampled_from(["unit", "observedAt", "source"]), JSON_TREES, max_size=3))


def containers(tree) -> dict:
    """Every dict and list inside ``tree``, an entity or attribute or wire document, by id."""
    if isinstance(tree, NgsiEntity):
        return {id(tree.attributes): tree.attributes,
                **{k: v for a in tree.attributes.values() for k, v in containers(a).items()}}
    if isinstance(tree, Attribute):
        return {**containers(tree.value), **containers(tree.metadata)}
    if not isinstance(tree, (dict, list)):
        return {}
    found = {id(tree): tree}
    for child in (tree.values() if isinstance(tree, dict) else tree):
        found.update(containers(child))
    return found


def shared(a, b) -> list:
    """The dicts and lists that ``a`` and ``b`` both hold."""
    mine = containers(a)
    return [node for key, node in containers(b).items() if key in mine]


@settings(max_examples=150, deadline=None, database=None)
@given(TREE_ATTRIBUTES, TREE_ATTRIBUTES)
def test_no_hand_out_shares_a_container_with_the_stored_version(first, second):
    entity = NgsiEntity("p-1", "ParkingSite", {"layout": first})
    for attr in (first, second):
        assert shared(attr, attr.copy()) == []
        assert shared(attr, attr.to_wire()) == []
    assert shared(entity, entity.copy()) == []
    assert shared(entity, entity.to_wire()) == []

    broker = ContextBroker(delivery="inline")
    stored, copies = [], []
    broker.subscribe(Subscription(id="", target=SimpleNamespace(
        deliver=lambda sub_id, issued_at, versions: stored.extend(versions))))
    broker.subscribe(Subscription(id="", target=copies.extend))
    _, sink = collect_sub(broker)
    broker.upsert_entity(entity)
    assert shared(stored[-1], entity) == []
    patch = {"plan": second}
    result = broker.update_attributes("p-1", patch)
    version = stored[-1]
    assert shared(version, patch) == []
    for hand_out in (broker.get_entity("p-1"), broker.query_entities()[0], result,
                     sink.notifications[-1]["data"][0], copies[-1]):
        assert shared(version, hand_out) == [], hand_out
    broker.close()


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
    assert [e for doc in sink.notifications for e in doc["data"]] == reference.commits
    broker.close()


def disk_full(data):
    raise OSError(28, "No space left on device")


JOURNALED_WRITES = st.lists(st.tuples(
    st.sampled_from(["upsert", "patch"]),
    st.sampled_from(["p-1", "p-2", "p-3"]),  # a patch before its id's upsert is not-found
    st.dictionaries(st.sampled_from(["level", "name", "layout"]), st.one_of(
        st.builds(Attribute, st.one_of(st.integers(-3, 3), st.floats(allow_nan=False)),
                  st.just("Number")),
        st.builds(Attribute, st.text(max_size=3), st.just("Text")),
        TREE_ATTRIBUTES), max_size=3),
    st.sampled_from(["ok", "invalid", "disk-full"]),
), max_size=20)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(JOURNALED_WRITES)
def test_a_broker_restarted_on_its_journal_has_the_live_state(tmp_path_factory, writes):
    """Upserts and patches, among them refused writes (an invalid entity, an
    unknown id, a journal append that fails once), leave a journal of one line
    per acknowledged commit that rebuilds the live state."""
    path = tmp_path_factory.mktemp("journal") / "journal.jsonl"
    live = ContextBroker(journal_path=path, delivery="manual")
    acknowledged = 0
    for op, entity_id, attrs, fault in writes:
        if fault == "invalid":
            attrs = {**attrs, "level": Attribute("high", "Number")}
        elif fault == "disk-full":
            live._journal_fh.write = disk_full
        try:
            if op == "upsert":
                live.upsert_entity(NgsiEntity(entity_id, "Sensor", attributes=attrs))
            else:
                live.update_attributes(entity_id, attrs)
            acknowledged += bool(attrs) or op == "upsert"  # an empty patch commits nothing
        except (InvalidEntity, NotFound, OSError):
            pass
        vars(live._journal_fh).pop("write", None)
    want = [e.to_wire() for e in live.query_entities()]
    live.close()
    assert len(path.read_bytes().splitlines()) == acknowledged
    reborn = ContextBroker(journal_path=path)
    assert [e.to_wire() for e in reborn.query_entities()] == want
    reborn.close()


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
