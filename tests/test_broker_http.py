"""HTTP binding of the broker: /v2 routes, client wrapper, webhooks."""

import http.client
import socket
import threading
import time

import pytest

from citykit.broker import (ContextBroker, InvalidEntity, MalformedPattern,
                            MalformedSubscription, NotFound)
from citykit.broker_http import BrokerClient, BrokerServer
from citykit.httpd import HttpError, JsonHttpServer, request_json
from citykit.ngsi import Attribute, KindError, NgsiEntity, make_entity


@pytest.fixture
def served():
    server = BrokerServer(ContextBroker())
    url = server.start()
    yield server, BrokerClient(url)
    server.stop()


def test_upsert_then_get_round_trips(served):
    _, client = served
    entity = make_entity("p-1", "ParkingSite", availableSpotNumber=12)
    assert client.upsert(entity) == "created"
    assert client.upsert(entity) == "updated"
    fetched = client.get("p-1")
    assert fetched.value("availableSpotNumber") == 12
    assert fetched.entityType == "ParkingSite"


def test_get_unknown_is_404(served):
    _, client = served
    with pytest.raises(NotFound):
        client.get("ghost")


def test_upsert_invalid_entity_is_400(served):
    _, client = served
    with pytest.raises(InvalidEntity):
        client.upsert(NgsiEntity("x", "T", {"n": Attribute("s", "Number")}))


def test_query_with_type_pattern_and_q(served):
    _, client = served
    client.upsert(make_entity("s-1", "Sensor", level=3))
    client.upsert(make_entity("s-2", "Sensor", level=8))
    client.upsert(make_entity("p-1", "ParkingSite", availableSpotNumber=1))
    assert [e.id for e in client.query(entity_type="Sensor")] == ["s-1", "s-2"]
    assert [e.id for e in client.query(id_pattern="^p-")] == ["p-1"]
    assert [e.id for e in client.query(q="level>4")] == ["s-2"]
    assert [e.id for e in client.query()] == ["p-1", "s-1", "s-2"]


def test_query_bad_pattern_is_400(served):
    _, client = served
    with pytest.raises(MalformedPattern):
        client.query(id_pattern="(")


def test_patch_updates_attributes(served):
    _, client = served
    client.upsert(make_entity("p-1", "ParkingSite", availableSpotNumber=5, name="A"))
    after = client.patch("p-1", {"availableSpotNumber": {"value": 2, "valueType": "Number"}})
    assert after.value("availableSpotNumber") == 2
    assert after.value("name") == "A"
    with pytest.raises(NotFound):
        client.patch("ghost", {"x": {"value": 1, "valueType": "Number"}})


def test_entity_ids_with_slashes_survive_the_url(served):
    _, client = served
    client.upsert(make_entity("zone/a/1", "Sensor", level=0))
    assert client.get("zone/a/1").id == "zone/a/1"
    assert client.patch("zone/a/1", {"level": {"value": 2}}).value("level") == 2


def test_webhook_subscription_delivers_commits(served):
    server, client = served
    hits = []
    gate = threading.Event()

    def on_notify(match, params, body):
        hits.append(body)
        gate.set()
        return 200, {"ok": True}

    target = JsonHttpServer()
    target.add_route("POST", r"/hook", on_notify)
    target.start()
    try:
        sub_id = client.subscribe({
            "entityTypeFilter": "Sensor",
            "target": target.url("/hook"),
        })
        client.upsert(make_entity("s-1", "Sensor", level=4))
        assert gate.wait(5.0)
        assert hits[0]["data"][0]["id"] == "s-1"
        assert hits[0]["subscriptionId"] == sub_id

        assert client.unsubscribe(sub_id) is True
        with pytest.raises(NotFound):
            client.unsubscribe(sub_id)
        client.upsert(make_entity("s-2", "Sensor", level=5))
        assert len(hits) == 1
    finally:
        target.stop()


@pytest.mark.parametrize("sub_id", ["a/b", "a b", "50%"])
def test_client_chosen_subscription_ids_survive_the_url(served, sub_id):
    _, client = served
    assert client.subscribe({"id": sub_id, "target": "http://127.0.0.1:1/hook"}) == sub_id
    assert client.unsubscribe(sub_id) is True
    with pytest.raises(NotFound):
        client.unsubscribe(sub_id)


def test_subscribe_rejects_unknown_fields(served):
    _, client = served
    with pytest.raises(MalformedSubscription):
        client.subscribe({"bogus": 1, "target": "http://localhost:1/x"})


def test_other_error_replies_stay_http_errors():
    def busy(match, params, body):
        raise KindError("busy", "try later")

    stub = JsonHttpServer()
    stub.add_route("GET", r"/v2/entities/(?P<id>[^/]+)", busy)
    stub.start()
    try:
        with pytest.raises(HttpError) as err:
            BrokerClient(stub.url()).get("s-1")
    finally:
        stub.stop()
    assert (err.value.status, err.value.kind) == (400, "busy")
    with pytest.raises(OSError):  # nothing listens there
        BrokerClient("http://127.0.0.1:1").get("s-1")


def test_http_layer_details(served):
    server, client = served
    status, payload = request_json("POST", f"{client.base_url}/v2/entities",
                                   body=make_entity("n-1", "T", x=1).to_wire())
    assert status == 201
    status, _ = request_json("POST", f"{client.base_url}/v2/entities",
                             body=make_entity("n-1", "T", x=2).to_wire())
    assert status == 200
    with pytest.raises(HttpError) as err:
        request_json("GET", f"{client.base_url}/no/such/route")
    assert err.value.status == 404


@pytest.mark.parametrize("declared", ["abc", "-1", "1_0"])
def test_bad_content_length_is_400_and_closes(served, declared):
    server, _ = served
    with socket.create_connection((server.server.host, server.server.port), timeout=2.0) as sock:
        sock.sendall(f"POST /v2/entities HTTP/1.1\r\nHost: x\r\n"
                     f"Content-Length: {declared}\r\n\r\n{{}}".encode())
        reply = b""
        while chunk := sock.recv(4096):  # the server closes: the body's end is unknown
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b'"bad-request"' in body


def test_keep_alive_round_trips_do_not_wait_for_delayed_acks(served):
    # a reply sent as two writes (head, then body) on a socket with Nagle's
    # algorithm on waits for the client's delayed ACK, about 40 ms per request
    server, client = served
    client.upsert(make_entity("k-1", "T", x=1))
    conn = http.client.HTTPConnection(server.server.host, server.server.port, timeout=5.0)
    try:
        start = time.perf_counter()
        for _ in range(20):
            conn.request("GET", "/v2/entities/k-1")
            reply = conn.getresponse()
            assert reply.status == 200 and reply.read()
        elapsed = time.perf_counter() - start
    finally:
        conn.close()
    assert elapsed < 0.5
