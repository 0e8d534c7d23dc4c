"""The error contract on the wire: each server answers a failed request with a
status and a body ``{"error": <kind>, "detail": <text>}``. One table per server
pins the status and the ``error`` kind of every failure its routes can give.
"""

import json
import math
import socket
from datetime import date
from urllib.parse import urlsplit

import pytest

from citykit.broker import ContextBroker
from citykit.broker_http import BrokerServer
from citykit.clock import SimulatedClock
from citykit.estimator.ingest import ingest_historical
from citykit.estimator.models import TrainingConfig
from citykit.estimator.scheduler import EstimatorScheduler
from citykit.estimator.service import EstimatorServer
from citykit.estimator.store import TimeSeriesStore
from citykit.feedgen import CityFixture, generate_static_network
from citykit.gtfs import ngsi_to_gtfs
from citykit.gtfs_realtime import RtLoader, RtServer, TripResolver
from citykit.httpd import HttpError, request_json
from citykit.ngsi import make_entity
from citykit.routing import Router, RouterServer

DAY = 1748822400  # 2025-06-02 00:00 UTC


def _failure(method: str, url: str, body=None) -> tuple:
    """(status, payload) of a request that must fail."""
    with pytest.raises(HttpError) as err:
        request_json(method, url, body=body)
    assert set(err.value.payload) == {"error", "detail"}
    assert isinstance(err.value.payload["detail"], str)
    return err.value.status, err.value.payload


@pytest.fixture(scope="module")
def broker_url():
    server = BrokerServer(ContextBroker())
    url = server.start()
    server.broker.upsert_entity(make_entity("s-1", "Sensor", level=3))
    yield url
    server.stop()


@pytest.mark.parametrize("method, path, body, status, kind", [
    ("POST", "/v2/entities", {"id": "x"}, 400, "invalid-entity"),
    ("POST", "/v2/entities", "not json", 400, "invalid-entity"),
    ("POST", "/v2/entities",
     {"id": "x", "entityType": "T", "attributes": {"n": {"value": "s", "valueType": "Number"}}},
     400, "invalid-entity"),
    ("POST", "/v2/entities", {"id": "x y", "entityType": "T"}, 400, "invalid-entity"),
    ("POST", "/v2/entities", {"id": "x", "entityType": "T", "attributes": 0},
     400, "invalid-entity"),
    ("POST", "/v2/entities",
     {"id": "x", "entityType": "T", "attributes": {"n": {"value": 1, "metadata": False}}},
     400, "invalid-entity"),
    ("GET", "/v2/entities?q=level", None, 400, "malformed-pattern"),
    ("GET", "/v2/entities?q=level~3", None, 400, "malformed-pattern"),
    ("GET", "/v2/entities?idPattern=(", None, 400, "malformed-pattern"),
    ("GET", "/v2/entities?q=level%3E%22high%22", None, 400, "type-mismatch"),
    ("GET", "/v2/entities/ghost", None, 404, "not-found"),
    ("PATCH", "/v2/entities/ghost/attrs", {"level": {"value": 1}}, 404, "not-found"),
    ("PATCH", "/v2/entities/s-1/attrs", [1], 400, "invalid-entity"),
    ("PATCH", "/v2/entities/s-1/attrs", {"level": {"value": "s", "valueType": "Number"}},
     400, "invalid-entity"),
    ("PATCH", "/v2/entities/s-1/attrs", {"type": {"value": 1}}, 400, "invalid-entity"),
    ("POST", "/v2/subscriptions", {"target": "http://127.0.0.1:1/", "bogus": 1},
     400, "malformed-subscription"),
    ("POST", "/v2/subscriptions", [1], 400, "malformed-subscription"),
    ("POST", "/v2/subscriptions", {"target": "http://127.0.0.1:1/", "idPattern": "("},
     400, "malformed-subscription"),
    ("POST", "/v2/subscriptions", {"target": "http://127.0.0.1:1/", "throttlingSeconds": -1},
     400, "malformed-subscription"),
    ("POST", "/v2/subscriptions", {"target": "http://127.0.0.1:1/", "watchedAttributes": "level"},
     400, "malformed-subscription"),
    ("POST", "/v2/subscriptions", {"target": "http://127.0.0.1:1/", "watchedAttributes": [1]},
     400, "malformed-subscription"),
    ("POST", "/v2/subscriptions", {"target": "http://127.0.0.1:1/", "entityTypeFilter": 5},
     400, "malformed-subscription"),
    ("POST", "/v2/subscriptions", {"target": "http://127.0.0.1:1/", "idPattern": ["s-1"]},
     400, "malformed-subscription"),
    ("POST", "/v2/subscriptions", {"target": "http://127.0.0.1:1/", "throttlingSeconds": 1e400},
     400, "malformed-subscription"),
    ("POST", "/v2/subscriptions", {"target": "http://127.0.0.1:1/", "throttlingSeconds": True},
     400, "malformed-subscription"),
    ("POST", "/v2/subscriptions", {"target": "ftp://x/"}, 400, "malformed-subscription"),
    ("POST", "/v2/subscriptions", {"target": "http://127.0.0.1:1/", "id": 5},
     400, "malformed-subscription"),
    ("POST", "/v2/subscriptions", {"target": "http://127.0.0.1:1/", "id": [1]},
     400, "malformed-subscription"),
    ("DELETE", "/v2/subscriptions/ghost", None, 404, "not-found"),
    ("GET", "/v3/nowhere", None, 404, "not-found"),
])
def test_broker_failures(broker_url, method, path, body, status, kind):
    got_status, payload = _failure(method, broker_url + path, body)
    assert (got_status, payload["error"]) == (status, kind)


@pytest.fixture(scope="module")
def feed():
    return ngsi_to_gtfs(generate_static_network(CityFixture()))[0]


@pytest.fixture(scope="module")
def router_url(tmp_path_factory, feed, flipped_zip):
    router = Router(service_date=date(2025, 6, 2))
    router.load_feed(feed)
    folder = tmp_path_factory.mktemp("feeds")
    (folder / "junk.zip").write_bytes(b"junk")
    (folder / "flipped.zip").write_bytes(flipped_zip)
    server = RouterServer(router)
    url = server.start()
    yield url, folder
    server.stop()


@pytest.mark.parametrize("method, path, body, status, kind", [
    ("GET", f"/plan?fromStop=S1&toStop=S5&departAfter={DAY + 80000}", None, 404, "unreachable"),
    ("GET", f"/plan?fromStop=NOPE&toStop=S5&departAfter={DAY}", None, 400, "origin-isolated"),
    ("GET", f"/plan?fromStop=S1&toStop=NOPE&departAfter={DAY}", None, 400, "origin-isolated"),
    ("GET", "/plan?fromStop=S1&toStop=S5&departAfter=noon", None, 400, "bad-query"),
    ("GET", "/plan?fromStop=S1&departAfter=0", None, 400, "bad-query"),
    ("GET", f"/plan?fromStop=S1&toStop=S5&departAfter={DAY}&n=0", None, 400, "bad-query"),
    ("GET", f"/plan?fromStop=S1&toStop=S5&departAfter={DAY}&modes=boat", None, 400, "bad-query"),
    ("POST", "/graph/reload", {}, 400, "bad-request"),
    ("POST", "/graph/reload", {"file": "junk.zip"}, 400, "reload-failed"),
    ("POST", "/graph/reload", {"file": "missing.zip"}, 502, "fetch-failed"),
    ("GET", f"/plan?fromStop=S1&toStop=S5&departAfter={DAY}&maxWalk=nan", None, 400, "bad-query"),
    ("GET", f"/plan?fromStop=S1&toStop=S5&departAfter={DAY}&maxWalk=-5", None, 400, "bad-query"),
    ("POST", "/graph/reload", {"file": "flipped.zip"}, 400, "reload-failed"),
])
def test_router_failures(router_url, method, path, body, status, kind):
    url, folder = router_url
    if body:  # a feed file in the fixture's folder
        body = {"url": str(folder / body["file"])}
    got_status, payload = _failure(method, url + path, body)
    assert (got_status, payload["error"]) == (status, kind)


@pytest.fixture(scope="module")
def estimator_url():
    cfg = TrainingConfig(lags=2, minSamples=30, windowSize=100)
    scheduler = EstimatorScheduler(TimeSeriesStore(), cfg, clock=SimulatedClock(DAY))
    ingest_historical(scheduler.store, [
        {"entityId": "p-1", "attr": "availableSpotNumber", "t": DAY - (40 - i) * 900.0,
         "value": 20.0 + 6.0 * math.sin(2 * math.pi * i / 12.0)}
        for i in range(40)])
    server = EstimatorServer(scheduler)
    url = server.start()
    yield url
    server.stop()


@pytest.mark.parametrize("method, path, status, kind", [
    ("GET", "/series/p-9/availableSpotNumber", 404, "unknown-series"),
    ("GET", "/series/p-1/LAeq", 404, "unknown-series"),
    ("POST", "/predict/p-9/availableSpotNumber", 404, "unknown-series"),
    ("GET", "/series/p-1/availableSpotNumber?from=abc", 400, "bad-query"),
    ("GET", "/series/p-1/availableSpotNumber?to=abc", 400, "bad-query"),
    ("POST", "/predict/p-1/availableSpotNumber", 409, "model-not-trained"),
    ("GET", "/nowhere", 404, "not-found"),
])
def test_estimator_failures(estimator_url, method, path, status, kind):
    got_status, payload = _failure(method, estimator_url + path, {} if method == "POST" else None)
    assert (got_status, payload["error"]) == (status, kind)


@pytest.fixture(scope="module")
def realtime_url(feed):
    server = RtServer(RtLoader(lambda: [], TripResolver(feed, DAY)))
    yield server.start()
    server.stop()


def test_realtime_failures(realtime_url):
    got_status, payload = _failure("GET", f"{realtime_url}/gtfs-rt")
    assert (got_status, payload["error"]) == (503, "no-feed")


def _raw_exchange(url: str, request: bytes) -> tuple:
    """(status, headers, decoded body) of a reply read until the server closes."""
    parts = urlsplit(url)
    with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {k.lower(): v for k, _, v in (line.partition(": ") for line in lines)}
    return int(status_line.split()[1]), headers, json.loads(body)


@pytest.mark.parametrize("server", ["broker_url", "router_url", "estimator_url",
                                    "realtime_url"])
@pytest.mark.parametrize("request_bytes, status, kind", [
    (b"OPTIONS / HTTP/1.1\r\nHost: x\r\n\r\n", 501, "not-implemented"),
    (b"GARBAGE\r\n", 400, "bad-request"),
    # framing the server cannot read: refused, never read as the next request
    (b"POST /v2/entities HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"2\r\n{}\r\n0\r\n\r\n", 501, "not-implemented"),
    (b"POST /v2/entities HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nContent-Length: 60\r\n"
     b"\r\n{}", 400, "bad-request"),
])
def test_http_server_refusals_are_json_too(request, server, request_bytes, status, kind):
    url = request.getfixturevalue(server)
    url = url[0] if isinstance(url, tuple) else url
    got_status, headers, payload = _raw_exchange(url, request_bytes)
    assert (got_status, headers["content-type"]) == (status, "application/json")
    assert headers["connection"] == "close"
    assert set(payload) == {"error", "detail"} and payload["error"] == kind
    assert isinstance(payload["detail"], str) and payload["detail"]


def test_router_and_estimator_details_do_not_repeat_the_kind(router_url, estimator_url):
    url, _ = router_url
    failures = [_failure("GET", f"{url}/plan?fromStop=S1&toStop=S5&departAfter={DAY + 80000}"),
                _failure("GET", f"{url}/plan?fromStop=NOPE&toStop=S5&departAfter={DAY}"),
                _failure("GET", f"{url}/plan?fromStop=S1&toStop=S5&departAfter=noon"),
                _failure("POST", f"{estimator_url}/predict/p-1/availableSpotNumber", {}),
                _failure("GET", f"{estimator_url}/series/p-9/availableSpotNumber")]
    for _, payload in failures:
        assert payload["detail"]
        assert not payload["detail"].startswith(payload["error"]), payload
