"""The error contract on the wire: each server answers a failed request with a
status and a body ``{"error": <kind>, "detail": <text>}``. One table per server
pins the status and the ``error`` kind of every failure its routes can give.
"""

import math
from datetime import date

import pytest

from citykit.broker_http import BrokerServer
from citykit.clock import SimulatedClock
from citykit.estimator import EstimatorServer, EstimatorService, TrainingConfig
from citykit.feedgen import default_fixture, generate_static_network
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
    server = BrokerServer()
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
    ("DELETE", "/v2/subscriptions/ghost", None, 404, "not-found"),
    ("GET", "/v3/nowhere", None, 404, "not-found"),
])
def test_broker_failures(broker_url, method, path, body, status, kind):
    got_status, payload = _failure(method, broker_url + path, body)
    assert (got_status, payload["error"]) == (status, kind)


@pytest.fixture(scope="module")
def feed():
    return ngsi_to_gtfs(generate_static_network(default_fixture()))[0]


@pytest.fixture(scope="module")
def router_url(tmp_path_factory, feed):
    router = Router(service_date=date(2025, 6, 2))
    router.load_feed(feed)
    folder = tmp_path_factory.mktemp("feeds")
    (folder / "junk.zip").write_bytes(b"junk")
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
    service = EstimatorService("parking", cfg, clock=SimulatedClock(DAY))
    service.historical(
        {"entityId": "p-1", "attr": "availableSpotNumber", "t": DAY - (40 - i) * 900.0,
         "value": 20.0 + 6.0 * math.sin(2 * math.pi * i / 12.0)}
        for i in range(40))
    server = EstimatorServer(service)
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


def test_realtime_failures(feed):
    server = RtServer(RtLoader(lambda: [], TripResolver(feed, DAY)))
    url = server.start()
    try:
        got_status, payload = _failure("GET", f"{url}/gtfs-rt")
    finally:
        server.stop()
    assert (got_status, payload["error"]) == (503, "no-feed")


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
