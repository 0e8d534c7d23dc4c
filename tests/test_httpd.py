"""The HTTP transport: keep-alive client connections, and the bounds of the server."""

import gc
import http.client
import select
import socket
import sys
import threading
import time

import pytest

from citykit import httpd
from citykit.broker_http import BrokerServer
from citykit.httpd import JsonHttpServer, request_json
from citykit.ngsi import KindError


def _echo_server() -> JsonHttpServer:
    server = JsonHttpServer()
    server.seen = []

    def echo(match, params, body):
        server.seen.append(body)
        return 200, {"n": len(server.seen)}

    server.add_route("GET", r"/echo", echo)
    server.add_route("POST", r"/echo", echo)
    return server


@pytest.fixture
def echo():
    server = _echo_server()
    server.start()
    yield server
    server.stop()


@pytest.fixture
def short_idle(monkeypatch):
    monkeypatch.setattr(httpd, "IDLE_TIMEOUT_SECONDS", 0.2)


@pytest.fixture
def connects(monkeypatch):
    """Counts the client connections opened."""
    opened = []
    original = http.client.HTTPConnection.connect

    def counted(self):
        opened.append((self.host, self.port))
        return original(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counted)
    return opened


def _in_thread(fn):
    """Run ``fn`` on a fresh thread, so it starts with an empty connection pool;
    returns its result or raises its exception."""
    out = {}

    def run():
        try:
            out["result"] = fn()
        except BaseException as exc:  # handed back to the test's thread
            out["error"] = exc

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(10.0)
    assert not worker.is_alive()
    if "error" in out:
        raise out["error"]
    return out["result"]


def _read_until_closed(sock: socket.socket) -> bytes:
    reply = b""
    while chunk := sock.recv(4096):
        reply += chunk
    return reply


# -- client: reuse ------------------------------------------------------------

def test_one_thread_reuses_one_connection(echo, connects):
    def talk():
        for _ in range(20):
            request_json("GET", echo.url("/echo"))
            request_json("POST", echo.url("/echo"), body={"x": 1})
        httpd.close_connections()

    _in_thread(talk)
    assert len(echo.seen) == 40
    assert connects == [(echo.host, echo.port)]


def test_each_thread_has_its_own_connection(echo, connects):
    for _ in range(2):
        _in_thread(lambda: [request_json("GET", echo.url("/echo")) for _ in range(5)])
    assert len(connects) == 2


def test_unreachable_host_is_an_oserror():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(OSError):
        request_json("GET", f"http://127.0.0.1:{port}/echo", timeout=2.0)


def test_unknown_scheme_is_refused():
    with pytest.raises(ValueError):
        request_json("GET", "ftp://127.0.0.1/echo")


def test_error_replies_keep_the_connection(echo, connects):
    def talk():
        with pytest.raises(httpd.HttpError) as err:
            request_json("GET", echo.url("/nowhere"))
        assert err.value.status == 404
        return request_json("GET", echo.url("/echo"))

    assert _in_thread(talk) == (200, {"n": 1})
    assert len(connects) == 1


def test_threads_keep_their_own_connections_under_contention(echo, connects):
    def talk(n):
        for i in range(25):
            assert request_json("POST", echo.url("/echo"), body=[n, i])[0] == 200
        httpd.close_connections()

    workers = [threading.Thread(target=talk, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(20.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert sorted(echo.seen) == [[n, i] for n in range(8) for i in range(25)]
    assert len(connects) == 8


# -- client: the pool's bound -------------------------------------------------

def test_pool_holds_at_most_its_cap_and_drops_dead_connections_first():
    servers = [_echo_server() for _ in range(httpd.POOL_SIZE + 2)]
    for server in servers:
        server.start()
    held = []

    def talk():
        pool = httpd._pool()
        for server in servers[:httpd.POOL_SIZE]:
            request_json("GET", server.url("/echo"))
        servers[1].stop()  # a dead connection, not the oldest
        for server in servers[httpd.POOL_SIZE:]:
            request_json("GET", server.url("/echo"))
            assert len(pool) <= httpd.POOL_SIZE
        held.extend(pool.values())
        return [port for _, _, port in pool]

    try:
        kept = _in_thread(talk)
        # the dead one went first, then the least recently used
        assert kept == [s.port for s in servers[2:]]
        gc.collect()
        assert all(conn.sock is None for conn in held)  # the ended thread closed them
    finally:
        for server in servers:
            server.stop()


# -- client: the retry rule -----------------------------------------------------

class DropFirstServer:
    """Raw-socket server: reads each request; drops the first without a reply
    and answers every later one with 200 {"ok": true}."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.requests = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            with conn:
                fh = conn.makefile("rb")
                while True:
                    line = fh.readline()
                    if not line:
                        break
                    length = 0
                    while (header := fh.readline()) not in (b"\r\n", b""):
                        name, _, value = header.partition(b":")
                        if name.strip().lower() == b"content-length":
                            length = int(value)
                    fh.read(length)
                    self.requests.append(line.split()[0].decode())
                    if len(self.requests) == 1:
                        break  # close without replying
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                                 b"Content-Length: 12\r\n\r\n{\"ok\": true}")
                fh.close()

    def url(self, path):
        return f"http://127.0.0.1:{self.port}{path}"

    def close(self):
        self.listener.close()


@pytest.fixture
def drop_first():
    server = DropFirstServer()
    yield server
    server.close()


def test_post_is_never_resent(drop_first):
    with pytest.raises(OSError):
        _in_thread(lambda: request_json("POST", drop_first.url("/x"), body={"a": 1},
                                        timeout=3.0))
    assert drop_first.requests == ["POST"]


def test_patch_is_never_resent(drop_first):
    with pytest.raises(OSError):
        _in_thread(lambda: request_json("PATCH", drop_first.url("/x"), body={},
                                        timeout=3.0))
    assert drop_first.requests == ["PATCH"]


def test_get_is_retried_once(drop_first):
    assert _in_thread(lambda: request_json("GET", drop_first.url("/x"), timeout=3.0)) \
        == (200, {"ok": True})
    assert drop_first.requests == ["GET", "GET"]


def test_connection_closed_while_idle_is_replaced_before_a_post(short_idle, connects):
    server = _echo_server()
    server.start()
    try:
        def talk():
            request_json("POST", server.url("/echo"), body={"n": 1})
            idle = httpd._pool()[("http", server.host, server.port)]
            # the server closes it after its idle timeout: the socket turns readable (EOF)
            assert select.select([idle.sock], [], [], 5.0)[0]
            return request_json("POST", server.url("/echo"), body={"n": 2})

        assert _in_thread(talk) == (200, {"n": 2})
        assert server.seen == [{"n": 1}, {"n": 2}]
        assert len(connects) == 2
    finally:
        server.stop()


# -- server: bounds -------------------------------------------------------------

def test_a_stopped_server_stops_answering():
    server = BrokerServer()
    server.start()
    conn = http.client.HTTPConnection(server.server.host, server.server.port, timeout=3.0)
    try:
        conn.request("GET", "/v2/entities")
        reply = conn.getresponse()
        assert (reply.status, reply.read()) == (200, b"[]")
        server.stop()
        with pytest.raises((OSError, http.client.HTTPException)):
            conn.request("GET", "/v2/entities")
            conn.getresponse().read()
    finally:
        conn.close()


def test_oversized_body_is_413_and_closed_before_it_is_read(echo):
    with socket.create_connection((echo.host, echo.port), timeout=3.0) as sock:
        sock.sendall(b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
                     b"Content-Length: 1000000000\r\n\r\n{}")
        reply = _read_until_closed(sock)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 ")
    assert b"Connection: close" in head
    assert b'"payload-too-large"' in body
    assert echo.seen == []


def test_body_at_the_cap_is_read(echo, monkeypatch):
    monkeypatch.setattr(httpd, "MAX_BODY_BYTES", 16)
    status, _ = request_json("POST", echo.url("/echo"), body="x" * 14)  # 16 bytes quoted
    assert status == 200
    with pytest.raises(httpd.HttpError) as err:
        request_json("POST", echo.url("/echo"), body="x" * 15)
    assert err.value.status == 413
    assert echo.seen == ["x" * 14]


@pytest.mark.parametrize("sent", [
    b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n{\"a\"",  # inside the body
    b"GET /echo HTTP/1.1\r\nHost: x\r\n",  # inside the headers
])
def test_stalled_request_is_closed(short_idle, sent):
    server = _echo_server()
    server.start()
    try:
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(sent)
            assert _read_until_closed(sock) == b""
        assert server.seen == []
    finally:
        server.stop()


def test_idle_keep_alive_clients_do_not_hold_off_a_new_one(echo):
    idle = [http.client.HTTPConnection(echo.host, echo.port, timeout=5.0) for _ in range(16)]
    try:
        for conn in idle:
            conn.request("GET", "/echo")
            conn.getresponse().read()
        fresh = http.client.HTTPConnection(echo.host, echo.port, timeout=5.0)
        start = time.perf_counter()
        fresh.request("GET", "/echo")
        reply = fresh.getresponse()
        assert reply.status == 200 and reply.read() == b'{"n": 17}'
        assert time.perf_counter() - start < 1.0
        fresh.close()
    finally:
        for conn in idle:
            conn.close()


@pytest.fixture
def failing():
    """A server whose routes fail in the ways a handler can."""
    server = JsonHttpServer()

    def raising(exc):
        def handler(match, params, body):
            raise exc
        return handler

    server.add_route("GET", r"/gone", raising(KindError("not-found", "no such thing")))
    server.add_route("GET", r"/odd", raising(KindError("some-new-kind", "odd input")))
    server.add_route("GET", r"/busy", raising(KindError("model-not-trained", "not yet")))
    server.add_route("GET", r"/relay", raising(httpd.HttpError(404, {"error": "not-found",
                                                                "detail": "downstream"})))
    server.start()
    yield server
    server.stop()


@pytest.mark.parametrize("path, status, payload", [
    ("/gone", 404, {"error": "not-found", "detail": "no such thing"}),
    ("/odd", 400, {"error": "some-new-kind", "detail": "odd input"}),
    ("/busy", 409, {"error": "model-not-trained", "detail": "not yet"}),
])
def test_a_kind_error_is_answered_by_its_kind(failing, path, status, payload):
    with pytest.raises(httpd.HttpError) as err:
        request_json("GET", failing.url(path))
    assert (err.value.status, err.value.payload) == (status, payload)


def test_a_downstream_http_error_a_handler_lets_through_is_a_500(failing):
    with pytest.raises(httpd.HttpError) as err:
        request_json("GET", failing.url("/relay"))
    assert err.value.status == 500
    assert err.value.payload["error"] == "internal"
