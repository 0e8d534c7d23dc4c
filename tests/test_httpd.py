"""The HTTP transport: keep-alive client connections, the reply shapes the
client reads, and the server's request parser and bounds."""

import gc
import http.client
import json
import select
import socket
import string
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citykit import httpd
from citykit.broker import ContextBroker, Subscription
from citykit.broker_http import BrokerServer
from citykit.httpd import JsonHttpServer, request_json
from citykit.ngsi import KindError, make_entity


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


@pytest.mark.parametrize("path", ["/echo x", "/echo\r\nX-Injected: 1", "/echo\x00"])
def test_a_target_with_spaces_or_controls_is_refused_unsent(echo, connects, path):
    with pytest.raises(http.client.InvalidURL):
        request_json("POST", echo.url(path), body={})
    assert (echo.seen, connects) == ([], [])


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


# -- client: foreign reply shapes -------------------------------------------------

OK_REPLY = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 12\r\n\r\n{\"ok\": true}")


class StubServer:
    """Raw-socket server, one connection at a time: reads each request and
    answers it with ``reply``, closing the connection after the reply when
    ``close``; with ``drop_first`` it closes at the first request without a
    reply. Counts the connections it accepts."""

    def __init__(self, reply: bytes = OK_REPLY, close: bool = False, drop_first: bool = False):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.reply, self.close_after, self.drop_first = reply, close, drop_first
        self.requests = []
        self.connections = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.connections += 1
            with conn, conn.makefile("rb") as fh:
                while line := fh.readline():
                    length = 0
                    while (header := fh.readline()) not in (b"\r\n", b""):
                        name, _, value = header.partition(b":")
                        if name.strip().lower() == b"content-length":
                            length = int(value)
                    fh.read(length)
                    self.requests.append(line.split()[0].decode())
                    if self.drop_first and len(self.requests) == 1:
                        break  # close without replying
                    conn.sendall(self.reply)
                    if self.close_after:
                        break

    def url(self, path):
        return f"http://127.0.0.1:{self.port}{path}"

    def close(self):
        self.listener.close()


OK = (200, {"ok": True})


def _status_alone(url: str):
    """``request_json``'s result for GET ``url``, or the status of its ``HttpError``."""
    try:
        return request_json("GET", url, timeout=3.0)
    except httpd.HttpError as exc:
        return exc.status


@pytest.mark.parametrize("reply, close, connections", [
    # 204 has no body, whatever its head says
    (b"HTTP/1.1 204 No Content\r\n\r\n", False, 1),
    # chunked: its status alone, the connection closed
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"5\r\n{\"ok\"\r\n7;ext=1\r\n: true}\r\n0\r\nX-Trailer: 1\r\n\r\n", False, 2),
    # a 100 Continue before the final reply
    (b"HTTP/1.1 100 Continue\r\n\r\n" + OK_REPLY, False, 1),
    # delimited by the close of the connection: its status alone
    (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{\"ok\": true}", True, 2),
    # HTTP/1.0 closes unless it says keep-alive, even when the server leaves it open
    (OK_REPLY.replace(b"HTTP/1.1", b"HTTP/1.0"), False, 2),
    (OK_REPLY.replace(b"HTTP/1.1", b"HTTP/1.0").replace(b"\r\n\r\n",
                                                       b"\r\nConnection: keep-alive\r\n\r\n"),
     False, 1),
    # Connection: close, even when the server leaves it open
    (OK_REPLY.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n"), False, 2),
])
def test_foreign_reply_shapes_are_read(reply, close, connections):
    """A body framed by Content-Length is read; any other reply is its status alone."""
    server = StubServer(reply, close=close)
    try:
        expected = (204, None) if b" 204 " in reply else \
            OK if b"Content-Length" in reply else 200
        assert _in_thread(lambda: [_status_alone(server.url("/x"))
                                   for _ in range(2)]) == [expected] * 2
        assert server.connections == connections
    finally:
        server.close()


BAD_LENGTH = OK_REPLY.replace(b"Content-Length: 12", b"Content-Length: twelve")
CUT_SHORT = OK_REPLY.replace(b"Content-Length: 12", b"Content-Length: 20")  # then the close
BAD_STATUS = OK_REPLY.replace(b"HTTP/1.1 200", b"HTTP/1.1 2OO")


@pytest.mark.parametrize("reply, method, sent", [
    pytest.param(BAD_LENGTH, "POST", ["POST"], id="POST-sent0"),
    pytest.param(BAD_LENGTH, "GET", ["GET", "GET"], id="GET-sent1"),
    pytest.param(CUT_SHORT, "POST", ["POST"], id="incomplete-POST"),
    pytest.param(CUT_SHORT, "GET", ["GET", "GET"], id="incomplete-GET"),
    pytest.param(BAD_STATUS, "POST", ["POST"], id="bad-status-line-POST"),
    pytest.param(BAD_STATUS, "GET", ["GET", "GET"], id="bad-status-line-GET"),
])
def test_a_reply_with_a_bad_content_length_is_an_http_exception(reply, method, sent):
    server = StubServer(reply, close=True)
    try:
        with pytest.raises(http.client.HTTPException):
            _in_thread(lambda: request_json(method, server.url("/x"), body={}, timeout=3.0))
        assert server.requests == sent  # the retry rule holds for it
    finally:
        server.close()


def test_a_reply_declaring_a_body_over_the_cap_is_an_http_exception(monkeypatch):
    monkeypatch.setattr(httpd, "MAX_BODY_BYTES", 11)  # OK_REPLY's body is 12 bytes
    server = StubServer()
    try:
        with pytest.raises(http.client.HTTPException, match="body of 12 bytes, at most 11"):
            _in_thread(lambda: request_json("POST", server.url("/x"), timeout=3.0))
        monkeypatch.setattr(httpd, "MAX_BODY_BYTES", 12)
        assert _in_thread(lambda: request_json("POST", server.url("/x"), timeout=3.0)) == OK
    finally:
        server.close()


CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def test_interim_replies_past_the_cap_are_an_http_exception():
    """A peer cannot hold a request by sending interim replies before its final one."""
    cap = httpd.MAX_INTERIM_REPLIES
    at_cap, past_cap = StubServer(CONTINUE * cap + OK_REPLY), StubServer(
        CONTINUE * (cap + 1) + OK_REPLY, close=True)
    try:
        assert _in_thread(lambda: request_json("POST", at_cap.url("/x"), timeout=3.0)) == OK
        with pytest.raises(http.client.HTTPException, match=f"more than {cap} interim replies"):
            _in_thread(lambda: request_json("POST", past_cap.url("/x"), timeout=3.0))
        assert past_cap.requests == ["POST"]
    finally:
        at_cap.close()
        past_cap.close()


class FloodPeer:
    """Raw-socket server that answers one request with ``head`` and then up to
    ``FLOOD_BYTES`` of body, stopping when the client goes away; ``sent``
    counts the body bytes it got out."""

    FLOOD_BYTES = 40 * 1024 * 1024

    def __init__(self, head: bytes):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.head, self.sent = head, 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            conn, _ = self.listener.accept()
        except OSError:  # closed before any client came
            return
        block = b"x" * 65536
        with conn:
            conn.recv(65536)  # the request
            try:
                conn.sendall(self.head)
                while self.sent < self.FLOOD_BYTES:
                    conn.sendall(block)
                    self.sent += len(block)
            except OSError:  # the client closed the connection with the body unread
                pass

    def url(self, path):
        return f"http://127.0.0.1:{self.listener.getsockname()[1]}{path}"

    def close(self):
        self._thread.join(10.0)
        self.listener.close()


@pytest.mark.parametrize("head", [
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n",  # delimited by the close
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n" % FloodPeer.FLOOD_BYTES,
], ids=["close-delimited", "chunked"])
def test_a_reply_not_framed_by_content_length_is_its_status_alone_unread(head):
    peer = FloodPeer(head)

    def fetch():
        with pytest.raises(httpd.HttpError) as err:
            request_json("GET", peer.url("/x"), timeout=3.0)
        return err.value.status, list(httpd._pool())

    try:
        assert _in_thread(fetch) == (200, [])  # the connection is not kept
    finally:
        peer.close()
    assert peer.sent < FloodPeer.FLOOD_BYTES


# -- client: webhook replies ---------------------------------------------------

@pytest.mark.parametrize("reply, close, failures", [
    (b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\r\nOK",
     False, [0, 0, 0]),
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nOK\r\n0\r\n\r\n",
     False, [0, 0, 0]),
    (b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nOK", True, [0, 0, 0]),
    (b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n", False, [1, 2, 3]),
], ids=["text", "chunked", "close-delimited", "500"])
def test_a_webhook_delivery_is_its_2xx_status_whatever_the_body(reply, close, failures):
    receiver = StubServer(reply, close=close)
    broker = ContextBroker(delivery="manual")
    sub = Subscription(id="", target=receiver.url("/notify"))
    broker.subscribe(sub)

    def deliver_three():
        seen = []
        for level in range(3):
            broker.upsert_entity(make_entity("s-1", "Sensor", level=level))
            broker.deliver_notifications()
            seen.append(sub.consecutive_failures)
        return seen

    try:
        assert _in_thread(deliver_three) == failures
        assert receiver.requests == ["POST"] * 3
        assert sub.status == ("failed" if failures[-1] else "active")
    finally:
        broker.close()
        receiver.close()


# -- client: the retry rule -----------------------------------------------------

@pytest.fixture
def drop_first():
    server = StubServer(drop_first=True)
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
    server = BrokerServer(ContextBroker())
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
    # the cap bounds replies too, so it stays above the 413 reply's body
    monkeypatch.setattr(httpd, "MAX_BODY_BYTES", 128)
    status, _ = request_json("POST", echo.url("/echo"), body="x" * 126)  # 128 bytes quoted
    assert status == 200
    with pytest.raises(httpd.HttpError) as err:
        request_json("POST", echo.url("/echo"), body="x" * 127)
    assert err.value.status == 413
    assert echo.seen == ["x" * 126]


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


def _raw_reply(fh) -> tuple:
    """(status code, body) of one reply framed by its Content-Length, read off ``fh``."""
    status = fh.readline().split()[1]
    length = 0
    while (line := fh.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    return status, fh.read(length)


def test_expect_100_continue_is_answered_before_the_body(echo):
    with socket.create_connection((echo.host, echo.port), timeout=3.0) as sock, \
            sock.makefile("rb") as fh:
        sock.sendall(b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 8\r\n"
                     b"Expect: 100-continue\r\n\r\n")
        assert (fh.readline(), fh.readline()) == (b"HTTP/1.1 100 Continue\r\n", b"\r\n")
        sock.sendall(b'{"a": 1}')
        assert _raw_reply(fh) == (b"200", b'{"n": 1}')
    assert echo.seen == [{"a": 1}]


def test_a_target_that_starts_with_two_slashes_is_routed_by_its_path(echo):
    # urlparse would read "echo" as a host name and leave an empty path
    with socket.create_connection((echo.host, echo.port), timeout=3.0) as sock, \
            sock.makefile("rb") as fh:
        sock.sendall(b"POST //echo HTTP/1.1\r\nHost: x\r\nContent-Length: 8\r\n\r\n"
                     b'{"a": 1}')
        assert _raw_reply(fh) == (b"200", b'{"n": 1}')
    assert echo.seen == [{"a": 1}]


def test_a_body_that_is_not_utf8_reaches_the_handler_as_text(echo):
    with socket.create_connection((echo.host, echo.port), timeout=3.0) as sock, \
            sock.makefile("rb") as fh:
        sock.sendall(b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\n\r\n\xff")
        assert _raw_reply(fh) == (b"200", b'{"n": 1}')
    assert echo.seen == ["\ufffd"]


@pytest.mark.parametrize("declared, status", [(b"1000000000", b"413"), (b"1e3", b"400")])
def test_expect_100_continue_with_a_refused_length_gets_no_100(echo, declared, status):
    with socket.create_connection((echo.host, echo.port), timeout=3.0) as sock:
        sock.sendall(b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: " + declared
                     + b"\r\nExpect: 100-continue\r\n\r\n")
        reply = _read_until_closed(sock)
    assert reply.split(b"\r\n", 1)[0].split()[1] == status
    assert b"100 Continue" not in reply
    assert echo.seen == []


@pytest.mark.parametrize("sent, status", [
    (b"GET /echo HTTP/1.0\r\nHost: x\r\n\r\n", 200),  # HTTP/1.0 closes by default
    (b"GET /echo HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", 200),
    (b"GET /echo HTTP/2.0\r\nHost: x\r\n\r\n", 505),
    (b"GET /echo HTTP/1.1.1\r\nHost: x\r\n\r\n", 400),
    (b"GET /echo HTTP/1.1\r\nHost : x\r\n\r\n", 400),  # whitespace before the colon
    (b"GET /echo HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n", 400),  # an obs-fold line
    (b"GET /echo HTTP/1.1\r\nHost x\r\n\r\n", 400),  # no colon
    (b"GET /echo HTTP/1.1\r\n" + b"X-A: 1\r\n" * 101 + b"\r\n", 431),
    (b"GET /echo HTTP/1.1\r\nX-A: " + b"a" * 65536 + b"\r\n\r\n", 431),
    (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\nHost: x\r\n\r\n", 414),
    (b"GET /echo\r\n", 400),  # HTTP/0.9
])
def test_the_server_answers_and_closes(echo, sent, status):
    with socket.create_connection((echo.host, echo.port), timeout=3.0) as sock:
        sock.sendall(sent)
        reply = _read_until_closed(sock)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nConnection: close" in head
    assert ("error" in json.loads(body)) == (status != 200)


@pytest.mark.parametrize("sent, status", [
    (b"GET /echo HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", 200),
    (b"GET /nowhere HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", 404),
    (b"GET /boom HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", 500),
    (b"GET /echo\r\n", 400),
    (b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 1000000000\r\n\r\n", 413),
    (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\nHost: x\r\n\r\n", 414),
    (b"GET /echo HTTP/1.1\r\n" + b"X-A: 1\r\n" * 101 + b"\r\n", 431),
    (b"BREW /echo HTTP/1.1\r\nHost: x\r\n\r\n", 501),
    (b"POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 501),
    (b"GET /echo HTTP/2.0\r\nHost: x\r\n\r\n", 505),
])
def test_every_reply_is_framed_by_its_content_length(echo, sent, status):
    """The client reads only Content-Length bodies, so every reply a server sends has one."""
    echo.add_route("GET", r"/boom", lambda match, params, body: 1 / 0)
    with socket.create_connection((echo.host, echo.port), timeout=3.0) as sock:
        sock.sendall(sent)
        reply = _read_until_closed(sock)
    head, _, body = reply.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    assert lines[0].startswith(b"HTTP/1.1 %d " % status)
    lengths = [line.partition(b":")[2] for line in lines[1:]
               if line.partition(b":")[0].lower() == b"content-length"]
    assert lengths == [b" %d" % len(body)]


def test_a_body_cut_short_is_400_and_never_dispatched(echo):
    with socket.create_connection((echo.host, echo.port), timeout=3.0) as sock:
        sock.sendall(b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 20\r\n\r\n[1, 2]")
        sock.shutdown(socket.SHUT_WR)
        reply = _read_until_closed(sock)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ") and b"\r\nConnection: close" in head
    assert json.loads(body)["error"] == "bad-request"
    assert echo.seen == []


def test_stop_is_safe_twice_and_ends_every_thread_the_server_started():
    server = _echo_server()
    server.stop()  # before start()
    before = set(threading.enumerate())
    server.start()
    conns = [http.client.HTTPConnection(server.host, server.port, timeout=3.0)
             for _ in range(3)]
    try:
        for conn in conns:
            conn.request("GET", "/echo")
            assert conn.getresponse().read()
        assert len(set(threading.enumerate()) - before) == 4  # accept, and one per connection
        server.stop()
        server.stop()
        deadline = time.monotonic() + 2.0
        while set(threading.enumerate()) - before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert set(threading.enumerate()) - before == set()
    finally:
        for conn in conns:
            conn.close()


@pytest.fixture(scope="module")
def mirror():
    """A server whose route answers the query parameters and the body it got."""
    server = JsonHttpServer()
    server.add_route("POST", r"/mirror",
                     lambda match, params, body: (200, {"params": params, "body": body}))
    server.start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def mirror_conn(mirror):
    """One keep-alive connection to ``mirror``, sending each write as it comes."""
    with socket.create_connection((mirror.host, mirror.port), timeout=3.0) as sock, \
            sock.makefile("rb") as fh:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        yield sock, fh


SPLIT_REQUEST = (b"POST /mirror?a=1&b=two HTTP/1.1\r\nHost: x\r\n"
                 b"Content-Type: application/json\r\nContent-Length: 16\r\n\r\n"
                 b'{"k": [1, 2, 3]}')


@settings(max_examples=60, deadline=None)
@given(cuts=st.sets(st.integers(1, len(SPLIT_REQUEST) - 1), max_size=6))
def test_a_request_split_anywhere_gets_the_same_reply(mirror_conn, cuts):
    sock, fh = mirror_conn
    bounds = [0, *sorted(cuts), len(SPLIT_REQUEST)]
    for start, end in zip(bounds, bounds[1:]):
        sock.sendall(SPLIT_REQUEST[start:end])
    assert _raw_reply(fh) == (b"200", b'{"body": {"k": [1, 2, 3]}, '
                                      b'"params": {"a": "1", "b": "two"}}')


@settings(max_examples=10, deadline=None)
@given(declared=st.one_of(
    st.integers(max_value=-1).map(str),
    st.text(string.digits + string.ascii_letters + string.punctuation + " ", min_size=1)
    .filter(lambda text: text.strip() and not text.strip().isdigit())))
def test_a_content_length_that_is_not_a_decimal_number_is_400(mirror, declared):
    with socket.create_connection((mirror.host, mirror.port), timeout=3.0) as sock:
        sock.sendall(b"POST /mirror HTTP/1.1\r\nHost: x\r\nContent-Length: "
                     + declared.encode("ascii") + b"\r\n\r\n{}")
        reply = _read_until_closed(sock)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ") and b"\r\nConnection: close" in head
    assert json.loads(body)["error"] == "bad-request"


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
