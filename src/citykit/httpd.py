"""Minimal JSON-over-HTTP plumbing shared by the service facades.

Servers route by (method, path regex); handlers receive the path match,
parsed query parameters, and the decoded JSON body, and return ``(status,
payload)``. A handler fails by raising a ``KindError``, answered
``{"error": kind, "detail": message}`` with the status ``KIND_STATUS`` gives
its kind (400 for any kind not listed); any other exception is a 500
``internal``; a refusal before any handler runs gets the kind
``ERROR_KINDS`` names. Sorted keys make every reply byte-deterministic.

Connections are persistent (HTTP/1.1 keep-alive) on both sides. The server
is plain sockets: one thread accepts, and each connection gets a thread that
reads a request, dispatches it and sends the reply, until either side
closes. It drops a connection idle or stalled for ``IDLE_TIMEOUT_SECONDS``,
refuses a body over ``MAX_BODY_BYTES`` and closes every open connection on
``stop()``. ``request_json`` keeps up to ``POOL_SIZE`` open connections per
thread and reuses them.

Both sides parse HTTP/1.1 (RFC 9112) themselves, header lines into a plain
dict with lowercased names, and send each message in one write. The server
reads a request line of three words with an ``HTTP/1.x`` version (an
HTTP/0.9 ``GET`` is a 400) of at most ``MAX_LINE_BYTES`` (else 414), at most
``MAX_HEADER_LINES`` header lines of at most ``MAX_LINE_BYTES`` each (else
431), and a body framed by one ``Content-Length``; it refuses
``Transfer-Encoding`` and a method outside ``METHODS`` with 501, a
``Content-Length`` that is not one decimal number, and a body cut short by
the close of the client's side, with 400, and closes the connection after
every refusal. Both ``Content-Length`` refusals (400, and 413 over
``MAX_BODY_BYTES``) come before any ``100 Continue``. The client, likewise,
reads only a body framed by one ``Content-Length`` of at most
``MAX_BODY_BYTES``, from HTTP/1.1 or HTTP/1.0 servers, after at most
``MAX_INTERIM_REPLIES`` ``1xx`` replies; any other reply is its status alone:
its body is not read and its connection closes. A malformed reply, or one
declaring a longer body or more interim replies, is an
``http.client.HTTPException``.
"""

import atexit
import http.client
import json
import logging
import re
import select
import socket
import threading
from collections import OrderedDict
from email.utils import formatdate
from typing import Any, Callable, Optional
from urllib.parse import parse_qs, urlparse, urlsplit

from citykit.ngsi import KindError

logger = logging.getLogger(__name__)

Handler = Callable[[re.Match, dict, Any], tuple]

# A server connection that sends nothing for this long, idle between requests
# or stalled inside one, is closed, so a keep-alive client cannot hold its
# thread forever.
IDLE_TIMEOUT_SECONDS = 30.0
# A request declaring a larger body is answered 413 and closed unread; a reply
# declaring one is an http.client.HTTPException, read no further.
MAX_BODY_BYTES = 16 * 1024 * 1024
# Bounds of a message head on both sides: header lines, and bytes in one line.
MAX_HEADER_LINES = 100
MAX_LINE_BYTES = 64 * 1024
MAX_INTERIM_REPLIES = 8  # 1xx replies the client skips; one more is an HTTPException
# Open client connections each thread keeps; the least recently used goes first.
POOL_SIZE = 4
# Methods that may be resent after their bytes may have reached the server
# (RFC 9112 section 9.3.1): POST and PATCH are not idempotent.
IDEMPOTENT = frozenset({"GET", "PUT", "DELETE"})
# Methods the server routes; any other is answered 501.
METHODS = frozenset({"GET", "POST", "PUT", "PATCH", "DELETE"})
# The kind of a refusal before any handler runs, by status; any other is http-<status>.
ERROR_KINDS = {400: "bad-request", 413: "payload-too-large", 501: "not-implemented"}
# The reply status of a handler's KindError by its kind; any other kind is 400.
KIND_STATUS = {"not-found": 404, "unknown-series": 404, "unreachable": 404,
               "model-not-trained": 409, "fetch-failed": 502, "no-feed": 503}

_HTTP_VERSION = re.compile(r"HTTP/[0-9]\.[0-9]")
# bytes that may not appear in a request target or a Host (http.client refuses them too)
_UNSAFE_URL = re.compile(r"[\x00-\x20\x7f]")


class _HeadTooLarge(http.client.HTTPException):
    """A message head over ``MAX_HEADER_LINES`` lines or ``MAX_LINE_BYTES`` a line."""


def _read_headers(fp) -> dict:
    """The header lines of a message head, up to the blank line that ends it
    (or the end of the stream), by lowercased name; a repeated name's values
    are joined with ``", "``. A line without a colon, or with whitespace
    around the name, is an ``http.client.HTTPException``."""
    headers = {}
    for _ in range(MAX_HEADER_LINES + 1):
        line = fp.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _HeadTooLarge(f"a header line over {MAX_LINE_BYTES} bytes")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise http.client.HTTPException(f"malformed header line {line[:80]!r}")
        name, value = name.lower(), value.strip()
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    raise _HeadTooLarge(f"more than {MAX_HEADER_LINES} header lines")


def _tokens(value: str) -> set:
    """The comma-separated tokens of a header value, lowercased."""
    return {token.strip() for token in value.lower().split(",")}


def _refusal(status: int, detail: str) -> "HttpError":
    """The reply to a request refused before any handler runs."""
    return HttpError(status, {"error": ERROR_KINDS.get(status, f"http-{status}"),
                              "detail": detail})


def _read_request(conn: socket.socket, rfile) -> Optional[tuple]:
    """(method, target, body, whether the connection stays open) of the next
    request on ``conn``, read off ``rfile``; None at the end of the stream. A
    refused request raises the ``HttpError`` to answer it with."""
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise _refusal(414, f"a request line over {MAX_LINE_BYTES} bytes")
    words = line.decode("latin-1").split()
    if len(words) != 3 or not _HTTP_VERSION.fullmatch(words[2]):
        raise _refusal(400, f"bad request line {line[:80]!r}")
    method, target, version = words
    if not version.startswith("HTTP/1."):
        raise _refusal(505, f"{version} is not supported")
    try:
        headers = _read_headers(rfile)
    except _HeadTooLarge as exc:
        raise _refusal(431, str(exc)) from None
    except http.client.HTTPException as exc:
        raise _refusal(400, str(exc)) from None
    if "transfer-encoding" in headers:
        raise _refusal(501, "Transfer-Encoding is not supported; send a Content-Length")
    declared = headers.get("content-length") or "0"
    if not (declared.isascii() and declared.isdigit()):
        raise _refusal(400, f"bad Content-Length {declared!r}")
    length = int(declared)
    if length > MAX_BODY_BYTES:
        raise _refusal(413, f"body of {length} bytes, at most {MAX_BODY_BYTES}")
    if method not in METHODS:
        raise _refusal(501, f"unsupported method {method!r}")
    if version != "HTTP/1.0" and headers.get("expect", "").lower() == "100-continue":
        conn.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
    body = rfile.read(length)
    if len(body) < length:  # the client closed its side inside the body
        raise _refusal(400, f"a body of {len(body)} bytes, {length} declared")
    connection = _tokens(headers.get("connection", ""))
    keep = "close" not in connection and (version != "HTTP/1.0" or "keep-alive" in connection)
    return method, target, body, keep


def _reply(status: int, payload, keep: bool) -> bytes:
    """The head and the body of a reply, to send in one write."""
    data = b"" if payload is None else json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (f"HTTP/1.1 {status} {http.client.responses.get(status, '')}\r\n"
            f"Date: {formatdate(usegmt=True)}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n")
    if not keep:
        head += "Connection: close\r\n"
    return head.encode("latin-1") + b"\r\n" + data


class JsonHttpServer:
    """Loopback-friendly HTTP server with (method, path-regex) routing."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._routes: list[tuple[str, re.Pattern, Handler]] = []
        self._listener: Optional[socket.socket] = None
        self._accepter: Optional[threading.Thread] = None
        self._open: set = set()
        self._open_lock = threading.Lock()

    def add_route(self, method: str, pattern: str, handler: Handler) -> None:
        """Register a handler; ``pattern`` is matched against the full path."""
        self._routes.append((method.upper(), re.compile(pattern), handler))

    def url(self, path: str = "") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def start(self) -> int:
        """Accept connections on a daemon thread; returns the bound port."""
        self._listener = socket.create_server((self.host, self.port))
        self.port = self._listener.getsockname()[1]
        self._accepter = threading.Thread(target=self._accept, args=(self._listener,),
                                          daemon=True)
        self._accepter.start()
        return self.port

    def stop(self) -> None:
        """Stop accepting, then close every open connection; its thread then
        sees the end of the stream and exits."""
        listener, self._listener = self._listener, None
        if listener is None:
            return
        with socket.create_connection(listener.getsockname()[:2]):  # wakes accept()
            pass
        self._accepter.join()
        listener.close()
        with self._open_lock:
            conns = list(self._open)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its thread
                pass

    def _accept(self, listener: socket.socket) -> None:
        """Give each accepted connection a daemon thread, until ``stop()``."""
        while True:
            try:
                conn, address = listener.accept()
            except OSError:  # out of descriptors, or the client left first
                logger.debug("accept failed", exc_info=True)
                continue
            if self._listener is not listener:  # the connection stop() made
                conn.close()
                return
            with self._open_lock:
                self._open.add(conn)
            threading.Thread(target=self._serve, args=(conn, address), daemon=True).start()

    def _serve(self, conn: socket.socket, address) -> None:
        """Answer the requests on ``conn`` in order until either side closes it.
        A connection that sends nothing for ``IDLE_TIMEOUT_SECONDS`` is closed."""
        try:
            with conn, conn.makefile("rb") as rfile:
                conn.settimeout(IDLE_TIMEOUT_SECONDS)
                # a reply longer than one segment ends in a short one, which Nagle's
                # algorithm holds until the client's (delayed) ACK of the others
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                keep = True
                while keep:
                    try:
                        request = _read_request(conn, rfile)
                    except HttpError as refused:
                        status, payload, keep = refused.status, refused.payload, False
                    else:
                        if request is None:
                            return
                        method, target, body, keep = request
                        status, payload = self._dispatch(method, target, body)
                    logger.debug("http %s %d", address, status)
                    conn.sendall(_reply(status, payload, keep))
        except OSError:  # a reset, a broken pipe, the idle timeout
            logger.debug("connection from %s failed", address, exc_info=True)
        except Exception:  # a fault of the server's own: the connection closes unanswered
            logger.exception("connection from %s failed", address)
        finally:
            with self._open_lock:
                self._open.discard(conn)

    def _dispatch(self, method: str, target: str, raw: bytes) -> tuple:
        """(status, payload) of the route that ``method`` and ``target`` name."""
        if target.startswith("//"):  # not a network-path reference
            target = "/" + target.lstrip("/")
        parsed = urlparse(target)
        params = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        body = None
        if raw:
            try:
                body = json.loads(raw)
            except ValueError:  # not JSON, or not UTF-8
                body = raw.decode("utf-8", errors="replace")
        for route_method, rx, handler in self._routes:
            match = rx.fullmatch(parsed.path) if route_method == method else None
            if match is None:
                continue
            try:
                status, payload = handler(match, params, body)
            except HttpError as exc:  # a downstream reply let through
                status, payload = _internal(method, parsed.path, exc)
            except KindError as exc:
                status = KIND_STATUS.get(exc.kind, 400)
                payload = {"error": exc.kind, "detail": exc.message}
            except Exception as exc:  # surfaced as 500, not a crash
                status, payload = _internal(method, parsed.path, exc)
            return status, payload
        return 404, {"error": "not-found", "detail": parsed.path}


def _internal(method: str, path: str, exc: Exception) -> tuple:
    logger.exception("handler error for %s %s", method, path)
    return 500, {"error": "internal", "detail": str(exc)}


class HttpService:
    """Base of each service's HTTP face, whose routes live on ``self.server``."""

    def start(self) -> str:
        """Serve on a daemon thread; returns the base URL."""
        self.server.start()
        return self.server.url()

    def stop(self) -> None:
        self.server.stop()


class HttpError(KindError):
    """A non-2xx reply, or a reply whose body is not JSON.

    ``kind`` is the reply's ``error`` when that is a string, else
    ``http-<status>``; ``message`` is its ``detail`` when that is a string,
    else the payload's text.
    """

    def __init__(self, status: int, payload):
        self.status = status
        self.payload = payload
        doc = payload if isinstance(payload, dict) else {}
        kind, detail = doc.get("error"), doc.get("detail")
        text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
        super().__init__(kind if isinstance(kind, str) else f"http-{status}",
                         detail if isinstance(detail, str) else text)


class _ConnectionPool(OrderedDict):
    """One thread's open connections by (scheme, host, port), least recently used first."""

    def __del__(self):  # the thread has ended
        self.close()

    def close(self) -> None:
        while self:
            self.popitem()[1].close()

    def take(self, key) -> Optional[http.client.HTTPConnection]:
        """The pooled connection for ``key`` if the server has not closed it."""
        conn = self.pop(key, None)
        if conn is not None and not _idle_alive(conn):
            conn.close()
            conn = None
        return conn

    def give(self, key, conn: http.client.HTTPConnection) -> None:
        """Keep ``conn`` for reuse, closing dead connections and then the oldest."""
        if conn.sock is None:  # the server asked to close it
            return
        self[key] = conn
        if len(self) > POOL_SIZE:
            for dead in [k for k, c in self.items() if not _idle_alive(c)]:
                self.pop(dead).close()
        while len(self) > POOL_SIZE:
            self.popitem(last=False)[1].close()


def _idle_alive(conn: http.client.HTTPConnection) -> bool:
    """An idle connection is usable while it has nothing to read: a readable
    one was closed by the server (EOF) or holds bytes nobody asked for."""
    try:
        readable, _, _ = select.select([conn.sock], [], [], 0)
    except (OSError, ValueError):
        return False
    return not readable


_local = threading.local()


def _pool() -> _ConnectionPool:
    pool = getattr(_local, "pool", None)
    if pool is None:
        pool = _local.pool = _ConnectionPool()
    return pool


def close_connections() -> None:
    """Close the calling thread's pooled connections."""
    _pool().close()


atexit.register(close_connections)


def _connect(scheme: str, host: str, port: Optional[int],
             timeout: float) -> http.client.HTTPConnection:
    kind = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}.get(scheme)
    if kind is None:
        raise ValueError(f"unsupported URL scheme {scheme!r}")
    # an explicit port: http.client would read a bare IPv6 host's last group as one
    conn = kind(host, port or kind.default_port, timeout=timeout)
    conn.connect()  # an unreachable host raises OSError here, before any retry
    return conn


def _read_reply(sock) -> tuple:
    """(status, body, whether the connection stays open) of the reply on
    ``sock``, after at most ``MAX_INTERIM_REPLIES`` ``1xx`` interim replies.
    Only a body framed by ``Content-Length`` is read (RFC 9112 section 6.3);
    any other reply raises ``HttpError`` with its status, its body unread."""
    with sock.makefile("rb") as fp:  # bytes past the reply's end are dropped with it
        for _ in range(MAX_INTERIM_REPLIES + 1):
            line = fp.readline(MAX_LINE_BYTES + 1)
            if not line:
                raise http.client.RemoteDisconnected("closed without a reply")
            words = line.split(None, 2)
            if len(words) < 2 or not words[0].startswith(b"HTTP/1.") \
                    or len(words[1]) != 3 or not words[1].isdigit():
                raise http.client.BadStatusLine(line[:80].decode("latin-1"))
            headers = _read_headers(fp)
            status = int(words[1])
            if status >= 200:
                break
        else:
            raise http.client.HTTPException(f"more than {MAX_INTERIM_REPLIES} interim replies")
        connection = _tokens(headers.get("connection", ""))
        keep = "close" not in connection and (
            words[0] != b"HTTP/1.0" or "keep-alive" in connection)
        declared = headers.get("content-length")
        if status in (204, 304):
            return status, b"", keep
        if declared is None or "transfer-encoding" in headers:
            raise HttpError(status, "a reply body not framed by Content-Length")
        if not (declared.isascii() and declared.isdigit()):
            raise http.client.HTTPException(f"bad Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise http.client.HTTPException(f"body of {length} bytes, at most {MAX_BODY_BYTES}")
        body = fp.read(length)
        if len(body) < length:
            raise http.client.IncompleteRead(body, length - len(body))
    return status, body, keep


def request_json(method: str, url: str, body=None, timeout: float = 10.0):
    """Issue a JSON request; returns (status, decoded payload).

    Raises ``HttpError`` for a non-2xx status, a body that is not JSON or a
    body not framed by ``Content-Length`` (left unread), and ``OSError`` when
    the host is unreachable or the connection fails. The request goes over the
    calling thread's open connection to the same (scheme, host, port) when the
    server has kept it open. If the connection fails after the request may
    have reached the server, a GET, PUT or DELETE is sent once more on a fresh
    connection; a POST or PATCH is never resent. A reply that is not HTTP/1.x,
    or that declares a body over ``MAX_BODY_BYTES``, is an
    ``http.client.HTTPException``.
    """
    method = method.upper()
    parts = urlsplit(url)
    key = (parts.scheme, parts.hostname, parts.port)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    host = parts.netloc.rpartition("@")[2]
    if _UNSAFE_URL.search(target) or _UNSAFE_URL.search(host):
        raise http.client.InvalidURL(f"control characters or spaces in {url!r}")
    head = f"{method} {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
    data = b""
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
    message = head.encode("ascii") + b"\r\n" + data
    pool = _pool()
    conn = pool.take(key) or _connect(*key, timeout)
    retries = 1 if method in IDEMPOTENT else 0
    while True:
        conn.sock.settimeout(timeout)
        try:
            conn.sock.sendall(message)
            status, raw, keep = _read_reply(conn.sock)
            break
        except (ConnectionError, http.client.HTTPException):
            conn.close()
            if not retries:
                raise
            retries -= 1
            conn = _connect(*key, timeout)
        except BaseException:  # a timeout, or a reply taken as its status alone
            conn.close()
            raise
    if not keep:
        conn.close()
    pool.give(key, conn)
    try:
        payload = json.loads(raw) if raw else None
    except ValueError:  # not JSON, or not UTF-8
        raise HttpError(status, raw.decode("utf-8", errors="replace")) from None
    if 200 <= status < 300:
        return status, payload
    raise HttpError(status, payload)
