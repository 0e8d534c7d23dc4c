"""Minimal JSON-over-HTTP plumbing shared by the service facades.

Servers are stdlib ``ThreadingHTTPServer`` instances with regex-dispatched
routes; handlers receive the path match, parsed query parameters, and the
decoded JSON body, and return ``(status, payload)``. A handler fails by
raising a ``KindError``, answered ``{"error": kind, "detail": message}`` with
the status ``KIND_STATUS`` gives its kind (400 for any kind not listed); any
other exception is a 500 ``internal``; a refusal before any handler runs, by
http.server too, gets the kind ``ERROR_KINDS`` names. Sorted keys make every
reply byte-deterministic.

Connections are persistent (HTTP/1.1 keep-alive) on both sides. The server
runs one thread per connection, drops a connection idle or stalled for
``IDLE_TIMEOUT_SECONDS``, refuses a body over ``MAX_BODY_BYTES`` and closes
every open connection on ``stop()``. ``request_json`` keeps up to
``POOL_SIZE`` open connections per thread and reuses them.

Both sides parse HTTP/1.1 (RFC 9112) themselves, header lines into a plain
dict with lowercased names, and send each message in one write. The server
reads a request line of three words with an ``HTTP/1.x`` version (or an
HTTP/0.9 ``GET``), at most ``MAX_HEADER_LINES`` header lines of at most
``MAX_LINE_BYTES`` each (else 431), and a body framed by one
``Content-Length``; it refuses ``Transfer-Encoding`` with 501 and a
``Content-Length`` that is not one decimal number with 400, and closes the
connection after every refusal. Both ``Content-Length`` refusals (400, and
413 over ``MAX_BODY_BYTES``) come before any ``100 Continue``. The client
reads a reply framed by ``Content-Length``, by chunked ``Transfer-Encoding``
or by the close of the connection, from HTTP/1.1 or HTTP/1.0 servers,
skipping ``1xx`` interim replies; a malformed reply is an
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
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional
from urllib.parse import parse_qs, urlparse, urlsplit

from citykit.ngsi import KindError

logger = logging.getLogger(__name__)

Handler = Callable[[re.Match, dict, Any], tuple]

# How often serve_forever checks for shutdown; stop() waits up to this long.
POLL_SECONDS = 0.02
# A server connection that sends nothing for this long, idle between requests
# or stalled inside one, is closed, so a keep-alive client cannot hold its
# thread forever.
IDLE_TIMEOUT_SECONDS = 30.0
# A request declaring a larger body is answered 413 and closed unread.
MAX_BODY_BYTES = 16 * 1024 * 1024
# Bounds of a message head on both sides: header lines, and bytes in one line.
MAX_HEADER_LINES = 100
MAX_LINE_BYTES = 64 * 1024
# Open client connections each thread keeps; the least recently used goes first.
POOL_SIZE = 4
# Methods that may be resent after their bytes may have reached the server
# (RFC 9112 section 9.3.1): POST and PATCH are not idempotent.
IDEMPOTENT = frozenset({"GET", "PUT", "DELETE"})
# The kind of a refusal before any handler runs, by status; any other is http-<status>.
ERROR_KINDS = {400: "bad-request", 413: "payload-too-large", 501: "not-implemented"}
# The reply status of a handler's KindError by its kind; any other kind is 400.
KIND_STATUS = {"not-found": 404, "unknown-series": 404, "unreachable": 404,
               "model-not-trained": 409, "fetch-failed": 502, "no-feed": 503}

_HTTP_VERSION = re.compile(r"HTTP/[0-9]\.[0-9]")
_HEX = re.compile(rb"[0-9A-Fa-f]+")
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


class _ConnectionServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` that knows its open connections, to close them."""

    daemon_threads = True

    def __init__(self, address, handler_class):
        super().__init__(address, handler_class)
        self._open: set = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        # a transport failure (a reset, a broken pipe); handler errors are 500s
        logger.debug("connection from %s failed", client_address, exc_info=True)

    def close_connections(self) -> None:
        """End every open connection; its handler thread then sees EOF and exits."""
        with self._open_lock:
            requests = list(self._open)
        for request in requests:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its handler
                pass


class JsonHttpServer:
    """Loopback-friendly HTTP server with (method, path-regex) routing."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._routes: list[tuple[str, re.Pattern, Handler]] = []
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def add_route(self, method: str, pattern: str, handler: Handler) -> None:
        """Register a handler; ``pattern`` is matched against the full path."""
        self._routes.append((method.upper(), re.compile(pattern), handler))

    def url(self, path: str = "") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def start(self) -> int:
        """Start serving on a daemon thread; returns the bound port."""
        routes = self._routes

        class _RequestHandler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = IDLE_TIMEOUT_SECONDS  # each socket read; a timeout closes
            # a reply longer than one segment ends in a short one, which Nagle's
            # algorithm holds until the client's (delayed) ACK of the others
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):  # quiet by default
                logger.debug("http " + fmt, *args)

            def parse_request(self):
                """Read the request line and the header lines into ``self.headers``;
                False once the request is refused (or the client has gone)."""
                self.close_connection = True
                words = self.raw_requestline.decode("latin-1").split()
                if len(words) == 2 and words[0] == "GET":  # HTTP/0.9: no headers
                    self.command, self.path = words
                    self.headers, self.body_length = {}, 0
                    return True
                if len(words) != 3 or not _HTTP_VERSION.fullmatch(words[2]):
                    self.send_error(400, f"bad request line {self.raw_requestline[:80]!r}")
                    return False
                self.command, self.path, version = words
                if not version.startswith("HTTP/1."):
                    self.send_error(505, f"{version} is not supported")
                    return False
                if self.path.startswith("//"):  # not a network-path reference
                    self.path = "/" + self.path.lstrip("/")
                try:
                    self.headers = _read_headers(self.rfile)
                except _HeadTooLarge as exc:
                    self.send_error(431, str(exc))
                    return False
                except http.client.HTTPException as exc:
                    self.send_error(400, str(exc))
                    return False
                if "transfer-encoding" in self.headers:
                    self.send_error(501, "Transfer-Encoding is not supported; "
                                         "send a Content-Length")
                    return False
                declared = self.headers.get("content-length") or "0"
                if not (declared.isascii() and declared.isdigit()):
                    self.send_error(400, f"bad Content-Length {declared!r}")
                    return False
                self.body_length = int(declared)
                if self.body_length > MAX_BODY_BYTES:
                    self.send_error(413, f"body of {self.body_length} bytes, "
                                         f"at most {MAX_BODY_BYTES}")
                    return False
                connection = _tokens(self.headers.get("connection", ""))
                self.close_connection = "close" in connection or (
                    version == "HTTP/1.0" and "keep-alive" not in connection)
                if version != "HTTP/1.0" \
                        and self.headers.get("expect", "").lower() == "100-continue":
                    self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                return True

            def _dispatch(self):
                parsed = urlparse(self.path)
                params = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
                body = None
                if self.body_length:
                    raw = self.rfile.read(self.body_length)
                    try:
                        body = json.loads(raw)
                    except json.JSONDecodeError:
                        body = raw.decode("utf-8", errors="replace")
                for method, rx, handler in routes:
                    if method != self.command:
                        continue
                    match = rx.fullmatch(parsed.path)
                    if match is None:
                        continue
                    try:
                        status, payload = handler(match, params, body)
                    except HttpError as exc:  # a downstream reply let through
                        status, payload = self._internal(parsed.path, exc)
                    except KindError as exc:
                        status = KIND_STATUS.get(exc.kind, 400)
                        payload = {"error": exc.kind, "detail": exc.message}
                    except Exception as exc:  # surfaced as 500, not a crash
                        status, payload = self._internal(parsed.path, exc)
                    self._reply(status, payload)
                    return
                self._reply(404, {"error": "not-found", "detail": parsed.path})

            def _internal(self, path: str, exc: Exception) -> tuple:
                logger.exception("handler error for %s %s", self.command, path)
                return 500, {"error": "internal", "detail": str(exc)}

            def send_error(self, code, message=None, explain=None):
                """Refuse as JSON and close: a body may follow unread. http.server calls it too."""
                self.close_connection = True
                self._reply(code, {"error": ERROR_KINDS.get(code, f"http-{int(code)}"),
                                   "detail": message or self.responses[code][0]})

            def _reply(self, status: int, payload):
                """Send the head and the body in one write."""
                logger.debug("http %r %d", self.raw_requestline, status)
                data = b""
                if payload is not None:
                    data = json.dumps(payload, sort_keys=True).encode("utf-8")
                head = (f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}\r\n"
                        f"Date: {self.date_time_string()}\r\n"
                        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n")
                if self.close_connection:
                    head += "Connection: close\r\n"
                self.wfile.write(head.encode("latin-1") + b"\r\n" + data)

            do_GET = _dispatch
            do_POST = _dispatch
            do_PATCH = _dispatch
            do_DELETE = _dispatch
            do_PUT = _dispatch

        self._httpd = _ConnectionServer((self.host, self.port), _RequestHandler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        args=(POLL_SECONDS,), daemon=True)
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Stop accepting and close every open connection."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd.close_connections()
            self._httpd = None


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


def _read_body(fp, n: int) -> bytes:
    data = fp.read(n)
    if len(data) < n:
        raise http.client.IncompleteRead(data, n - len(data))
    return data


def _read_chunked(fp) -> bytes:
    """A chunked body (RFC 9112 section 7.1); chunk extensions and trailers are dropped."""
    chunks = []
    while True:
        line = fp.readline(MAX_LINE_BYTES + 1)
        size = line.split(b";", 1)[0].strip()
        if len(line) > MAX_LINE_BYTES or not _HEX.fullmatch(size):
            raise http.client.HTTPException(f"bad chunk size line {line[:80]!r}")
        n = int(size, 16)
        if not n:
            _read_headers(fp)  # the trailer section
            return b"".join(chunks)
        chunks.append(_read_body(fp, n))
        if fp.readline(3).strip():
            raise http.client.HTTPException("a chunk not ended by CRLF")


def _read_reply(sock) -> tuple:
    """(status, body, whether the connection stays open) of the reply on
    ``sock``, after any ``1xx`` interim replies."""
    with sock.makefile("rb") as fp:  # bytes past the reply's end are dropped with it
        while True:
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
        connection = _tokens(headers.get("connection", ""))
        keep = "close" not in connection and (
            words[0] != b"HTTP/1.0" or "keep-alive" in connection)
        coding = headers.get("transfer-encoding", "").lower()
        declared = headers.get("content-length")
        if status in (204, 304):
            body = b""
        elif coding.rsplit(",", 1)[-1].strip() == "chunked":
            body = _read_chunked(fp)
        elif not coding and declared is not None:
            if not (declared.isascii() and declared.isdigit()):
                raise http.client.HTTPException(f"bad Content-Length {declared!r}")
            body = _read_body(fp, int(declared))
        else:  # delimited by the close (RFC 9112 section 6.3)
            body, keep = fp.read(), False
    return status, body, keep


def request_json(method: str, url: str, body=None, timeout: float = 10.0):
    """Issue a JSON request; returns (status, decoded payload).

    Raises ``HttpError`` for a non-2xx status or a body that is not JSON, and
    ``OSError`` when the host is unreachable or the connection fails. The
    request goes over the calling thread's open connection to the same
    (scheme, host, port) when the server has kept it open. If the connection
    fails after the request may have reached the server, a GET, PUT or DELETE
    is sent once more on a fresh connection; a POST or PATCH is never resent.
    A reply that is not HTTP/1.x is an ``http.client.HTTPException``.
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
        except BaseException:
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
