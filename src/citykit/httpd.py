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
            # a reply is two writes, head then body; with Nagle's algorithm the
            # body waits for a keep-alive client's delayed ACK of the head
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):  # quiet by default
                logger.debug("http %s", fmt % args)

            def _dispatch(self):
                parsed = urlparse(self.path)
                params = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
                body = None
                declared = (self.headers.get("Content-Length") or "0").strip()
                if not (declared.isascii() and declared.isdigit()):
                    return self.send_error(400, f"bad Content-Length {declared!r}")
                length = int(declared)
                if length > MAX_BODY_BYTES:
                    return self.send_error(413, f"body of {length} bytes, at most {MAX_BODY_BYTES}")
                if length:
                    raw = self.rfile.read(length)
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
                if self.request_version == "HTTP/0.9":  # the request line named no version
                    self.request_version = self.protocol_version  # a reply with a head
                self._reply(code, {"error": ERROR_KINDS.get(code, f"http-{int(code)}"),
                                   "detail": message or self.responses[code][0]})

            def _reply(self, status: int, payload):
                data = b""
                if payload is not None:
                    data = json.dumps(payload, sort_keys=True).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                if self.close_connection:
                    self.send_header("Connection", "close")
                self.end_headers()
                if data:
                    self.wfile.write(data)

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


def request_json(method: str, url: str, body=None, timeout: float = 10.0):
    """Issue a JSON request; returns (status, decoded payload).

    Raises ``HttpError`` for a non-2xx status or a body that is not JSON, and
    ``OSError`` when the host is unreachable or the connection fails. The
    request goes over the calling thread's open connection to the same
    (scheme, host, port) when the server has kept it open. If the connection
    fails after the request may have reached the server, a GET, PUT or DELETE
    is sent once more on a fresh connection; a POST or PATCH is never resent.
    """
    method = method.upper()
    parts = urlsplit(url)
    key = (parts.scheme, parts.hostname, parts.port)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    data = None
    headers = {}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    pool = _pool()
    conn = pool.take(key) or _connect(*key, timeout)
    retries = 1 if method in IDEMPOTENT else 0
    while True:
        conn.sock.settimeout(timeout)
        try:
            conn.request(method, target, body=data, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
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
    pool.give(key, conn)
    try:
        payload = json.loads(raw) if raw else None
    except ValueError:  # not JSON, or not UTF-8
        raise HttpError(resp.status, raw.decode("utf-8", errors="replace")) from None
    if 200 <= resp.status < 300:
        return resp.status, payload
    raise HttpError(resp.status, payload)
