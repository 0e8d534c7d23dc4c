"""Minimal JSON-over-HTTP plumbing shared by the service facades.

Servers are stdlib ``ThreadingHTTPServer`` instances with regex-dispatched
routes; handlers receive the path match, parsed query parameters, and the
decoded JSON body, and return ``(status, payload)`` or raise ``HttpError``
to reply with its status and payload. Payloads are serialized
with sorted keys so responses are byte-deterministic.
"""

import json
import logging
import re
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional
from urllib.parse import parse_qs, urlparse

logger = logging.getLogger(__name__)

Handler = Callable[[re.Match, dict, Any], tuple]

# How often serve_forever checks for shutdown; stop() waits up to this long.
POLL_SECONDS = 0.02


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
                    self.close_connection = True  # where the body ends is unknown
                    self._reply(400, {"error": "bad-request",
                                      "detail": f"bad Content-Length {declared!r}"})
                    return
                length = int(declared)
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
                    except HttpError as exc:  # a handler's own error reply
                        status, payload = exc.status, exc.payload
                    except Exception as exc:  # surfaced as 500, not a crash
                        logger.exception("handler error for %s %s", self.command, parsed.path)
                        status, payload = 500, {"error": "internal", "detail": str(exc)}
                    self._reply(status, payload)
                    return
                self._reply(404, {"error": "not-found", "detail": parsed.path})

            def _reply(self, status: int, payload):
                data = b""
                if payload is not None:
                    data = json.dumps(payload, sort_keys=True).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                if data:
                    self.wfile.write(data)

            do_GET = _dispatch
            do_POST = _dispatch
            do_PATCH = _dispatch
            do_DELETE = _dispatch
            do_PUT = _dispatch

        self._httpd = ThreadingHTTPServer((self.host, self.port), _RequestHandler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        args=(POLL_SECONDS,), daemon=True)
        self._thread.start()
        return self.port

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None


class HttpService:
    """Base of each service's HTTP face, whose routes live on ``self.server``."""

    def start(self) -> str:
        """Serve on a daemon thread; returns the base URL."""
        self.server.start()
        return self.server.url()

    def stop(self) -> None:
        self.server.stop()


class HttpError(Exception):
    """Non-2xx response from a JSON endpoint."""

    def __init__(self, status: int, payload):
        self.status = status
        self.payload = payload
        super().__init__(f"HTTP {status}: {payload}")


def request_json(method: str, url: str, body=None, timeout: float = 10.0):
    """Issue a JSON request; returns (status, decoded payload).

    Raises ``HttpError`` for non-2xx statuses and ``URLError`` when the
    host is unreachable.
    """
    data = None
    headers = {}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers, method=method.upper())
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            raw = resp.read()
            payload = json.loads(raw) if raw else None
            return resp.status, payload
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        try:
            payload = json.loads(raw) if raw else None
        except json.JSONDecodeError:
            payload = raw.decode("utf-8", errors="replace")
        raise HttpError(exc.code, payload) from exc


def get_json(url: str, timeout: float = 10.0):
    return request_json("GET", url, timeout=timeout)


def post_json(url: str, body, timeout: float = 10.0):
    return request_json("POST", url, body=body, timeout=timeout)
