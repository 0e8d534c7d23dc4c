"""Shared fixtures: an in-process broker, the canonical generated city, a
damaged copy of its feed archive and a server that is not a JSON service."""

import io
import struct
import threading
import zipfile
from datetime import date
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from citykit.broker import ContextBroker
from citykit.feedgen import CityFixture, generate_static_network
from citykit.gtfs import ngsi_to_gtfs
from citykit.routing import build_graph


@pytest.fixture
def broker():
    b = ContextBroker(delivery="inline")
    yield b
    b.close()


@pytest.fixture
def city():
    return CityFixture()


@pytest.fixture
def city_feed(city):
    feed, _ = ngsi_to_gtfs(generate_static_network(city))
    return feed


@pytest.fixture
def city_graph(city_feed):
    return build_graph(city_feed, service_date=date(2025, 6, 2))


@pytest.fixture(scope="session")
def flipped_zip():
    """The city feed's archive with the first byte of stops.txt's deflate data flipped."""
    _, data = ngsi_to_gtfs(generate_static_network(CityFixture()))
    data = bytearray(data)
    offset = zipfile.ZipFile(io.BytesIO(data)).getinfo("stops.txt").header_offset
    name_len, extra_len = struct.unpack_from("<HH", data, offset + 26)  # local file header
    data[offset + 30 + name_len + extra_len] ^= 0xFF
    return bytes(data)


HTML_PAGE = b"<html><body>It works!</body></html>"


class _HtmlHandler(BaseHTTPRequestHandler):
    def _page(self):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.send_response(200)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(HTML_PAGE)))
        self.end_headers()
        self.wfile.write(HTML_PAGE)

    do_GET = do_POST = _page

    def log_message(self, fmt, *args):
        pass


@pytest.fixture
def html_server():
    """Base URL of a server that answers every GET and POST 200 with an HTML page."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _HtmlHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join()
