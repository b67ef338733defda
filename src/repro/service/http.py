"""The socket transport: stdlib ``ThreadingHTTPServer`` over the dispatch API.

Deliberately thin -- every route, status code, and body lives in
:class:`~repro.service.api.ServiceApi`; this module only reads requests off
sockets and writes :class:`~repro.service.api.Response` objects back.
Streaming responses (the NDJSON event feed) are sent close-delimited
(``Connection: close``) so no chunked-encoding machinery is needed and plain
``curl``/``urllib`` consume them naturally.  The transport also rejects
bodies it will not read: a ``Content-Length`` that is not a non-negative
integer gets a 400, one above :data:`MAX_BODY_BYTES` a 413, and either
closes the connection.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple
from urllib.parse import parse_qs, urlsplit

from .api import Response, ServiceApi

#: Largest request body the transport reads, in bytes.  The largest
#: registered study spec serializes to about 1 KB; a longer declared body is
#: refused before a byte of it is read (or a buffer for it allocated).
MAX_BODY_BYTES = 1 << 20


class _ApiHandler(BaseHTTPRequestHandler):
    """Per-connection handler; the server class carries the shared ``api``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    def do_GET(self) -> None:  # noqa: N802 -- BaseHTTPRequestHandler naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")

    def _handle(self, method: str) -> None:
        split = urlsplit(self.path)
        query = {key: values[-1] for key, values in parse_qs(split.query).items()}
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1  # refused below, like a negative length
        if length < 0:
            self._write(Response.error(400, "Content-Length must be a non-negative integer", "BadRequest"), close=True)
            return
        if length > MAX_BODY_BYTES:
            message = f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            self._write(Response.error(413, message, "PayloadTooLarge"), close=True)
            return
        body = self.rfile.read(length) if length else b""
        try:
            response = self.server.api.dispatch(method, split.path, body=body, query=query)
        except Exception as error:  # noqa: BLE001 -- one bad request must not kill the thread
            response = Response.error(500, f"{type(error).__name__}: {error}", "InternalError")
        self._write(response)

    def _write(self, response: Response, close: bool = False) -> None:
        """Send ``response``; ``close`` ends the connection after it (the
        request's body was left unread, so no further request can follow)."""
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            if response.stream is None:
                self.send_header("Content-Length", str(len(response.body)))
                if close:
                    self.send_header("Connection", "close")  # also sets close_connection
                self.end_headers()
                if response.body:
                    self.wfile.write(response.body)
                return
            # Close-delimited stream: the client reads until EOF.
            self.send_header("Connection", "close")
            self.end_headers()
            self.close_connection = True
            for chunk in response.stream:
                self.wfile.write(chunk)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # client went away mid-stream

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # request logging is the caller's concern, not stderr noise


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ServiceApi`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], api: ServiceApi) -> None:
        super().__init__(address, _ApiHandler)
        self.api = api


def make_server(api: ServiceApi, host: str = "127.0.0.1", port: int = 8642) -> ServiceHTTPServer:
    """Bind (without serving) a server for this API; ``port=0`` picks a free one."""
    return ServiceHTTPServer((host, port), api)
