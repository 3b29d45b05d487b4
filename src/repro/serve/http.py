"""Minimal asyncio HTTP/1.1 transport for the IC service.

Stdlib-only by project constraint, and deliberately tiny: the server
speaks exactly as much HTTP as the service API needs — request line,
headers, ``Content-Length`` bodies, keep-alive — and transports
:meth:`~repro.serve.service.IndependenceService.handle`'s already
status-coded answers.  Every policy decision (shed vs. degrade vs.
drain) lives in the service layer; nothing here ever invents a status
code beyond protocol errors (400 malformed framing, 404 unknown path,
405 wrong method, 413 oversized body).

Routes::

    POST /v1/independence    the one work endpoint
    GET  /healthz            liveness (200 while the process runs)
    GET  /readyz             readiness (503 once draining)
    GET  /metrics            MetricsRegistry snapshot
    GET  /stats              queue/latency/breaker/pool accounting
"""

from __future__ import annotations

import asyncio
import json
import socket

from repro.serve.api import MAX_BODY_BYTES, error_body
from repro.serve.service import IndependenceService

#: request line + headers cap (a header storm is not a work request)
MAX_HEADER_BYTES = 32 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _encode(status: int, body: dict, headers: dict, keep_alive: bool) -> bytes:
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + payload


class HttpFrontend:
    """Owns the listening socket; one handler task per connection."""

    def __init__(self, service: IndependenceService) -> None:
        self.service = service
        self._server: asyncio.AbstractServer | None = None

    async def start(self, host: str, port: int) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port) — port 0 is
        resolved to the kernel-assigned ephemeral port."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop_accepting(self) -> None:
        """Close the listener (drain step 1); live connections finish."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            try:
                # explicit FIN before close: the warm worker pool forks
                # while connections are live, so forked children hold
                # duplicate socket fds and a plain close() would leave
                # the client waiting for an EOF that never comes.
                # shutdown() sends the FIN regardless of fd refcounts.
                sock = writer.get_extra_info("socket")
                if sock is not None:
                    sock.shutdown(socket.SHUT_WR)
            except (ConnectionError, OSError):
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_one(self, reader, writer) -> bool:
        header_blob = await self._read_headers(reader)
        if header_blob is None:
            return False
        try:
            method, path, headers = _parse_head(header_blob)
            length = _content_length(headers)
        except ValueError as error:
            return await self._refuse(writer, 400, str(error))
        if length > MAX_BODY_BYTES:
            return await self._refuse(
                writer, 413, f"body exceeds {MAX_BODY_BYTES} bytes"
            )
        body_bytes = await reader.readexactly(length) if length else b""
        tokens = headers.get("connection", "").lower().split(",")
        keep_alive = "close" not in (token.strip() for token in tokens)
        status, body, extra = await self._route(method, path, body_bytes)
        await self._respond(writer, status, body, extra, keep_alive)
        return keep_alive

    async def _refuse(self, writer, status: int, message: str) -> bool:
        """Answer a framing error and close: the stream is unreadable."""
        await self._respond(writer, status, error_body(status, message), {}, False)
        return False

    async def _read_headers(self, reader) -> bytes | None:
        """The bytes up to the blank line, or None on clean EOF.

        ``readuntil`` leaves body bytes in the stream buffer, so the
        follow-up ``readexactly(Content-Length)`` composes cleanly.
        """
        try:
            blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # clean EOF between keep-alive requests
            raise
        if len(blob) > MAX_HEADER_BYTES:
            raise asyncio.LimitOverrunError("header overflow", len(blob))
        return blob[: -len(b"\r\n\r\n")]

    async def _respond(self, writer, status, body, headers, keep_alive) -> None:
        writer.write(_encode(status, body, headers, keep_alive))
        await writer.drain()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body_bytes: bytes
    ) -> tuple[int, dict, dict]:
        if path == "/v1/independence":
            if method != "POST":
                return 405, error_body(405, "use POST"), {"Allow": "POST"}
            try:
                body = json.loads(body_bytes.decode("utf-8"))
            # ValueError covers bad UTF-8, bad JSON and integers too
            # long to convert; RecursionError, nesting too deep
            except (ValueError, RecursionError) as error:
                return 400, error_body(400, f"invalid JSON body: {error}"), {}
            return await self.service.handle(body)
        if method != "GET":
            return 405, error_body(405, "use GET"), {"Allow": "GET"}
        if path == "/healthz":
            return 200, self.service.health(), {}
        if path == "/readyz":
            if self.service.draining:
                return 503, error_body(503, "draining"), {}
            return 200, {"ok": True, "ready": True}, {}
        if path == "/metrics":
            return 200, self.service.metrics_snapshot(), {}
        if path == "/stats":
            return 200, self.service.stats(), {}
        return 404, error_body(404, f"no route {path}"), {}


def _content_length(headers: dict) -> int:
    """The declared body length (0 when absent); ValueError unless the
    value is plain digits — ``int()`` would also take "-1" or "+5"."""
    raw = headers.get("content-length") or "0"
    if not raw.isdigit():
        raise ValueError(f"invalid Content-Length: {raw!r}")
    digits = raw.lstrip("0") or "0"
    # int() refuses thousands of digits; every such length is too large
    return int(digits) if len(digits) <= 18 else MAX_BODY_BYTES + 1


def _parse_head(blob: bytes) -> tuple[str, str, dict]:
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError as error:
        raise ValueError("request head must be ASCII") from error
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise ValueError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    path = target.split("?", 1)[0]
    return method, path, headers
