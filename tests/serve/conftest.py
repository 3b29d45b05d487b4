"""Harness for the serve-layer tests: in-process daemon + tiny client.

The service tests boot the real :class:`IndependenceService` behind
the real :class:`HttpFrontend` on an ephemeral port inside the test's
own event loop — no subprocesses, no sleeps for boot — and speak
actual HTTP/1.1 over ``asyncio.open_connection``.  Only the drain
tests (signal delivery, process exit codes) need a subprocess.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

from repro.serve.config import ServeConfig
from repro.serve.http import HttpFrontend
from repro.serve.service import IndependenceService

FD_ORDERS = "(/orders, ((order/@id) -> order/customer/name))"
FD_ITEMS = "(/orders, ((order/@id) -> order/item/sku))"
FD_TOTALS = "(/orders, ((order/@id) -> order/total))"
UPDATE_STATUS = "/orders/order/status"
UPDATE_NAME = "/orders/order/customer/name"


def body(fds=None, updates=None, **extra) -> dict:
    request = {
        "fds": list(fds or [FD_ORDERS]),
        "updates": list(updates or [UPDATE_STATUS]),
    }
    request.update(extra)
    return request


@contextlib.asynccontextmanager
async def running_service(tracer=None, **overrides):
    """Boot service + HTTP frontend; yields ``(service, port)``."""
    config = ServeConfig(port=0, **overrides)
    service = IndependenceService(config, tracer=tracer)
    service.start()
    frontend = HttpFrontend(service)
    _, port = await frontend.start("127.0.0.1", 0)
    try:
        yield service, port
    finally:
        await frontend.stop_accepting()
        if not service.draining:
            await service.drain()


async def raw_exchange(port, request: bytes, timeout=30.0):
    """Send raw bytes and read until the server closes the connection.

    Returns ``(status, headers, body_bytes)``; a server that keeps the
    connection open fails the read's timeout.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(request)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout)
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()
    head_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = head_blob.decode("ascii").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body_blob


async def http_request(port, method, path, payload=None, timeout=30.0):
    """One ``Connection: close`` request; returns (status, headers, body).

    ``payload`` is sent JSON-encoded, or as is when it is ``bytes``.
    """
    if isinstance(payload, bytes):
        encoded = payload
    else:
        encoded = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: test\r\nContent-Length: {len(encoded)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    status, headers, body_blob = await raw_exchange(
        port, head.encode("ascii") + encoded, timeout
    )
    return status, headers, json.loads(body_blob)


async def post_independence(port, payload, timeout=30.0):
    return await http_request(
        port, "POST", "/v1/independence", payload, timeout
    )
