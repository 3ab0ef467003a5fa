"""The HTTP/1.1 wire layer the coordinator serves its API on.

A deliberately small HTTP/1.1 implementation (request line + headers +
``Content-Length`` body, one request per connection) on
``asyncio.start_server`` — no ``http.server``, no threads in the
serving path.  The routes themselves live in
:class:`~repro.cluster.coordinator.ClusterCoordinator`, which is both
``stfm-sim serve`` and ``stfm-sim coordinator``, and may hold a
request: :func:`_first_of` parks it on the events it waits for.
"""

from __future__ import annotations

import asyncio
import json
import re

_MAX_REQUEST_LINE = 8192
_MAX_HEADERS = 100
_MAX_BODY = 8 << 20  # store-proxy entry blobs ride POST/PUT bodies too

#: The longest a request is held, seconds.
MAX_HOLD = 60.0

_PREFER_WAIT_RE = re.compile(
    r"(?:^|[,;])\s*wait\s*=\s*\"?(\d+(?:\.\d*)?)", re.IGNORECASE
)

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 204: "No Content", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 410: "Gone",
    412: "Precondition Failed",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(
    reader: asyncio.StreamReader,
) -> "tuple[str, str, dict, bytes] | None":
    """Parse one request; None for an immediately-closed connection."""
    try:
        line = await reader.readline()
    except (ConnectionError, OSError):
        return None
    if not line:
        return None
    if len(line) > _MAX_REQUEST_LINE:
        raise _HttpError(400, "request line too long")
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise _HttpError(400, "malformed request line")
    method, target, _version = parts
    if method not in ("GET", "POST", "PUT"):
        raise _HttpError(405, f"unsupported method {method}")
    headers = {}
    for _ in range(_MAX_HEADERS):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if b":" in line:
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(400, "too many headers")
    body = b""
    if method in ("POST", "PUT"):
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length > _MAX_BODY:
            raise _HttpError(413, "request body too large")
        if length:
            body = await reader.readexactly(length)
    path = target.split("?", 1)[0]
    return method, path, headers, body


def _json_response(status: int, payload: dict) -> tuple[int, dict, bytes]:
    return (
        status,
        {"Content-Type": "application/json"},
        (json.dumps(payload) + "\n").encode(),
    )


def _serialize_response(status: int, headers: dict, body: bytes) -> bytes:
    reason = _STATUS_TEXT.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    headers = {"Connection": "close", "Content-Length": str(len(body)), **headers}
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _preferred_wait(headers: dict) -> float:
    """The ``Prefer: wait=N`` window (RFC 7240; a header because the
    query string is dropped), capped at MAX_HOLD; 0 when absent or
    malformed, as a server ignores a preference it cannot read."""
    match = _PREFER_WAIT_RE.search(headers.get("prefer", ""))
    return min(float(match.group(1)), MAX_HOLD) if match else 0.0


def _hung_up(reader: asyncio.StreamReader) -> bool:
    """The client closed its end (EOF) or the connection broke."""
    return reader.at_eof() or reader.exception() is not None


async def _first_of(timeout: float, *waits) -> None:
    """Wait until one of ``waits`` finishes or ``timeout`` passes.  The
    rest are cancelled and have unwound on return (a stream allows one
    pending read at a time); outcomes are discarded."""
    tasks = [asyncio.ensure_future(wait) for wait in waits]
    try:
        await asyncio.wait(
            tasks, timeout=timeout, return_when=asyncio.FIRST_COMPLETED
        )
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
