"""The one HTTP round trip every client in the package shares — and
the only module that imports ``http.client``.  Callers layer their own
codec and fault sites on top and retry through
:func:`repro.resilience.retry`."""

from __future__ import annotations

import http.client
import socket
import urllib.parse


class Transport:
    """Round trips to one ``http://host:port`` endpoint (default port
    8765), one connection per request: the service and the coordinator
    both speak ``Connection: close``.  :meth:`close` hangs up the
    requests in flight, which is how a stopping runner leaves a lease
    request the coordinator holds."""

    def __init__(self, base_url: str, timeout: float) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"only http:// URLs are supported: {base_url}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 8765
        self.timeout = timeout
        self.closed = False
        self._open: set = set()  # connections with a request in flight

    def send(
        self, method: str, path: str, body: "bytes | None" = None,
        headers: "dict[str, str] | None" = None,
    ) -> "tuple[int, dict[str, str], bytes]":
        """One request → (status, lower-cased headers, body bytes).

        Raises ``OSError`` on a connection failure, and a
        ``ConnectionError`` on a malformed or cut-short response
        (``http.client.HTTPException``): either way the round trip is
        lost."""
        if self.closed:
            raise ConnectionAbortedError("transport is closed")
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.connect()
            self._open.add(conn)
            if self.closed:  # closed while this one connected
                raise ConnectionAbortedError("transport is closed")
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            raw = response.read()
            lowered = {k.lower(): v for k, v in response.getheaders()}
            return response.status, lowered, raw
        except http.client.HTTPException as exc:
            raise ConnectionError(
                f"malformed response to {method} {path}: {exc!r}"
            ) from exc
        finally:
            self._open.discard(conn)
            conn.close()

    def close(self) -> None:
        """Fail later sends, and half-close (shut the write side of)
        every connection in flight: the server reads EOF, and the
        blocked read here ends when the server closes its side.  Safe
        from a signal handler and from another thread: no locks."""
        self.closed = True
        for conn in list(self._open):
            _hang_up(conn)


def _hang_up(conn: http.client.HTTPConnection) -> None:
    try:
        conn.sock.shutdown(socket.SHUT_WR)
    except (AttributeError, OSError):  # not connected, or already gone
        pass
