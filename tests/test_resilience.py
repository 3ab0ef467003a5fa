"""Tests for the shared resilience and transport layer.

Covers :func:`repro.resilience.backoff` and :func:`repro.resilience.retry`
directly, the service client's per-attempt fault keys and method rules
on top of them, a response cut short mid-body (which must surface as a
``ConnectionError`` to every caller, never ``http.client.IncompleteRead``),
and the engine's import footprint.
"""

from __future__ import annotations

import contextlib
import os
import socket
import subprocess
import sys
import threading

import pytest

from repro import faults
from repro.engine.backends import HttpStoreBackend
from repro.resilience import HALF_OPEN, CircuitBreaker, NotSent, backoff, retry
from repro.service.client import ServiceClient


class TestBackoff:
    def test_doubles_with_bounded_deterministic_jitter(self):
        for attempt in (1, 2, 3, 4):
            delay = backoff(0.1, attempt, 100.0, f"k:{attempt}")
            nominal = 0.1 * 2 ** (attempt - 1)
            assert nominal * 0.85 <= delay <= nominal * 1.15
            assert delay == backoff(0.1, attempt, 100.0, f"k:{attempt}")

    def test_jitter_depends_on_the_key(self):
        delays = {backoff(1.0, 1, 10.0, f"runner-{i}") for i in range(8)}
        assert len(delays) == 8

    def test_cap_applies_after_jitter(self):
        for i in range(20):
            assert backoff(1.0, 10, 2.0, f"k{i}") == 2.0


class TestRetry:
    def _flaky(self, errors):
        calls: list[int] = []

        def attempt(n):
            calls.append(n)
            if errors:
                raise errors.pop(0)
            return "ok"

        return attempt, calls

    def test_not_sent_is_retried_even_when_not_retriable(self):
        attempt, calls = self._flaky([NotSent("x"), NotSent("y")])
        assert retry(attempt, 2, 0.0, retriable=False, key="k") == "ok"
        assert calls == [1, 2, 3]

    def test_os_error_is_retried_only_when_retriable(self):
        attempt, calls = self._flaky([ConnectionResetError("lost")])
        assert retry(attempt, 1, 0.0, retriable=True, key="k") == "ok"
        assert calls == [1, 2]
        attempt, calls = self._flaky([ConnectionResetError("lost")])
        with pytest.raises(ConnectionResetError):
            retry(attempt, 1, 0.0, retriable=False, key="k")
        assert calls == [1]

    def test_budget_is_bounded_and_last_error_propagates(self):
        attempt, calls = self._flaky([NotSent("a"), NotSent("b")])
        with pytest.raises(NotSent, match="b"):
            retry(attempt, 1, 0.0, retriable=True, key="k")
        assert calls == [1, 2]

    def test_other_errors_are_never_retried(self):
        attempt, calls = self._flaky([ValueError("bug")])
        with pytest.raises(ValueError):
            retry(attempt, 3, 0.0, retriable=True, key="k")
        assert calls == [1]


class TestBreakerUnderContention:
    def test_half_open_admits_one_probe_across_threads(self):
        # More threads than cores and a tiny switch interval: a lost
        # update in allow() would admit a second probe.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(20):
                breaker = CircuitBreaker(failure_threshold=1, seed=str(round_))
                breaker.record_failure(0.0)
                admitted: list[bool] = []
                start = threading.Barrier(8)

                def probe():
                    start.wait(timeout=10)
                    admitted.append(breaker.allow(100.0))

                threads = [threading.Thread(target=probe) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert admitted.count(True) == 1
                assert breaker.state == HALF_OPEN
        finally:
            sys.setswitchinterval(previous)


class TestClientPostRetries:
    """A POST without an Idempotency-Key: resent on a fault that fired
    before the bytes left, never on one that fired after."""

    def _client(self, monkeypatch, firing):
        consulted: list[tuple[str, str]] = []

        def fires(site, key=""):
            consulted.append((site, key))
            return (site, key) in firing

        monkeypatch.setattr(faults, "fires", fires)
        client = ServiceClient(retries=2, backoff=0.0)
        sent: list[str] = []
        monkeypatch.setattr(
            client, "_request_once",
            lambda method, path, body=None, headers=None: (
                sent.append(path) or (200, {}, {"ok": True})
            ),
        )
        return client, consulted, sent

    def test_refused_post_is_retried_within_budget(self, monkeypatch):
        client, consulted, sent = self._client(monkeypatch, {
            ("refused", "POST /v1/leases #1.1"),
            ("refused", "POST /v1/leases #1.2"),
        })
        assert client.request("POST", "/v1/leases", body={})[0] == 200
        assert sent == ["/v1/leases"]
        assert ("refused", "POST /v1/leases #1.3") in consulted
        # The next call draws from its own ordinal.
        client.request("POST", "/v1/leases", body={})
        assert ("refused", "POST /v1/leases #2.1") in consulted

    def test_refused_post_gives_up_after_the_budget(self, monkeypatch):
        client, _consulted, sent = self._client(monkeypatch, {
            ("refused", f"POST /v1/leases #1.{n}") for n in (1, 2, 3)
        })
        with pytest.raises(ConnectionError, match="injected"):
            client.request("POST", "/v1/leases", body={})
        assert sent == []

    def test_reset_post_is_not_retried(self, monkeypatch):
        client, consulted, sent = self._client(monkeypatch, {
            ("reset", "POST /v1/leases #1.1"),
        })
        with pytest.raises(ConnectionResetError):
            client.request("POST", "/v1/leases", body={})
        assert sent == ["/v1/leases"]  # the request did go out, once
        assert not any(key.endswith("#1.2") for _site, key in consulted)

    def test_reset_idempotent_post_is_retried(self, monkeypatch):
        client, _consulted, sent = self._client(monkeypatch, {
            ("reset", "POST /v1/jobs #1.1"),
        })
        status, _headers, _body = client.request(
            "POST", "/v1/jobs", body={}, idempotent=True
        )
        assert status == 200
        assert sent == ["/v1/jobs", "/v1/jobs"]


@contextlib.contextmanager
def _cut_short_server():
    """A loopback server that promises 200 body bytes, sends 15, and
    hangs up — on every connection."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.settimeout(0.1)  # so the loop notices ``stop``
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with conn:
                conn.recv(65536)
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 200\r\n"
                    b"Connection: close\r\n\r\n"
                    b'{"entries": 1, '
                )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        stop.set()
        thread.join(5)
        listener.close()


class TestCutShortResponse:
    def test_client_raises_connection_error(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        with _cut_short_server() as url:
            client = ServiceClient(url, retries=1, backoff=0.0)
            with pytest.raises(ConnectionError):
                client.request("GET", "/healthz")

    def test_store_degrades_instead_of_failing(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        with _cut_short_server() as url:
            backend = HttpStoreBackend(url)
            assert backend.read("a" * 64) is None
            assert backend.degraded is True
            assert backend.count() == 0


def test_engine_import_does_not_load_http_client():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.engine; print('http.client' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
