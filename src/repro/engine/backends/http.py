"""HTTP store backend: a client for the coordinator's store proxy.

Remote runners cannot mount the coordinator's cache directory, so the
cluster coordinator serves its own store over five tiny endpoints
(see :mod:`repro.cluster.coordinator`)::

    GET  /v1/store/<key>             entry blob        200 | 404
    PUT  /v1/store/<key>             persist blob      204 | 412
    POST /v1/store/<key>/quarantine  move entry aside  204
    GET  /v1/store                   stats JSON        200
    POST /v1/store/prune             delete everything 200 (removed stats)

This backend is deliberately *not* built on
:class:`repro.service.client.ServiceClient` — the engine must not
import the service package (the service imports the engine) — but it
shares the client's round trip (:class:`repro.transport.Transport`)
and retry loop (:func:`repro.resilience.retry`).

Failure semantics match the backend contract, with one cluster-grade
refinement: **the proxy degrades, it never fails**.

* Every PUT is *conditional* (``If-None-Match: *``): the blob store is
  content-addressed, so a key that already exists needs no second
  upload.  The coordinator answers ``412 Precondition Failed`` and the
  backend counts it as a successful (skipped) write — which is what
  keeps ``stfm_store_proxy_duplicate_puts_total`` at zero under retry
  storms.
* When the proxy is unreachable — a real connection error, or an
  injected ``refused`` / ``latency`` / ``partition`` fault — the
  backend enters **degraded local-cache-only mode**: reads are served
  from a small in-process cache of entries this backend has already
  seen (anything else is a miss — cold-cache semantics, the runner
  just re-simulates), and writes are buffered.  Degraded mode is a
  :class:`~repro.resilience.CircuitBreaker` that one failure opens:
  after a 0.25 s cooldown one half-open probe request is allowed
  through; on success the buffered writes are flushed (conditionally)
  and normal service resumes.
* An injected ``reset`` fires *after* the request was sent: the
  coordinator processed the PUT but the response is lost.  The retry
  is a conditional PUT, so settling it costs a 412, not a duplicate
  blob.
* An injected ``truncate`` hands the caller a torn GET body; the
  checksum layer above (:class:`repro.engine.store.CacheStore`)
  detects and quarantines it exactly like on-disk corruption.

Fault decisions are consulted *up front* on every read/write with
content-derived keys (``store-read:<key>`` / ``store-write:<key>``),
before any degraded-mode short-circuit — so the set of consulted
decisions is a pure function of which entries the run touched, and a
chaos replay reproduces it exactly regardless of timing.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict

from repro import faults
from repro.engine.backends.base import StoreBackend, StoreStats
from repro.resilience import CLOSED, CircuitBreaker, retry
from repro.transport import Transport

#: Sites consulted per operation, in consult order (order matters only
#: for spool readability; decisions are independent streams).
_READ_SITES = ("refused", "latency", "partition", "truncate")
_WRITE_SITES = ("refused", "latency", "partition", "reset")

#: Sites that make the proxy unreachable for this operation.
_UNREACHABLE = frozenset({"refused", "latency", "partition"})

_TIMEOUT = 30.0  # socket timeout per request, seconds
_RETRIES = 1  # extra attempts for a retriable request
_BACKOFF = 0.1  # base delay before a retry, seconds


class HttpStoreBackend(StoreBackend):
    """Entry blobs proxied to a cluster coordinator over HTTP."""

    scheme = "http"

    #: Entries kept locally for degraded-mode reads.  Small on purpose:
    #: the local cache is a brown-out shim, not a second store tier.
    LOCAL_CACHE_ENTRIES = 128

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url
        self.transport = Transport(base_url, _TIMEOUT)
        # Degraded mode is this breaker away from closed: one failure
        # opens it, and one probe per 0.25 s cooldown checks for healing.
        self.breaker = CircuitBreaker(
            failure_threshold=1, cooldown=0.25, max_cooldown=0.25
        )
        # The runner executes leased jobs on several threads against
        # one shared backend.
        self._lock = threading.Lock()
        self._local: "OrderedDict[str, bytes]" = OrderedDict()
        self._pending: "OrderedDict[str, bytes]" = OrderedDict()
        self.flushed = 0  # buffered writes flushed on recovery
        self.conditional_skips = 0  # 412s observed (blob already there)

    def location(self) -> str:
        return f"http://{self.transport.host}:{self.transport.port}/v1/store"

    # -- wire plumbing -------------------------------------------------------
    def _request(
        self, method: str, path: str, body: "bytes | None" = None,
        retriable: bool = True, headers: "dict[str, str] | None" = None,
    ) -> "tuple[int, bytes]":
        """One request with bounded connection-error retries.

        GETs (and conditional PUTs of content-addressed blobs) are safe
        to retry; the last error propagates as OSError.
        """
        status, _headers, raw = retry(
            lambda _n: self.transport.send(method, path, body, headers),
            _RETRIES, _BACKOFF, retriable, key=f"{method} {path}",
        )
        return status, raw

    # -- fault consultation --------------------------------------------------
    def _injected(self, op: str, key: str) -> "set[str]":
        """Consult every network site for this operation, up front.

        Unconditional on purpose: degraded-mode short-circuits must not
        change *which* decisions get consulted, or a chaos replay's
        fired set would depend on partition-window timing.
        """
        sites = _READ_SITES if op == "read" else _WRITE_SITES
        return {s for s in sites if faults.fires(s, f"store-{op}:{key}")}

    # -- degraded mode -------------------------------------------------------
    def _recovered(self) -> None:
        """A round trip succeeded: close the breaker and flush the
        writes buffered while it was open."""
        self.breaker.record_success()
        with self._lock:
            pending = list(self._pending.items())
            self._pending.clear()
        for key, blob in pending:
            try:
                self._put(key, blob, retriable=False)
            except OSError:
                # Mid-flush relapse: re-buffer what's left and back off.
                with self._lock:
                    self._pending.setdefault(key, blob)
                self.breaker.record_failure(time.monotonic())
            else:
                with self._lock:
                    self.flushed += 1

    def _local_put(self, key: str, blob: bytes) -> None:
        with self._lock:
            self._local[key] = blob
            self._local.move_to_end(key)
            while len(self._local) > self.LOCAL_CACHE_ENTRIES:
                self._local.popitem(last=False)

    def _local_get(self, key: str) -> "bytes | None":
        with self._lock:
            return self._local.get(key)

    @property
    def degraded(self) -> bool:
        return self.breaker.state != CLOSED

    # -- backend contract ----------------------------------------------------
    def read(self, key: str) -> "bytes | None":
        injected = self._injected("read", key)
        if injected & _UNREACHABLE:
            self.breaker.record_failure(time.monotonic())
        elif self.breaker.allow(time.monotonic()):
            try:
                status, body = self._request("GET", f"/v1/store/{key}")
            except OSError:
                self.breaker.record_failure(time.monotonic())
            else:
                self._recovered()
                if status != 200:
                    return None
                self._local_put(key, body)
                if "truncate" in injected:
                    return body[: len(body) // 2]  # torn; checksum layer
                return body
        return self._local_get(key)  # degraded: local-only, else a miss

    def _put(self, key: str, blob: bytes, retriable: bool = True) -> None:
        """One conditional PUT; 412 means the blob is already there."""
        status, body = self._request(
            "PUT", f"/v1/store/{key}", body=blob, retriable=retriable,
            headers={"If-None-Match": "*"},
        )
        if status == 412:
            with self._lock:
                self.conditional_skips += 1
            return
        if status not in (200, 204):
            raise OSError(
                f"store proxy rejected put for {key[:12]}: HTTP {status} "
                f"{body[:120]!r}"
            )

    def write(self, key: str, blob: bytes) -> None:
        injected = self._injected("write", key)
        self._local_put(key, blob)  # degraded reads must see own writes
        if injected & _UNREACHABLE:
            self.breaker.record_failure(time.monotonic())
        elif self.breaker.allow(time.monotonic()):
            if "reset" in injected:
                # The request goes out and the coordinator processes
                # it, but the response is "lost".  The retry below
                # settles it with a conditional PUT → 412, never a
                # duplicate upload.
                try:
                    self._request(
                        "PUT", f"/v1/store/{key}", body=blob,
                        retriable=False, headers={"If-None-Match": "*"},
                    )
                except OSError:
                    pass  # genuinely unreachable; fall through to retry
            try:
                self._put(key, blob)
            except OSError:
                self.breaker.record_failure(time.monotonic())
            else:
                self._recovered()
                return
        with self._lock:
            self._pending[key] = blob  # flushed once the breaker closes

    def quarantine(self, key: str) -> None:
        try:
            self._request("POST", f"/v1/store/{key}/quarantine")
        except OSError:
            pass  # best-effort; the coordinator may be briefly away

    def contains(self, key: str) -> bool:
        return self.read(key) is not None

    def _stats_payload(self, method: str, path: str) -> StoreStats:
        try:
            status, body = self._request(method, path)
            if status != 200:
                return StoreStats(entries=0, total_bytes=0)
            decoded = json.loads(body.decode("utf-8"))
            return StoreStats(
                entries=int(decoded["entries"]),
                total_bytes=int(decoded["total_bytes"]),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return StoreStats(entries=0, total_bytes=0)

    def count(self) -> int:
        return self._stats_payload("GET", "/v1/store").entries

    def stats(self) -> StoreStats:
        return self._stats_payload("GET", "/v1/store")

    def prune(self) -> StoreStats:
        return self._stats_payload("POST", "/v1/store/prune")
