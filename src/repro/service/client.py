"""Thin blocking client for the simulation service.

A JSON codec over :class:`repro.transport.Transport`.  Used by the
``stfm-sim submit`` / ``status`` CLI verbs, the examples, and the test
suite::

    client = ServiceClient("http://127.0.0.1:8765")
    job = client.submit({"kind": "experiment", "experiment": "fig3",
                         "scale": "tiny"})
    done = client.wait(job["id"])
    print(done["result"]["rows"])

The client is hardened for flaky transport: idempotent GETs are retried
on connection errors through :func:`repro.resilience.retry`, and 429
responses are retried honoring the server's ``Retry-After`` — both
bounded by the ``retries`` budget, after which the original error
propagates.

``POST /v1/jobs`` is retried too: :meth:`ServiceClient.submit` stamps
every submission with an ``Idempotency-Key`` header — the spec digest
plus a per-call nonce — that the server dedups on, so a POST whose
response was lost can be resent without creating a duplicate job.  The
nonce makes the key identify the *submission attempt*: retries of one
``submit()`` call land on one job, while a deliberate resubmission of
the same spec later is a fresh attempt and may create a fresh job.
"""

from __future__ import annotations

import json
import time
import uuid

from repro import faults
from repro.resilience import NotSent, retry
from repro.transport import Transport


class ServiceError(RuntimeError):
    """Any non-success HTTP response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class BackpressureError(ServiceError):
    """429: the admission queue is full; retry after ``retry_after``s."""

    def __init__(self, retry_after: int, message: str) -> None:
        super().__init__(429, message)
        self.retry_after = retry_after


class ServiceClient:
    """Talks to one service instance at ``base_url``.

    Args:
        base_url: ``http://host:port`` of the service.
        timeout: Socket timeout per request, seconds.
        retries: Extra attempts for retriable failures — connection
            errors on idempotent requests, and 429 backpressure
            responses.
        backoff: Base delay between connection-error retries, paced by
            :func:`repro.resilience.backoff`.
    """

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8765",
        timeout: float = 60.0,
        retries: int = 2,
        backoff: float = 0.2,
    ) -> None:
        if retries < 0:
            raise ValueError("retries cannot be negative")
        self.transport = Transport(base_url, timeout)
        self.retries = retries
        self.backoff = backoff
        self._calls = 0  # request() ordinal; scopes transport-fault keys

    # -- low-level ----------------------------------------------------------
    def _request_once(
        self, method: str, path: str, body: "dict | None" = None,
        headers: "dict | None" = None,
    ) -> tuple[int, dict, "dict | str"]:
        payload = None
        headers = dict(headers or {})
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        status, response_headers, raw = self.transport.send(
            method, path, payload, headers
        )
        if response_headers.get("content-type", "").startswith(
            "application/json"
        ):
            return status, response_headers, json.loads(raw.decode())
        return status, response_headers, raw.decode()

    def request(
        self, method: str, path: str, body: "dict | None" = None,
        headers: "dict | None" = None, idempotent: bool = False,
    ) -> tuple[int, dict, "dict | str"]:
        """One logical round trip → (status, headers, decoded body).

        JSON bodies decode to dicts; anything else (``/metrics``) comes
        back as text.  No status is raised here — the typed helpers
        below do that.  Connection errors are retried for GETs and for
        requests marked ``idempotent`` — a POST carrying an
        ``Idempotency-Key`` the server dedups on is safe to resend even
        when the first attempt may have been admitted.  A dropped POST
        *without* such a key propagates immediately.

        Injected transport faults (keyed per request attempt):

        * ``drop`` / ``refused`` / ``latency`` fire *before* the bytes
          leave (:class:`~repro.resilience.NotSent`), so they are
          safely retriable for any method.
        * ``reset`` fires *after* the request was sent — the server may
          have processed it; the response is lost.  It follows the real
          ``OSError`` rules: retried only for GETs and requests marked
          ``idempotent``.

        ``drop`` keys by ``"METHOD /path #attempt"`` (a fixed stream per
        path, exercised by the bounded-retry tests); the network sites
        additionally scope their keys by this client's call ordinal
        (``"METHOD /path #call.attempt"``), so one unlucky draw can
        degrade a call but never permanently black-hole a hot path like
        the runners' lease poll.  Both forms contain ``#`` and are
        therefore excluded from the replay-stable decision set (see
        :data:`repro.faults.REPLAY_STABLE_SITES`).
        """
        self._calls += 1
        call = f"{method} {path} #{self._calls}"

        def attempt(n: int) -> tuple[int, dict, "dict | str"]:
            if faults.fires("drop", f"{method} {path} #{n}"):
                raise NotSent("injected connection drop")
            if faults.fires("refused", f"{call}.{n}"):
                raise NotSent("injected connection refused")
            if faults.fires("latency", f"{call}.{n}"):
                raise NotSent("injected latency past timeout")
            if faults.fires("reset", f"{call}.{n}"):
                # The request really goes out (the server processes
                # it); only the response is lost.
                self._request_once(method, path, body, headers)
                raise ConnectionResetError("injected connection reset")
            return self._request_once(method, path, body, headers)

        return retry(
            attempt, self.retries, self.backoff,
            retriable=method == "GET" or idempotent, key=call,
        )

    def _checked(self, method: str, path: str, body=None, ok=(200, 202),
                 headers=None, idempotent=False):
        for attempt in range(1, self.retries + 2):
            status, headers_out, decoded = self.request(
                method, path, body, headers=headers, idempotent=idempotent
            )
            try:
                retry_after = int(headers_out.get("retry-after", "1"))
            except ValueError:  # an HTTP-date (RFC 9110): wait 1 s
                retry_after = 1
            if status != 429 or attempt > self.retries:
                break
            time.sleep(min(max(retry_after, 0), 5.0))
        if status in ok:
            return status, headers_out, decoded
        message = (
            decoded.get("error", str(decoded))
            if isinstance(decoded, dict)
            else str(decoded)
        )
        if status == 429:
            raise BackpressureError(retry_after, message)
        raise ServiceError(status, message)

    # -- API ----------------------------------------------------------------
    def idempotency_key(self, spec: dict) -> "str | None":
        """The ``Idempotency-Key`` for one submission attempt of ``spec``:
        the spec digest plus a fresh nonce.  None when the spec does not
        validate locally — the server then rejects it with 400 as before.
        """
        from repro.service.api import SpecError, parse_spec, spec_digest

        try:
            digest = spec_digest(parse_spec(spec))
        except SpecError:
            return None
        return f"{digest}-{uuid.uuid4().hex[:12]}"

    def submit(self, spec: dict, idempotency_key: "str | None" = None) -> dict:
        """POST a job spec; returns the admission view (``id``,
        ``status``, ``deduplicated``).  Raises :class:`BackpressureError`
        on 429 and :class:`ServiceError` on 400/503.

        Every call stamps an ``Idempotency-Key`` (spec digest + nonce)
        so connection-error retries — including a POST whose response
        was lost after the server admitted the job — resolve to the
        *same* job instead of submitting a duplicate.  Pass
        ``idempotency_key`` explicitly to resume a specific prior
        attempt.
        """
        key = idempotency_key or self.idempotency_key(spec)
        headers = {"Idempotency-Key": key} if key else None
        _status, _headers, decoded = self._checked(
            "POST", "/v1/jobs", body=spec, headers=headers,
            idempotent=key is not None,
        )
        return decoded

    def job(self, job_id: str) -> dict:
        _status, _headers, decoded = self._checked("GET", f"/v1/jobs/{job_id}")
        return decoded

    def result(self, job_id: str) -> dict:
        """The job view including its result once terminal; a still
        queued/running job returns its 202 view (no ``result`` key)."""
        _status, _headers, decoded = self._checked(
            "GET", f"/v1/results/{job_id}"
        )
        return decoded

    def results(self) -> list[dict]:
        """``GET /v1/results``: every known job as ``{id, spec_digest,
        status}``, in submission order (no result payloads)."""
        _status, _headers, decoded = self._checked("GET", "/v1/results")
        return decoded["results"]

    def wait(self, job_id: str, timeout: float = 300.0) -> dict:
        """Block until the job is terminal; returns its result view.

        Each ``GET /v1/results/<id>`` carries ``Prefer: wait=N``
        (RFC 7240): the server holds it until the job settles, so the
        result is seen as soon as it exists.  ``N`` is what is left of
        ``timeout``, at most half the socket timeout (the server caps
        it too); raises :class:`TimeoutError` at the deadline.
        """
        deadline = time.monotonic() + timeout
        view = self._held_result(job_id, deadline)
        while view["status"] not in ("done", "failed"):
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {view['status']} after {timeout}s"
                )
            view = self._held_result(job_id, deadline)
        return view

    def _held_result(self, job_id: str, deadline: float) -> dict:
        hold = min(deadline - time.monotonic(), self.transport.timeout / 2)
        _status, _headers, decoded = self._checked(
            "GET", f"/v1/results/{job_id}",
            headers={"Prefer": f"wait={max(0.0, hold):.3f}"},
        )
        return decoded

    def health(self) -> dict:
        _status, _headers, decoded = self._checked("GET", "/healthz")
        return decoded

    def metrics(self) -> str:
        _status, _headers, decoded = self._checked("GET", "/metrics")
        return decoded


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus exposition text → ``{'name{labels}': value}``.

    Series keep their label block verbatim
    (``stfm_service_jobs_total{event="done"}``); unlabelled samples key
    by bare name.  Convenient for tests and ``stfm-sim status``.
    """
    values: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values
