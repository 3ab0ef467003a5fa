"""Declarative model of the lease protocol, checked twice.

The cluster's correctness argument (DESIGN §3.15) hinges on the lease
lifecycle: a job is *leased* to exactly one runner at a time, kept
alive by heartbeats, and *settled* exactly once — a completion that
arrives after expiry is a late duplicate and must be refused with
410.  This module states that protocol as data:

    granted ──heartbeat*──▶ granted ──complete──▶ settled
       │                                             ▲
       └──────ttl elapses──▶ expired ──regrant──────┘ (new attempt)

and the tables below are consumed by two independent checkers:

* statically — ``simlint`` rules SIM107/SIM108 verify that the
  coordinator's handlers only perform the :data:`HANDLER_OPS` they
  declare and only emit status codes listed in :data:`API_CONTRACT`
  (and that the runner only branches on declared codes);
* dynamically — :class:`LeaseSanitizer` (opt-in via
  ``STFM_SIM_LEASE_SANITIZE=1``, observation-only like the DRAM
  sanitizer in :mod:`repro.analysis.protocol`) shadows every
  :class:`~repro.cluster.leases.LeaseTable` transition during cluster
  and ``serve`` tests and raises :class:`LeaseProtocolViolation` on the first
  illegal one, with a window of recent events for diagnosis.

Results with the sanitizer enabled are bit-identical to a run without
it: it observes, it never steers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.faults import env_flag

#: Lease-table operations that are protocol *transitions* (read-only
#: accessors like ``active_by_runner`` are not).
TRANSITION_OPS = frozenset({"grant", "heartbeat", "complete", "expire_due"})

#: Shadow state machine: (state, op) -> next state.  ``idle`` means no
#: live lease for the job (including after expiry — the next grant
#: opens a new attempt).
LEASE_TRANSITIONS = {
    ("idle", "grant"): "granted",
    ("granted", "heartbeat"): "granted",
    ("granted", "complete"): "settled",
    ("granted", "expire_due"): "idle",
}

#: Which LeaseTable transitions each coordinator entry point may
#: perform.  SIM107 flags any transition call outside this table.
#: Every job, whether an HTTP runner or an in-process runner executes
#: it, starts in ``_start_lease`` and settles in ``_settle_lease``; the
#: lease-request and completion routes reach the table only through
#: them.
HANDLER_OPS = {
    "ClusterCoordinator._start_lease": frozenset({"grant"}),
    "ClusterCoordinator._settle_lease": frozenset({"complete"}),
    "ClusterCoordinator._route_lease_request": frozenset(),
    "ClusterCoordinator._route_heartbeat": frozenset({"heartbeat"}),
    "ClusterCoordinator._route_complete": frozenset(),
    "ClusterCoordinator._local_runner": frozenset({"heartbeat"}),
    "ClusterCoordinator._expire_due": frozenset({"expire_due"}),
}

#: Route handled by each HTTP-facing handler (SIM108 joins this with
#: :data:`API_CONTRACT`; ``*`` is a path parameter).
HANDLER_ROUTES = {
    "ClusterCoordinator._route_lease_request": ("POST", "/v1/leases"),
    "ClusterCoordinator._route_heartbeat": (
        "POST", "/v1/leases/*/heartbeat"
    ),
    "ClusterCoordinator._route_complete": (
        "POST", "/v1/leases/*/complete"
    ),
}

#: Status codes each lease route may produce.  400s come from
#: malformed bodies (``_parse_json``/missing runner id), 503 from a
#: draining coordinator, 204 from an empty queue, 410 from expired or
#: already-settled leases.
API_CONTRACT = {
    ("POST", "/v1/leases"): frozenset({200, 204, 400, 503}),
    ("POST", "/v1/leases/*/heartbeat"): frozenset({200, 410}),
    ("POST", "/v1/leases/*/complete"): frozenset({200, 400, 410}),
}

LEASE_SANITIZE_ENV = "STFM_SIM_LEASE_SANITIZE"


def sanitize_enabled() -> bool:
    """True when ``STFM_SIM_LEASE_SANITIZE`` asks for shadow checking."""
    return env_flag(LEASE_SANITIZE_ENV)


@dataclass(frozen=True)
class LeaseEvent:
    """One observed lease-table transition."""

    op: str
    lease_id: str
    job_id: str
    runner: str
    attempt: int
    detail: str = ""

    def format(self) -> str:
        return (
            f"{self.op:<10} lease={self.lease_id} job={self.job_id} "
            f"runner={self.runner} attempt={self.attempt}"
            + (f"  ({self.detail})" if self.detail else "")
        )


class LeaseProtocolViolation(AssertionError):
    """An observed transition the lease state machine does not allow."""

    def __init__(
        self,
        rule: str,
        event: LeaseEvent,
        window: "list[LeaseEvent]",
    ) -> None:
        self.rule = rule
        self.event = event
        self.window = list(window)
        lines = [f"lease protocol violation: {rule}", f"  at: {event.format()}"]
        if self.window:
            lines.append("  recent transitions:")
            lines.extend(f"    {item.format()}" for item in self.window)
        super().__init__("\n".join(lines))


@dataclass
class LeaseSanitizer:
    """Shadow copy of the lease lifecycle, one state per job.

    The :class:`~repro.cluster.leases.LeaseTable` calls ``observe_*``
    *after* each transition (and for misses, after each refused one);
    the sanitizer replays it against :data:`LEASE_TRANSITIONS` and
    raises on the first divergence.  It holds no references into the
    table and never mutates anything — disabling it cannot change a
    run's results.
    """

    history_limit: int = 64
    #: lease_id -> (job_id, runner, attempt) for shadow-active leases.
    active: "dict[str, tuple[str, str, int]]" = field(default_factory=dict)
    job_lease: "dict[str, str]" = field(default_factory=dict)
    settled: "set[str]" = field(default_factory=set)
    last_attempt: "dict[str, int]" = field(default_factory=dict)
    transitions_checked: int = 0
    history: "deque[LeaseEvent]" = field(default_factory=lambda: deque())

    def _record(self, event: LeaseEvent) -> None:
        self.transitions_checked += 1
        self.history.append(event)
        while len(self.history) > self.history_limit:
            self.history.popleft()

    def _fail(self, rule: str, event: LeaseEvent) -> None:
        raise LeaseProtocolViolation(rule, event, list(self.history))

    # -- observation hooks ---------------------------------------------------

    def observe_grant(
        self, lease_id: str, job_id: str, runner: str, attempt: int
    ) -> None:
        event = LeaseEvent("grant", lease_id, job_id, runner, attempt)
        self._record(event)
        if job_id in self.job_lease:
            self._fail(
                "a job may hold at most one live lease "
                f"(job {job_id} already leased as {self.job_lease[job_id]})",
                event,
            )
        if job_id in self.settled:
            self._fail("a settled job must never be re-granted", event)
        if attempt <= self.last_attempt.get(job_id, 0):
            self._fail(
                "attempt numbers must increase monotonically "
                f"(last was {self.last_attempt.get(job_id, 0)})",
                event,
            )
        self.active[lease_id] = (job_id, runner, attempt)
        self.job_lease[job_id] = lease_id
        self.last_attempt[job_id] = attempt

    def _drop(self, lease_id: str) -> None:
        job_id, _, _ = self.active.pop(lease_id)
        self.job_lease.pop(job_id, None)

    def observe_heartbeat(self, lease_id: str, hit: bool) -> None:
        known = self.active.get(lease_id)
        event = LeaseEvent(
            "heartbeat", lease_id, known[0] if known else "?",
            known[1] if known else "?", known[2] if known else 0,
            detail="accepted" if hit else "refused (410)",
        )
        self._record(event)
        if hit and known is None:
            self._fail(
                "heartbeat accepted for a lease that is not active "
                "(the table resurrected an expired/settled lease)",
                event,
            )
        if not hit and known is not None:
            self._fail(
                "heartbeat refused while the lease is still active "
                "(the table lost a live lease)",
                event,
            )

    def observe_complete(self, lease_id: str, hit: bool) -> None:
        known = self.active.get(lease_id)
        event = LeaseEvent(
            "complete", lease_id, known[0] if known else "?",
            known[1] if known else "?", known[2] if known else 0,
            detail="settled" if hit else "late (410)",
        )
        self._record(event)
        if hit:
            if known is None:
                self._fail(
                    "completion accepted for a lease that is not active",
                    event,
                )
            job_id = known[0]
            if job_id in self.settled:
                self._fail(
                    "a job must settle exactly once "
                    f"(job {job_id} settled twice)",
                    event,
                )
            self._drop(lease_id)
            self.settled.add(job_id)
        elif known is not None:
            self._fail(
                "completion refused while the lease is still active",
                event,
            )

    def observe_expire(self, lease_id: str) -> None:
        known = self.active.get(lease_id)
        event = LeaseEvent(
            "expire_due", lease_id, known[0] if known else "?",
            known[1] if known else "?", known[2] if known else 0,
        )
        self._record(event)
        if known is None:
            self._fail(
                "expiry reported for a lease that is not active", event
            )
        self._drop(lease_id)
