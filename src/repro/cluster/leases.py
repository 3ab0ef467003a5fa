"""The coordinator's lease table.

A lease is the unit of work ownership in the cluster: one job granted
to one runner for a bounded time.  Heartbeats extend the deadline;
missing them expires the lease, and the coordinator requeues the job
for another runner (at-least-once delivery).  A completion arriving
after the lease expired is *discarded* — the redelivered attempt is
authoritative — which keeps late duplicates out of the job state.

The table is in-memory bookkeeping only.  The job record is the one
durable copy of lease state: a job is RUNNING exactly while it holds a
lease, and its ``attempts`` is saved with every grant.  Deadlines are
monotonic-clock values no other process could use, so a restarted
coordinator starts from an empty table: the job store's recovery
requeues every job that was RUNNING, and the coordinator counts each
as an expired lease.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.lease_model import LeaseSanitizer, sanitize_enabled


@dataclass
class Lease:
    """One job granted to one runner until ``deadline`` (monotonic)."""

    id: str
    job_id: str
    runner: str
    deadline: float
    attempt: int


class LeaseTable:
    """Grant / heartbeat / complete / expire bookkeeping.

    Args:
        ttl: Seconds a lease lives without a heartbeat.
        id_prefix: Namespace baked into every lease id (the coordinator
            passes its incarnation, e.g. ``"i3-"``).  A restarted
            coordinator restarts the sequence counter, so without the
            prefix a pre-crash runner's late completion for the *old*
            ``lease-000001`` could settle the *new* ``lease-000001``'s
            job.
    """

    def __init__(self, ttl: float, id_prefix: str = "") -> None:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.ttl = ttl
        self.id_prefix = id_prefix
        self._leases: dict[str, Lease] = {}
        self._by_job: dict[str, str] = {}
        self._seq = 0
        # Counters surfaced through /metrics.
        self.granted: dict[str, int] = {}  # per runner
        self.completed: dict[str, int] = {}  # per runner
        self.expirations = 0
        self.redeliveries = 0
        self.late_completions = 0
        # Opt-in shadow checker (STFM_SIM_LEASE_SANITIZE=1): replays
        # every transition against the declarative protocol model and
        # raises on the first illegal one.  Observation-only — results
        # are bit-identical with it on or off.
        self.sanitizer: "LeaseSanitizer | None" = (
            LeaseSanitizer() if sanitize_enabled() else None
        )

    # -- lifecycle -----------------------------------------------------------
    def grant(
        self, job_id: str, runner: str, now: float, attempt: int
    ) -> Lease:
        """Lease ``job_id`` to ``runner`` as delivery ``attempt``; the
        caller has already taken the job off the admission queue and
        numbers the attempt from the job record."""
        if job_id in self._by_job:
            raise ValueError(f"job {job_id!r} is already leased")
        self._seq += 1
        lease = Lease(
            id=f"lease-{self.id_prefix}{self._seq:06d}",
            job_id=job_id,
            runner=runner,
            deadline=now + self.ttl,
            attempt=attempt,
        )
        self._leases[lease.id] = lease
        self._by_job[job_id] = lease.id
        self.granted[runner] = self.granted.get(runner, 0) + 1
        if self.sanitizer is not None:
            self.sanitizer.observe_grant(lease.id, job_id, runner, attempt)
        return lease

    def heartbeat(self, lease_id: str, now: float) -> "Lease | None":
        """Extend the lease's deadline; None when the lease is gone
        (expired or completed) — the runner should abandon the job."""
        lease = self._leases.get(lease_id)
        if self.sanitizer is not None:
            self.sanitizer.observe_heartbeat(lease_id, hit=lease is not None)
        if lease is None:
            return None
        lease.deadline = now + self.ttl
        return lease

    def complete(self, lease_id: str) -> "Lease | None":
        """Settle a lease on completion; None when it already expired
        (the result is a late duplicate and must be discarded)."""
        lease = self._leases.pop(lease_id, None)
        if self.sanitizer is not None:
            self.sanitizer.observe_complete(lease_id, hit=lease is not None)
        if lease is None:
            self.late_completions += 1
            return None
        del self._by_job[lease.job_id]
        self.completed[lease.runner] = self.completed.get(lease.runner, 0) + 1
        return lease

    def expire_due(self, now: float) -> list[Lease]:
        """Remove and return every lease past its deadline."""
        due = [l for l in self._leases.values() if l.deadline <= now]
        for lease in due:
            del self._leases[lease.id]
            del self._by_job[lease.job_id]
            self.expirations += 1
            self.redeliveries += 1
            if self.sanitizer is not None:
                self.sanitizer.observe_expire(lease.id)
        return due

    # -- views ---------------------------------------------------------------
    def active(self) -> list[Lease]:
        return list(self._leases.values())

    def active_by_runner(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for lease in self._leases.values():
            counts[lease.runner] = counts.get(lease.runner, 0) + 1
        return counts

    def for_job(self, job_id: str) -> "Lease | None":
        lease_id = self._by_job.get(job_id)
        return self._leases.get(lease_id) if lease_id else None

    def __len__(self) -> int:
        return len(self._leases)
