"""The coordinator's durable lease table.

A lease is the unit of work ownership in the cluster: one job granted
to one runner for a bounded time.  Heartbeats extend the deadline;
missing them expires the lease, and the coordinator requeues the job
for another runner (at-least-once delivery).  A completion arriving
after the lease expired is *discarded* — the redelivered attempt is
authoritative — which keeps late duplicates out of the job state.

Leases persist one-file-per-lease under the coordinator state
directory.  A restarted coordinator cannot trust wall-clock deadlines
written by a previous incarnation (deadlines are monotonic-clock
values), so recovery treats every persisted lease as already expired:
the job store independently requeues non-terminal jobs, and the stale
lease files are counted and removed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.cluster.lease_model import LeaseSanitizer, sanitize_enabled
from repro.engine.backends.fs import atomic_write, record_files, remove_temp_files


@dataclass
class Lease:
    """One job granted to one runner until ``deadline`` (monotonic)."""

    id: str
    job_id: str
    digest: str
    runner: str
    deadline: float
    attempt: int

    def to_dict(self) -> dict:
        # The deadline is deliberately absent: monotonic-clock values
        # are meaningless to any other process or incarnation.
        return {
            "id": self.id,
            "job_id": self.job_id,
            "digest": self.digest,
            "runner": self.runner,
            "attempt": self.attempt,
        }


class LeaseTable:
    """Grant / heartbeat / complete / expire bookkeeping, durably.

    Args:
        root: Directory for lease persistence, or None for in-memory
            only (unit tests).
        ttl: Seconds a lease lives without a heartbeat.
        id_prefix: Namespace baked into every lease id (the coordinator
            passes its incarnation, e.g. ``"i3-"``).  A restarted
            coordinator restarts the sequence counter, so without the
            prefix a pre-crash runner's late completion for the *old*
            ``lease-000001`` could settle the *new* ``lease-000001``'s
            job.
    """

    def __init__(
        self, root: "str | Path | None", ttl: float, id_prefix: str = ""
    ) -> None:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.ttl = ttl
        self.id_prefix = id_prefix
        self.root = Path(root).expanduser() if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._leases: dict[str, Lease] = {}
        self._by_job: dict[str, str] = {}
        self._seq = 0
        # Counters surfaced through /metrics.
        self.granted: dict[str, int] = {}  # per runner
        self.completed: dict[str, int] = {}  # per runner
        self.expirations = 0
        self.redeliveries = 0
        self.late_completions = 0
        self._attempts: dict[str, int] = {}  # job_id -> deliveries so far
        # Opt-in shadow checker (STFM_SIM_LEASE_SANITIZE=1): replays
        # every transition against the declarative protocol model and
        # raises on the first illegal one.  Observation-only — results
        # are bit-identical with it on or off.
        self.sanitizer: "LeaseSanitizer | None" = (
            LeaseSanitizer() if sanitize_enabled() else None
        )

    # -- recovery ------------------------------------------------------------
    def recover(self) -> int:
        """Discard leases persisted by a previous incarnation.

        Returns how many stale leases were found; each counts as an
        expiration (the jobs themselves are requeued by the job store's
        own recovery, which re-queues every non-terminal job).
        """
        if self.root is None:
            return 0
        remove_temp_files(self.root)
        stale = 0
        for path in sorted(record_files(self.root)):
            try:
                raw = json.loads(path.read_text())
                self._attempts[raw["job_id"]] = max(
                    self._attempts.get(raw["job_id"], 0), int(raw["attempt"])
                )
                stale += 1
                if self.sanitizer is not None:
                    self.sanitizer.observe_recover(str(raw.get("id", path.stem)))
            except (OSError, ValueError, KeyError, TypeError):
                pass
            try:
                path.unlink()
            except OSError:
                pass
        self.expirations += stale
        return stale

    # -- lifecycle -----------------------------------------------------------
    def grant(self, job_id: str, digest: str, runner: str, now: float) -> Lease:
        """Lease ``job_id`` to ``runner``; the caller has already taken
        the job off the admission queue."""
        if job_id in self._by_job:
            raise ValueError(f"job {job_id!r} is already leased")
        self._seq += 1
        attempt = self._attempts.get(job_id, 0) + 1
        self._attempts[job_id] = attempt
        lease = Lease(
            id=f"lease-{self.id_prefix}{self._seq:06d}",
            job_id=job_id,
            digest=digest,
            runner=runner,
            deadline=now + self.ttl,
            attempt=attempt,
        )
        self._leases[lease.id] = lease
        self._by_job[job_id] = lease.id
        self.granted[runner] = self.granted.get(runner, 0) + 1
        self._persist(lease)
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
        self._attempts.pop(lease.job_id, None)
        self.completed[lease.runner] = self.completed.get(lease.runner, 0) + 1
        self._unpersist(lease)
        return lease

    def expire_due(self, now: float) -> list[Lease]:
        """Remove and return every lease past its deadline."""
        due = [l for l in self._leases.values() if l.deadline <= now]
        for lease in due:
            del self._leases[lease.id]
            del self._by_job[lease.job_id]
            self.expirations += 1
            self.redeliveries += 1
            self._unpersist(lease)
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

    # -- persistence ---------------------------------------------------------
    def _persist(self, lease: Lease) -> None:
        if self.root is None:
            return
        atomic_write(
            self.root / f"{lease.id}.json",
            json.dumps(lease.to_dict()).encode(),
        )

    def _unpersist(self, lease: Lease) -> None:
        if self.root is None:
            return
        try:
            (self.root / f"{lease.id}.json").unlink()
        except OSError:
            pass
