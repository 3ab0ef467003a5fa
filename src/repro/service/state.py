"""Crash-safe job-state persistence.

Every job transition (queued → running → done/failed) is written
atomically to ``<state_dir>/<job id>.json`` before it is reported to
clients, so a server that crashes or is restarted can reconstruct its
world from the directory alone: terminal jobs are re-reported as-is,
and jobs that were queued — or *running* when the process died — are
re-queued.  Re-running is safe because execution is deterministic and
goes through the content-addressed result store: a job that had already
finished its sub-simulations resumes from cache hits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.engine.backends.fs import atomic_write, record_files, remove_temp_files

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: States a job can rest in; RUNNING recovers to QUEUED on restart.
TERMINAL = (DONE, FAILED)


@dataclass
class Job:
    """One submitted job and everything the service knows about it."""

    id: str
    spec: dict  # the normalized spec (api.JobSpec.normalized())
    digest: str
    status: str = QUEUED
    seq: int = 0
    error: "str | None" = None
    result: "dict | None" = None
    wall_time: "float | None" = None
    resumed: bool = False
    #: Client-supplied Idempotency-Key; retried POSTs with the same key
    #: land on this job instead of creating a duplicate.
    idempotency_key: "str | None" = None
    #: Cluster bookkeeping: delivery attempts (1 = first lease) and the
    #: runner that produced the terminal state.
    attempts: int = 0
    runner: "str | None" = None

    def view(self, include_result: bool = False) -> dict:
        """The JSON shape the HTTP endpoints return."""
        view = {
            "id": self.id,
            "status": self.status,
            "spec": self.spec,
            "spec_digest": self.digest,
            "resumed": self.resumed,
        }
        if self.error is not None:
            view["error"] = self.error
        if self.wall_time is not None:
            view["wall_seconds"] = self.wall_time
        if self.attempts:
            view["attempts"] = self.attempts
        if self.runner is not None:
            view["runner"] = self.runner
        if include_result and self.result is not None:
            view["result"] = self.result
        return view

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "spec": self.spec,
            "digest": self.digest,
            "status": self.status,
            "seq": self.seq,
            "error": self.error,
            "result": self.result,
            "wall_time": self.wall_time,
            "idempotency_key": self.idempotency_key,
            "attempts": self.attempts,
            "runner": self.runner,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Job":
        return cls(
            id=raw["id"],
            spec=raw["spec"],
            digest=raw["digest"],
            status=raw["status"],
            seq=raw.get("seq", 0),
            error=raw.get("error"),
            result=raw.get("result"),
            wall_time=raw.get("wall_time"),
            idempotency_key=raw.get("idempotency_key"),
            attempts=raw.get("attempts", 0),
            runner=raw.get("runner"),
        )


class JobStore:
    """Atomic one-file-per-job persistence under one directory."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    def save(self, job: Job) -> None:
        """Persist one job atomically (tmp + rename)."""
        atomic_write(
            self.root / f"{job.id}.json", json.dumps(job.to_dict()).encode()
        )

    def load_all(self) -> list[Job]:
        """Read every job file; corrupt entries are skipped."""
        jobs = []
        for path in sorted(record_files(self.root)):
            try:
                jobs.append(Job.from_dict(json.loads(path.read_text())))
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return jobs

    def recover(self) -> tuple[list[Job], list[Job], int]:
        """Load persisted jobs, re-queueing interrupted ones.

        Returns ``(all jobs, jobs to re-enqueue, how many were
        RUNNING)``; non-terminal jobs (queued, or running when the
        previous process died) come back as QUEUED with
        ``resumed=True`` and are persisted in that state.  Each RUNNING
        job held a lease that died with the process.  The requeue list
        is ordered by admission sequence, not file name, so a restarted
        sweep re-dispatches in submission order.  Temporary files of
        writes a crash interrupted are deleted.
        """
        remove_temp_files(self.root)
        jobs = self.load_all()
        requeue = []
        running = 0
        for job in jobs:
            if job.status not in TERMINAL:
                running += job.status == RUNNING
                job.status = QUEUED
                job.resumed = True
                self.save(job)
                requeue.append(job)
        requeue.sort(key=lambda job: job.seq)
        return jobs, requeue, running
