"""Durable coordinator checkpoint: survive ``kill -9`` mid-sweep.

The coordinator's hard state is already durable: the job store
persists every job atomically, and a job record carries its lease state
(RUNNING while leased, ``attempts`` saved with every grant).  What job
records *cannot* carry across a crash is incarnation-scoped
bookkeeping:

* **incarnation** — how many times this state directory has been
  started.  Lease ids embed it (``lease-i3-000001``), so a lease
  granted by a restarted coordinator can never collide with one a
  pre-crash runner still holds.  Without this, a late completion for
  the *old* ``lease-000001`` could settle the *new* ``lease-000001``'s
  job — an exactly-once violation.
* **resume_recoveries** — cumulative count of jobs re-queued by
  startup recovery across all incarnations (the
  ``stfm_cluster_resume_recoveries_total`` metric; the chaos soak
  asserts it went up after the mid-sweep ``kill -9``).
* **lease counter bases** — expirations / redeliveries / late
  completions, so the fairness of ``/metrics`` time series survives a
  restart instead of resetting to zero.

The checkpoint is one JSON file written atomically (tmp + rename) —
torn writes leave the previous complete checkpoint in place, and a
missing or corrupt file degrades to incarnation 0 with zeroed bases,
which is exactly the fresh-directory behavior.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.engine.backends.fs import atomic_write


@dataclass
class CheckpointState:
    """The durable counters (see module docstring)."""

    incarnation: int = 0
    resume_recoveries: int = 0
    expirations: int = 0
    redeliveries: int = 0
    late_completions: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "CheckpointState":
        state = cls()
        for field in asdict(state):
            try:
                setattr(state, field, max(0, int(raw.get(field, 0))))
            except (TypeError, ValueError):
                pass
        return state


class CoordinatorCheckpoint:
    """``checkpoint.json`` under the coordinator state directory."""

    FILENAME = "checkpoint.json"

    def __init__(self, state_dir: "str | Path") -> None:
        self.root = Path(state_dir).expanduser()
        self.path = self.root / self.FILENAME

    def load(self) -> CheckpointState:
        """The last persisted state; a fresh default when the file is
        missing or unreadable (never raises)."""
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return CheckpointState()
        if not isinstance(raw, dict):
            return CheckpointState()
        return CheckpointState.from_dict(raw)

    def save(self, state: CheckpointState) -> None:
        """Persist atomically; best-effort (a full disk must not take
        the coordinator down — the checkpoint only degrades metrics
        continuity, never correctness of job settlement)."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write(self.path, json.dumps(asdict(state)).encode())
        except OSError:
            pass
