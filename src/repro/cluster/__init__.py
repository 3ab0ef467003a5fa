"""Distributed sweep cluster: coordinator/runner topology.

Two roles:

* a **coordinator** (:class:`~repro.cluster.coordinator.ClusterCoordinator`)
  that owns admission, job state, the lease table, and —
  optionally — the shared result store, served over HTTP.  With
  ``workers > 0`` it is single-process ``stfm-sim serve``: in-process
  runners lease its jobs by direct call; and
* N **runner** processes (:class:`~repro.cluster.runner.ClusterRunner`)
  that lease jobs from the coordinator, execute them through the same
  engine as the in-process runners, heartbeat while working, and post
  results back.

Delivery is *at-least-once*: a lease that misses its heartbeats expires
and the job is redelivered to another runner.  Determinism plus the
content-addressed result store make redelivery safe — a re-executed
job resolves from cache (or recomputes the identical payload), so
clients never observe duplicate or divergent results.
"""

from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.cluster.leases import Lease, LeaseTable
from repro.cluster.runner import ClusterRunner, RunnerConfig
from repro.cluster.supervisor import LocalCluster

__all__ = [
    "ClusterCoordinator",
    "CoordinatorConfig",
    "ClusterRunner",
    "RunnerConfig",
    "Lease",
    "LeaseTable",
    "LocalCluster",
]
