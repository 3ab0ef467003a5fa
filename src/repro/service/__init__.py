"""repro.service — the parts of the simulation service over the engine.

A stdlib-only (asyncio streams) HTTP JSON API that lets many clients
submit experiment and workload specs to one shared engine.  The server
itself is :class:`~repro.cluster.coordinator.ClusterCoordinator`; this
package holds its spec validation, admission queue, job state, metrics,
HTTP wire layer, client, and :func:`~repro.service.workers.execute_spec`:

* ``POST /v1/jobs`` admits a spec into a bounded queue (HTTP 429 plus
  ``Retry-After`` when full — backpressure, not unbounded buffering);
* runners execute jobs through :mod:`repro.engine`, so identical
  run-alone / run-shared sub-jobs are deduplicated across submitters by
  the content-addressed :class:`~repro.engine.ResultStore`;
* ``GET /v1/jobs/<id>`` and ``GET /v1/results/<id>`` report state and
  results, ``/healthz`` and a Prometheus-text ``/metrics`` endpoint
  expose queue depth, in-flight jobs, cache hit/miss counters and
  per-job wall time;
* SIGTERM drains gracefully, and job state is persisted crash-safely so
  a restarted server resumes queued/running work and re-reports
  completed work.

Run it as ``stfm-sim serve`` (in-process runners) or ``stfm-sim
coordinator`` (runner processes lease jobs over HTTP, see
:mod:`repro.cluster`); talk to it with
:class:`~repro.service.client.ServiceClient` or the ``stfm-sim submit``
and ``stfm-sim status`` CLI verbs.
"""

from repro.service.api import JobSpec, SpecError, parse_spec, spec_digest
from repro.service.client import (
    BackpressureError,
    ServiceClient,
    ServiceError,
    parse_metrics,
)
from repro.service.queue import AdmissionQueue
from repro.service.state import Job, JobStore

__all__ = [
    "AdmissionQueue",
    "BackpressureError",
    "Job",
    "JobSpec",
    "JobStore",
    "ServiceClient",
    "ServiceError",
    "SpecError",
    "parse_metrics",
    "parse_spec",
    "spec_digest",
]
