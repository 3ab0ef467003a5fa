"""Tests for the simulation service (repro.service).

Unit layers (spec validation, digests, metrics rendering, job-state
persistence/recovery, the admission queue) are tested directly; the
HTTP layers run against a real server on a loopback socket, driven by
the blocking :class:`ServiceClient` from the test thread while the
asyncio loop runs in a background thread.

The service is the coordinator with in-process runners
(``workers > 0``), so every job here runs under a lease.

The acceptance criteria live here too: submitting ``fig3`` through the
HTTP API is bit-identical to a direct engine run, and resubmitting the
same spec performs zero new simulations (visible in ``/metrics``).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time

import pytest

from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.experiments import run_experiment
from repro.experiments.io import result_to_dict
from repro.service.api import SpecError, parse_spec, spec_digest
from repro.service.client import (
    BackpressureError,
    ServiceClient,
    ServiceError,
    parse_metrics,
)
from repro.service.metrics import MetricsRegistry
from repro.service.queue import AdmissionQueue, QueueFullError
from repro.service.state import DONE, QUEUED, RUNNING, Job, JobStore


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep direct engine runs from touching the user's real store."""
    monkeypatch.setenv("STFM_SIM_CACHE_DIR", str(tmp_path / "default-store"))


FAST_WORKLOAD = {
    "kind": "workload",
    "benchmarks": ["mcf", "hmmer"],
    "policy": "fr-fcfs",
    "budget": 1_500,
}


# -- spec validation ---------------------------------------------------------


class TestSpecValidation:
    def test_experiment_spec_roundtrip(self):
        spec = parse_spec({"kind": "experiment", "experiment": "FIG3",
                           "scale": "tiny"})
        assert spec.experiment == "fig3"
        assert spec.normalized()["scale"] == "tiny"

    def test_workload_defaults(self):
        spec = parse_spec({"kind": "workload", "benchmarks": ["mcf", "hmmer"]})
        normalized = spec.normalized()
        assert normalized["policy"] == "fr-fcfs"
        assert normalized["num_cores"] == 2
        assert normalized["seed"] == 0

    @pytest.mark.parametrize(
        "raw, match",
        [
            ("not a dict", "JSON object"),
            ({}, "'kind'"),
            ({"kind": "nope"}, "'kind'"),
            ({"kind": "experiment", "experiment": "fig99"}, "'experiment'"),
            (
                {"kind": "experiment", "experiment": "fig3", "scale": "huge"},
                "'scale'",
            ),
            (
                {"kind": "experiment", "experiment": "fig3", "extra": 1},
                "unknown spec key",
            ),
            ({"kind": "workload", "benchmarks": []}, "non-empty"),
            ({"kind": "workload", "benchmarks": ["not-a-bench"]},
             "unknown benchmark"),
            (
                {"kind": "workload", "benchmarks": ["mcf"], "policy": "bogus"},
                "'policy'",
            ),
            (
                {"kind": "workload", "benchmarks": ["mcf"], "budget": -1},
                "'budget'",
            ),
            (
                {"kind": "workload", "benchmarks": ["mcf"], "budget": True},
                "'budget'",
            ),
            (
                {"kind": "workload", "benchmarks": ["mcf", "hmmer"],
                 "num_cores": 1},
                "'num_cores'",
            ),
            # Policy options are checked by building the policy once.
            (
                {"kind": "workload", "benchmarks": ["mcf", "hmmer"],
                 "policy": "stfm", "policy_kwargs": {"alhpa": 3.0}},
                "does not take alhpa",
            ),
            (
                {"kind": "workload", "benchmarks": ["mcf", "hmmer"],
                 "policy": "fr-fcfs", "policy_kwargs": {"alpha": 3.0}},
                "does not take alpha",
            ),
            (
                {"kind": "workload", "benchmarks": ["mcf", "hmmer"],
                 "policy": "stfm", "policy_kwargs": {"alpha": 0.5}},
                "alpha",
            ),
            (
                {"kind": "workload", "benchmarks": ["mcf", "hmmer"],
                 "policy": "stfm", "policy_kwargs": {"interval_length": 0}},
                "interval_length",
            ),
            (
                {"kind": "workload", "benchmarks": ["mcf", "hmmer"],
                 "policy": "stfm", "policy_kwargs": {"weights": [1.0]}},
                "one weight per thread",
            ),
            (
                {"kind": "workload", "benchmarks": ["mcf", "hmmer"],
                 "policy": "stfm", "policy_kwargs": {"alpha": "high"}},
                "'policy_kwargs' rejected",
            ),
        ],
    )
    def test_rejects(self, raw, match):
        with pytest.raises(SpecError, match=match):
            parse_spec(raw)

    @pytest.mark.parametrize(
        "kwargs",
        [{"alpha": "NaN"}, {"gamma": "NaN"}, {"weights": ["NaN", 1.0]},
         {"alpha": "Infinity"}],
    )
    def test_rejects_non_finite_values_from_json(self, kwargs):
        """Python's json admits NaN and Infinity; a NaN alpha would
        silently disable fairness (no unfairness compares above it)."""
        body = json.dumps(
            {"kind": "workload", "benchmarks": ["mcf", "hmmer"],
             "policy": "stfm", "policy_kwargs": kwargs}
        ).replace('"NaN"', "NaN").replace('"Infinity"', "Infinity")
        with pytest.raises(SpecError, match="finite"):
            parse_spec(json.loads(body))

    def test_digest_stable_across_key_order(self):
        a = parse_spec({"kind": "workload", "benchmarks": ["mcf"],
                        "policy": "stfm", "budget": 2000})
        b = parse_spec({"budget": 2000, "policy": "stfm",
                        "benchmarks": ["mcf"], "kind": "workload"})
        assert spec_digest(a) == spec_digest(b)

    def test_digest_distinguishes_inputs(self):
        base = parse_spec({"kind": "workload", "benchmarks": ["mcf"]})
        for variant in (
            {"kind": "workload", "benchmarks": ["mcf"], "seed": 1},
            {"kind": "workload", "benchmarks": ["mcf"], "policy": "stfm"},
            {"kind": "workload", "benchmarks": ["mcf"], "budget": 4000},
            {"kind": "workload", "benchmarks": ["hmmer"]},
        ):
            assert spec_digest(parse_spec(variant)) != spec_digest(base)


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_render_counter_gauge_summary(self):
        registry = MetricsRegistry()
        jobs = registry.counter("jobs_total", "Jobs by event.")
        registry.gauge("depth", "Queue depth.", read=lambda: 3)
        wall = registry.summary("wall_seconds", "Wall time.")
        jobs.inc(event="done")
        jobs.inc(event="done")
        jobs.inc(event="failed")
        wall.observe(0.5)
        wall.observe(1.5)
        text = registry.render()
        assert '# TYPE jobs_total counter' in text
        assert 'jobs_total{event="done"} 2' in text
        assert 'jobs_total{event="failed"} 1' in text
        assert "depth 3" in text
        assert "wall_seconds_sum 2" in text
        assert "wall_seconds_count 2" in text
        assert parse_metrics(text)['jobs_total{event="done"}'] == 2.0

    def test_telemetry_counter_samples_share_the_shape(self):
        from repro.sim.telemetry import Telemetry, TelemetrySample

        telemetry = Telemetry(
            samples=[
                TelemetrySample(
                    cycle=100, instructions=[5, 7], stall_cycles=[1, 2],
                    estimated_slowdowns=None, queued_reads=0,
                    fairness_mode=None,
                )
            ]
        )
        samples = telemetry.counter_samples()
        assert ("stfm_sim_instructions_total", {"thread": "1"}, 7.0) in samples
        assert ("stfm_sim_cycles_total", {}, 100.0) in samples
        assert Telemetry().counter_samples() == []


# -- job state persistence ---------------------------------------------------


class TestJobStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job(id="abc-0001", spec={"kind": "workload"}, digest="abc",
                  status=DONE, seq=1, result={"x": 1}, wall_time=0.5)
        store.save(job)
        (loaded,) = store.load_all()
        assert loaded.to_dict() == job.to_dict()

    def test_recover_requeues_interrupted_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(Job(id="a-1", spec={}, digest="a", status=RUNNING, seq=1))
        store.save(Job(id="b-2", spec={}, digest="b", status=DONE, seq=2))
        store.save(Job(id="c-3", spec={}, digest="c", status=QUEUED, seq=3))
        jobs, requeue, running = JobStore(tmp_path).recover()
        assert {j.id for j in jobs} == {"a-1", "b-2", "c-3"}
        assert {j.id for j in requeue} == {"a-1", "c-3"}
        assert running == 1  # a-1 held a lease that died with the process
        assert all(j.status == QUEUED and j.resumed for j in requeue)
        # The requeued state is persisted, so a second crash recovers too.
        statuses = {j.id: j.status for j in JobStore(tmp_path).load_all()}
        assert statuses == {"a-1": QUEUED, "b-2": DONE, "c-3": QUEUED}

    def test_recover_skips_and_removes_interrupted_temp_files(self, tmp_path):
        # A writer killed between close and rename leaves a complete
        # dot-prefixed copy behind; it must not requeue the job twice.
        store = JobStore(tmp_path)
        job = Job(id="abc-0001", spec={}, digest="abc", status=QUEUED, seq=1)
        store.save(job)
        (tmp_path / ".tmp-k9xyz.json").write_text(json.dumps(job.to_dict()))
        _jobs, requeue, _running = JobStore(tmp_path).recover()
        assert [j.id for j in requeue] == ["abc-0001"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["abc-0001.json"]

    def test_corrupt_entries_skipped(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(Job(id="ok-1", spec={}, digest="ok", seq=1))
        (tmp_path / "bad.json").write_text("{not json")
        assert [j.id for j in store.load_all()] == ["ok-1"]


# -- admission queue ---------------------------------------------------------


class TestAdmissionQueue:
    def test_backpressure(self):
        async def scenario():
            queue = AdmissionQueue(limit=2)
            queue.submit("a")
            queue.submit("b")
            with pytest.raises(QueueFullError) as exc:
                queue.submit("c")
            assert exc.value.retry_after == 1  # no completions observed yet
            queue.observe(10.0)
            queue.observe(10.0)
            with pytest.raises(QueueFullError) as exc:
                queue.submit("c", inflight=1)
            # mean 10s x (depth 2 + inflight 1) = 30s
            assert exc.value.retry_after == 30

        asyncio.run(scenario())

    def test_retry_after_clamped(self):
        async def scenario():
            queue = AdmissionQueue(limit=1)
            queue.observe(1e6)
            queue.submit("a")
            with pytest.raises(QueueFullError) as exc:
                queue.submit("b")
            assert exc.value.retry_after == 120

        asyncio.run(scenario())


# -- HTTP integration --------------------------------------------------------


@contextlib.contextmanager
def running_service(tmp_path, **overrides):
    """A live service on a loopback port, torn down with a full drain."""
    settings = dict(
        host="127.0.0.1",
        port=0,
        workers=1,
        queue_limit=8,
        cache_dir=str(tmp_path / "store"),
        state_dir=str(tmp_path / "state"),
    )
    settings.update(overrides)
    service = ClusterCoordinator(CoordinatorConfig(**settings))
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(service.start(), loop).result(30)
        yield service, ServiceClient(f"http://127.0.0.1:{service.port}")
    finally:
        asyncio.run_coroutine_threadsafe(
            service.drain_and_stop(), loop
        ).result(120)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


class TestServiceHttp:
    def test_fig3_end_to_end_bit_identical_and_warm_cache(self, tmp_path):
        """The PR's acceptance criterion."""
        spec = {"kind": "experiment", "experiment": "fig3", "scale": "tiny"}
        direct = result_to_dict(run_experiment("fig3", scale="tiny"))
        with running_service(tmp_path) as (service, client):
            first = client.wait(client.submit(spec)["id"], timeout=300)
            assert first["status"] == "done"
            # Bit-identical to the direct engine run (floats round-trip
            # exactly through JSON).
            assert first["result"]["rows"] == direct["rows"]

            before = parse_metrics(client.metrics())
            second_view = client.submit(spec)
            assert second_view["deduplicated"] is False  # first is terminal
            second = client.wait(second_view["id"], timeout=300)
            assert second["status"] == "done"
            assert second["result"]["rows"] == direct["rows"]
            after = parse_metrics(client.metrics())
            # Zero new simulations: every sub-job came from the store.
            assert (
                after["stfm_engine_jobs_simulated_total"]
                == before["stfm_engine_jobs_simulated_total"]
            )
            assert after["stfm_store_hits_total"] > before["stfm_store_hits_total"]

    def test_metrics_expose_required_series(self, tmp_path):
        with running_service(tmp_path) as (service, client):
            text = client.metrics()
            for name in (
                "stfm_service_queue_depth",
                "stfm_service_inflight_jobs",
                "stfm_store_hits_total",
                "stfm_store_misses_total",
            ):
                assert f"# TYPE {name}" in text
            values = parse_metrics(text)
            assert values["stfm_service_queue_depth"] == 0.0
            assert values["stfm_service_inflight_jobs"] == 0.0

    def test_full_queue_returns_429_with_retry_after(self, tmp_path):
        # workers=0: nothing drains the queue, so limit=1 fills at once.
        with running_service(tmp_path, workers=0, queue_limit=1) as (
            service, client,
        ):
            client.submit(FAST_WORKLOAD)
            other = dict(FAST_WORKLOAD, policy="stfm")
            status, headers, body = client.request(
                "POST", "/v1/jobs", body=other
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert "queue" in body["error"]
            with pytest.raises(BackpressureError) as exc:
                client.submit(other)
            assert exc.value.retry_after >= 1

    def test_identical_inflight_specs_coalesce(self, tmp_path):
        with running_service(tmp_path, workers=0, queue_limit=1) as (
            service, client,
        ):
            first = client.submit(FAST_WORKLOAD)
            assert first["deduplicated"] is False
            # Identical spec coalesces instead of consuming the last slot.
            again = client.submit(dict(FAST_WORKLOAD))
            assert again["deduplicated"] is True
            assert again["id"] == first["id"]

    def test_duplicate_submit_race_lands_on_one_job(self, tmp_path):
        """A retried POST /v1/jobs (same Idempotency-Key) must resolve
        to the job the first attempt created — even when the retry
        races the job to a terminal state, and even though the server's
        response to the first attempt was never seen."""
        with running_service(tmp_path, workers=1) as (service, client):
            key = client.idempotency_key(FAST_WORKLOAD)
            first = client.submit(FAST_WORKLOAD, idempotency_key=key)
            assert first["deduplicated"] is False
            # The "response lost" retry: same key, concurrent with the
            # job running — and again after it is terminal.
            retry = client.submit(FAST_WORKLOAD, idempotency_key=key)
            assert retry["id"] == first["id"]
            assert retry["deduplicated"] is True
            client.wait(first["id"], timeout=120)
            late_retry = client.submit(FAST_WORKLOAD, idempotency_key=key)
            assert late_retry["id"] == first["id"]
            assert late_retry["deduplicated"] is True

            metrics = parse_metrics(client.metrics())
            assert (
                metrics['stfm_service_jobs_total{event="submitted"}'] == 1
            )
            assert (
                metrics['stfm_service_jobs_total{event="idempotent_replay"}']
                == 2
            )
            # A *fresh* submission attempt (new nonce) after the job is
            # terminal is a new job — deliberate resubmission still works.
            fresh = client.submit(FAST_WORKLOAD)
            assert fresh["deduplicated"] is False
            assert fresh["id"] != first["id"]

    def test_idempotency_key_survives_restart(self, tmp_path):
        """Keys are persisted with the job: a coordinator restart must
        not turn a retried POST into a duplicate job."""
        key = None
        with running_service(tmp_path, workers=1) as (service, client):
            key = client.idempotency_key(FAST_WORKLOAD)
            first = client.submit(FAST_WORKLOAD, idempotency_key=key)
            client.wait(first["id"], timeout=120)
        with running_service(tmp_path, workers=1) as (service, client):
            retry = client.submit(FAST_WORKLOAD, idempotency_key=key)
            assert retry["id"] == first["id"]
            assert retry["deduplicated"] is True

    def test_malformed_specs_return_400(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, client):
            status, _headers, body = client.request(
                "POST", "/v1/jobs", body={"kind": "workload", "benchmarks": []}
            )
            assert status == 400
            assert "non-empty" in body["error"]
            with pytest.raises(ServiceError) as exc:
                client.submit({"kind": "experiment", "experiment": "fig99"})
            assert exc.value.status == 400

    def test_invalid_json_body_returns_400(self, tmp_path):
        import http.client

        with running_service(tmp_path, workers=0) as (service, client):
            conn = http.client.HTTPConnection("127.0.0.1", service.port)
            try:
                conn.request(
                    "POST", "/v1/jobs", body=b"{nope",
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 400
                assert b"JSON" in response.read()
            finally:
                conn.close()

    def test_worker_crash_marks_job_failed_not_hung(self, tmp_path, monkeypatch):
        # Admission rejects bad policy options up front, so the crash is
        # injected into the job itself: the job must turn FAILED.
        from repro.cluster import coordinator as coordinator_module

        def execute_or_crash(spec, **kwargs):
            if spec["seed"] == 13:  # the job's persisted normalized spec
                raise RuntimeError("simulated worker crash")
            return real_execute(spec, **kwargs)

        real_execute = coordinator_module.execute_spec
        monkeypatch.setattr(
            coordinator_module, "execute_spec", execute_or_crash
        )
        crash = dict(FAST_WORKLOAD, seed=13)
        with running_service(tmp_path) as (service, client):
            view = client.submit(crash)
            done = client.wait(view["id"], timeout=60)
            assert done["status"] == "failed"
            assert "simulated worker crash" in done["error"]
            # ... and the worker survived to run the next job.
            ok = client.wait(client.submit(FAST_WORKLOAD)["id"], timeout=60)
            assert ok["status"] == "done"

    def test_each_job_runs_under_exactly_one_lease(self, tmp_path):
        with running_service(tmp_path) as (service, client):
            view = client.wait(client.submit(FAST_WORKLOAD)["id"], timeout=60)
            assert view["status"] == "done"
            assert view["attempts"] == 1
        assert len(service.leases) == 0
        assert service.leases.granted == {"local-0": 1}
        assert service.leases.completed == {"local-0": 1}

    def test_watchdog_settles_the_lease_and_drops_the_late_result(
        self, tmp_path, monkeypatch
    ):
        from repro.cluster import coordinator as coordinator_module

        release = threading.Event()
        returned = threading.Event()

        def blocking_execute(spec, **kwargs):
            release.wait(30)
            returned.set()
            return {"kind": "workload", "late": True}

        monkeypatch.setattr(
            coordinator_module, "execute_spec", blocking_execute
        )
        with running_service(tmp_path, job_timeout=0.3) as (service, client):
            job_id = client.submit(FAST_WORKLOAD)["id"]
            failed = client.wait(job_id, timeout=60)
            assert failed["status"] == "failed"
            assert failed["error"].startswith("watchdog:")
            assert len(service.leases) == 0
            assert service.leases.completed == {"local-0": 1}
            release.set()
            assert returned.wait(30)
            time.sleep(0.2)  # let a stray late settlement land, if any
            late = client.result(job_id)
            assert late["status"] == "failed"
            assert "result" not in late
        persisted = {j.id: j for j in JobStore(tmp_path / "state").load_all()}
        assert persisted[job_id].status == "failed"
        assert persisted[job_id].result is None

    def test_bad_policy_kwargs_rejected_at_admission(self, tmp_path):
        bad = dict(FAST_WORKLOAD, policy="stfm", policy_kwargs={"alpha": 0.5})
        with running_service(tmp_path, workers=0) as (service, client):
            with pytest.raises(ServiceError) as exc:
                client.submit(bad)
            assert exc.value.status == 400
            assert "alpha" in str(exc.value)

    def test_unknown_ids_and_endpoints_return_404(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, client):
            with pytest.raises(ServiceError) as exc:
                client.job("nope-0000")
            assert exc.value.status == 404
            status, _headers, _body = client.request("GET", "/nope")
            assert status == 404

    def test_results_endpoint_202_until_done(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, client):
            view = client.submit(FAST_WORKLOAD)
            status, _headers, body = client.request(
                "GET", f"/v1/results/{view['id']}"
            )
            assert status == 202
            assert body["status"] == "queued"
            assert "result" not in body

    def test_results_listing_endpoint(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, client):
            assert client.results() == []
            first = client.submit(FAST_WORKLOAD)
            second = client.submit(dict(FAST_WORKLOAD, policy="stfm"))
            listing = client.results()
            # Submission order, ids + digests + status, no payloads.
            assert [entry["id"] for entry in listing] == [
                first["id"],
                second["id"],
            ]
            for entry, view in zip(listing, (first, second)):
                assert set(entry) == {"id", "spec_digest", "status"}
                assert entry["spec_digest"] == view["spec_digest"]
                assert entry["status"] == "queued"
            # The bare path rejects other methods like the rest of /v1.
            status, _headers, _body = client.request("POST", "/v1/results")
            assert status == 405

    def test_draining_health_and_503(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, client):
            assert client.health()["status"] == "ok"
            service.draining = True
            assert client.health()["status"] == "draining"
            status, _headers, body = client.request(
                "POST", "/v1/jobs", body=FAST_WORKLOAD
            )
            assert status == 503
            service.draining = False

    def test_restart_recovers_and_resumes_jobs(self, tmp_path):
        # A dead server left one job mid-run and one queued: a fresh
        # instance on the same state dir re-queues and completes both.
        state = JobStore(tmp_path / "state")
        spec = parse_spec(FAST_WORKLOAD).normalized()
        digest = spec_digest(spec)
        state.save(Job(id=f"{digest[:12]}-0001", spec=spec, digest=digest,
                       status=RUNNING, seq=1))
        done_spec = dict(spec, seed=9)
        done_digest = spec_digest(done_spec)
        state.save(Job(id=f"{done_digest[:12]}-0002", spec=done_spec,
                       digest=done_digest, status=DONE, seq=2,
                       result={"kind": "workload"}))
        with running_service(tmp_path) as (service, client):
            resumed = client.wait(f"{digest[:12]}-0001", timeout=120)
            assert resumed["status"] == "done"
            assert resumed["resumed"] is True
            # Terminal work is re-reported as-is, not re-run.
            kept = client.result(f"{done_digest[:12]}-0002")
            assert kept["status"] == "done"
            assert kept["result"] == {"kind": "workload"}
            # New submissions continue the persisted sequence (no id reuse).
            fresh = client.submit(dict(FAST_WORKLOAD, seed=3))
            assert fresh["id"].endswith("-0003")

    def test_drain_completes_inflight_jobs(self, tmp_path):
        # drain_and_stop (the SIGTERM path minus the signal) must finish
        # already-admitted jobs before the listener goes down.
        settings = dict(
            host="127.0.0.1", port=0, workers=1, queue_limit=8,
            cache_dir=str(tmp_path / "store"),
            state_dir=str(tmp_path / "state"),
        )
        service = ClusterCoordinator(CoordinatorConfig(**settings))
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(service.start(), loop).result(30)
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            ids = [
                client.submit(dict(FAST_WORKLOAD, seed=seed))["id"]
                for seed in (11, 12, 13)
            ]
            asyncio.run_coroutine_threadsafe(
                service.drain_and_stop(), loop
            ).result(300)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)
            loop.close()
        persisted = {j.id: j for j in JobStore(tmp_path / "state").load_all()}
        for job_id in ids:
            assert persisted[job_id].status == DONE


# -- SIGTERM drain (the real signal, in a subprocess) ------------------------


class TestSigtermDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        import os
        import signal as signal_module
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--workers", "1", "--queue-limit", "8",
                "--cache-dir", str(tmp_path / "store"),
                "--state-dir", str(tmp_path / "state"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.rstrip().rsplit(":", 1)[1])
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job_id = client.submit(dict(FAST_WORKLOAD, seed=21))["id"]
            proc.send_signal(signal_module.SIGTERM)
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        jobs = {j.id: j for j in JobStore(tmp_path / "state").load_all()}
        assert jobs[job_id].status == DONE
