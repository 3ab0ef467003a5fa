"""Tests for the cluster chaos layer (PR 10).

Four layers:

* unit: the runner circuit breaker (state machine, deterministic
  exponential backoff with jitter), the coordinator checkpoint file,
  the fault spool + replay-stable decision filtering, and the
  capacity-weighted rendezvous router;
* in-process integration: coordinator crash-resume across incarnations
  (late completions from a dead incarnation refused, exactly-once
  settlement, attempt numbers and expirations from the job records,
  resume past a smaller queue limit, resume metrics), conditional
  store PUTs, and per-runner capacity enforcement on the grant path;
* runner: ``--capacity N`` executes leases concurrently on a thread
  pool and still settles everything exactly once;
* harness: the ``stfm-sim chaos`` invariant checks themselves.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time

import pytest

from repro import faults
from repro.cluster.chaos import ChaosFailure, _check_metrics, fault_spec
from repro.cluster.checkpoint import CheckpointState, CoordinatorCheckpoint
from repro.cluster.coordinator import (
    ClusterCoordinator,
    CoordinatorConfig,
    _owner,
)
from repro.cluster.leases import LeaseTable
from repro.cluster.runner import ClusterRunner, RunnerConfig
from repro.engine.backends import HttpStoreBackend
from repro.resilience import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.client import ServiceClient, parse_metrics

from tests.test_cluster import _spec, running_coordinator


@contextlib.contextmanager
def crashed_coordinator(tmp_path, **overrides):
    """Like ``running_coordinator`` but dies like ``kill -9``.

    No drain, no lease expiry, no final checkpoint: the job store
    stays exactly as it was mid-flight (a leased job still RUNNING),
    which is what restart recovery must cope with.
    """
    settings = dict(
        host="127.0.0.1",
        port=0,
        queue_limit=16,
        cache_dir=str(tmp_path / "store"),
        state_dir=str(tmp_path / "state"),
        lease_ttl=10.0,
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
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("STFM_SIM_CACHE_DIR", str(tmp_path / "default-store"))
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    monkeypatch.delenv(faults.FAULT_LOG_ENV, raising=False)


# -- circuit breaker ---------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=1.0)
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        assert breaker.state == CLOSED and breaker.allow(0.2)
        breaker.record_failure(0.2)
        assert breaker.state == OPEN
        assert breaker.opens == 1
        assert not breaker.allow(0.3)
        assert breaker.seconds_until_probe(0.3) > 0.0

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=0.5)
        breaker.record_failure(0.0)
        retry_at = 0.0 + breaker.seconds_until_probe(0.0)
        assert not breaker.allow(retry_at - 0.01)
        assert breaker.allow(retry_at + 0.01)  # the probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(retry_at + 0.02)  # concurrent caller

    def test_probe_success_closes_and_resets_ladder(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=0.5)
        breaker.record_failure(0.0)
        first_cooldown = breaker.seconds_until_probe(0.0)
        assert breaker.allow(100.0)
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow(100.1)
        # The ladder reset: the next opening starts from the base again.
        breaker.record_failure(200.0)
        assert breaker.seconds_until_probe(200.0) == pytest.approx(
            first_cooldown
        )

    def test_probe_failure_reopens_with_longer_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=0.5,
                                 max_cooldown=64.0)
        breaker.record_failure(0.0)
        first = breaker.seconds_until_probe(0.0)
        assert breaker.allow(100.0)  # half-open probe
        breaker.record_failure(100.0)  # probe fails
        assert breaker.state == OPEN and breaker.opens == 2
        second = breaker.seconds_until_probe(100.0)
        # Exponential: jitter is +/-15%, doubling always dominates it
        # (worst case 2 * 0.85 / 1.15 > 1.4).
        assert second > first * 1.4

    def test_cooldown_is_capped(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=0.5,
                                 max_cooldown=1.0)
        now = 0.0
        for _ in range(6):
            breaker.record_failure(now)
            delay = breaker.seconds_until_probe(now)
            assert delay <= 1.0 * 1.15  # ceiling * max jitter
            now += delay + 0.01
            assert breaker.allow(now)

    def test_jitter_is_deterministic_per_seed(self):
        def schedule(seed):
            breaker = CircuitBreaker(failure_threshold=1, cooldown=0.5,
                                     seed=seed)
            out = []
            now = 0.0
            for _ in range(4):
                breaker.record_failure(now)
                delay = breaker.seconds_until_probe(now)
                out.append(delay)
                now += delay + 0.01
                assert breaker.allow(now)
            return out

        assert schedule("runner-0") == schedule("runner-0")
        assert schedule("runner-0") != schedule("runner-1")

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=2.0, max_cooldown=1.0)
        assert "closed" in CircuitBreaker().describe()


# -- fault spool + replay-stable filtering -----------------------------------


class TestFaultSpool:
    def test_firings_spool_and_read_back(self, tmp_path, monkeypatch):
        spool = tmp_path / "spool"
        monkeypatch.setenv(faults.FAULT_LOG_ENV, str(spool))
        monkeypatch.setenv(faults.FAULTS_ENV, "crash=1.0,refused=1.0")
        assert faults.fires("crash", "job-a:1")
        assert faults.fires("refused", "store-read:k")
        assert faults.fires("crash", "job-a:1")  # dup firing, one entry
        fired = faults.read_spool(str(spool))
        assert fired == {("crash", "job-a:1"), ("refused", "store-read:k")}

    def test_read_spool_of_missing_dir_is_empty(self, tmp_path):
        assert faults.read_spool(str(tmp_path / "nope")) == set()

    def test_replay_stable_excludes_attempt_scoped_keys(self):
        fired = {
            ("crash", "job-a:1"),  # engine attempt streams are stable
            ("truncate", "store-read:k"),  # content-derived: stable
            ("refused", "POST /v1/leases #3.1"),  # wire-scoped: excluded
            ("drop", "GET /healthz #1"),  # drop is never replay-stable
            ("service", "job-9#a2"),  # delivery-scoped: excluded
        }
        assert faults.replay_stable_decisions(fired) == {
            ("crash", "job-a:1"),
            ("truncate", "store-read:k"),
        }


# -- checkpoint --------------------------------------------------------------


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        checkpoint = CoordinatorCheckpoint(tmp_path / "state")
        state = CheckpointState(incarnation=3, resume_recoveries=2,
                                expirations=5, redeliveries=4,
                                late_completions=1)
        checkpoint.save(state)
        assert checkpoint.load() == state

    def test_missing_or_corrupt_degrades_to_default(self, tmp_path):
        checkpoint = CoordinatorCheckpoint(tmp_path / "state")
        assert checkpoint.load() == CheckpointState()
        checkpoint.root.mkdir(parents=True)
        checkpoint.path.write_text("{torn")
        assert checkpoint.load() == CheckpointState()
        checkpoint.path.write_text("[1, 2]")
        assert checkpoint.load() == CheckpointState()

    def test_garbage_fields_are_clamped(self):
        state = CheckpointState.from_dict(
            {"incarnation": "7", "resume_recoveries": -3,
             "expirations": "x", "unknown": 9}
        )
        assert state.incarnation == 7
        assert state.resume_recoveries == 0
        assert state.expirations == 0


class TestLeaseIdPrefix:
    def test_prefix_lands_in_lease_ids(self):
        table = LeaseTable(ttl=5.0, id_prefix="i2-")
        lease = table.grant("job-1", "runner-a", now=0.0, attempt=1)
        assert lease.id.startswith("lease-i2-")

    def test_default_prefix_keeps_legacy_ids(self):
        table = LeaseTable(ttl=5.0)
        lease = table.grant("job-1", "runner-a", now=0.0, attempt=1)
        assert lease.id == "lease-000001"


# -- capacity-weighted rendezvous --------------------------------------------


class TestWeightedAffinity:
    def test_equal_capacities_match_legacy_routing(self):
        runners = ["runner-0", "runner-1", "runner-2"]
        digests = [f"{i:064x}" for i in range(60)]
        for digest in digests:
            legacy = _owner(digest, runners)
            assert _owner(digest, runners, {r: 1 for r in runners}) == legacy
            assert _owner(digest, runners, None) == legacy

    def test_higher_capacity_owns_proportionally_more(self):
        runners = ["big", "small"]
        capacities = {"big": 8, "small": 1}
        digests = [f"{i:064x}" for i in range(360)]
        owned_by_big = sum(
            1 for d in digests if _owner(d, runners, capacities) == "big"
        )
        # Expectation is 8/9 (320); a generous band avoids flakiness
        # while still proving the weighting works.
        assert 280 <= owned_by_big < 360

    def test_stability_under_churn_with_weights(self):
        runners = ["a", "b", "c"]
        capacities = {"a": 2, "b": 1, "c": 4}
        digests = [f"{i:064x}" for i in range(50)]
        owners = {d: _owner(d, runners, capacities) for d in digests}
        survivors = ["a", "c"]
        for digest, owner in owners.items():
            if owner in survivors:
                assert _owner(digest, survivors, capacities) == owner


# -- crash-resume across incarnations ----------------------------------------


class TestIncarnationResume:
    def test_restart_bumps_incarnation_and_refuses_stale_leases(
        self, tmp_path
    ):
        with crashed_coordinator(tmp_path) as (first, client):
            view = client.submit(_spec(1))
            status, _, stale = client.request(
                "POST", "/v1/leases", body={"runner": "r-old"}
            )
            assert status == 200
            assert first.incarnation == 1
            assert stale["lease_id"].startswith("lease-i1-")
        # The simulated kill -9 leaves the job leased but unsettled on
        # disk — the restart must resume it.
        with running_coordinator(tmp_path) as (second, client):
            assert second.incarnation == 2
            assert second.resume_recoveries >= 1

            # A late completion from the dead incarnation: refused, and
            # it must not settle the resumed job.
            status, _, body = client.request(
                "POST", f"/v1/leases/{stale['lease_id']}/complete",
                body={"runner": "r-old", "result": {"stale": True}},
            )
            assert status == 410 and body["accepted"] is False
            assert client.job(view["id"])["status"] == "queued"

            # Redelivery in the new incarnation: fresh id space, next
            # attempt number (attempt tracking survives the crash).
            status, _, lease = client.request(
                "POST", "/v1/leases", body={"runner": "r-new"}
            )
            assert status == 200
            assert lease["lease_id"].startswith("lease-i2-")
            assert lease["job_id"] == view["id"]
            assert lease["attempt"] == 2

            status, _, done = client.request(
                "POST", f"/v1/leases/{lease['lease_id']}/complete",
                body={"runner": "r-new",
                      "result": {"kind": "workload", "fake": True},
                      "breaker_opens": 2},
            )
            assert status == 200 and done["accepted"] is True
            assert client.result(view["id"])["status"] == "done"

            metrics = parse_metrics(client.metrics())
            assert metrics["stfm_cluster_incarnation"] == 2
            assert metrics["stfm_cluster_resume_recoveries_total"] >= 1
            assert metrics[
                'stfm_cluster_runner_breaker_opens_total{runner="r-new"}'
            ] == 2

    def test_attempts_survive_expiry_then_crash(self, tmp_path):
        """Two leases expire, then the coordinator dies without a drain:
        the next grant is attempt 3, numbered from the job record."""
        with crashed_coordinator(tmp_path, lease_ttl=0.2) as (first, client):
            view = client.submit(_spec(5))
            for expired in (1, 2):
                status, _, lease = client.request(
                    "POST", "/v1/leases", body={"runner": "r-slow"}
                )
                assert status == 200 and lease["attempt"] == expired
                deadline = time.time() + 10
                while first.leases.expirations < expired:
                    assert time.time() < deadline, "lease never expired"
                    time.sleep(0.02)
            assert client.job(view["id"])["attempts"] == 2
        with running_coordinator(tmp_path) as (_second, client):
            status, _, lease = client.request(
                "POST", "/v1/leases", body={"runner": "r-new"}
            )
            assert status == 200
            assert lease["job_id"] == view["id"]
            assert lease["attempt"] == 3
            assert client.job(view["id"])["attempts"] == 3
            client.request(
                "POST", f"/v1/leases/{lease['lease_id']}/complete",
                body={"runner": "r-new", "result": {"fake": True}},
            )

    def test_running_job_at_crash_counts_one_expiration(self, tmp_path):
        state = tmp_path / "state"
        with crashed_coordinator(tmp_path) as (first, client):
            client.submit(_spec(6))
            status, _, _lease = client.request(
                "POST", "/v1/leases", body={"runner": "r-old"}
            )
            assert status == 200
            assert first.leases.expirations == 0
        with running_coordinator(tmp_path) as (second, client):
            metrics = parse_metrics(client.metrics())
            assert metrics["stfm_cluster_lease_expirations_total"] == 1
            assert second.leases.expirations == 1
        # The job record is the only durable lease state.
        assert not (state / "leases").exists()

    def test_restart_with_smaller_queue_limit_comes_up(self, tmp_path):
        with crashed_coordinator(tmp_path) as (_first, client):
            for seed in (7, 8, 9):
                client.submit(_spec(seed))
        # Recovery admits all three jobs past the new limit of 2; the
        # limit gates only new submissions.
        with running_coordinator(tmp_path, queue_limit=2) as (second, client):
            assert second.queue.depth == 3
            leases = []
            for depth in (3, 2):
                status, _, _body = client.request(
                    "POST", "/v1/jobs", body=_spec(10)
                )
                assert status == 429, f"admitted at depth {depth}"
                status, _, lease = client.request(
                    "POST", "/v1/leases", body={"runner": f"r-{depth}"}
                )
                assert status == 200
                leases.append(lease)
            assert second.queue.depth == 1
            status, _, _body = client.request(
                "POST", "/v1/jobs", body=_spec(10)
            )
            assert status == 202
            for lease in leases:
                client.request(
                    "POST", f"/v1/leases/{lease['lease_id']}/complete",
                    body={"runner": "r", "result": {"fake": True}},
                )

    def test_checkpoint_carries_lease_counter_bases(self, tmp_path):
        with running_coordinator(
            tmp_path, lease_ttl=0.2
        ) as (first, client):
            view = client.submit(_spec(3))
            client.request("POST", "/v1/leases", body={"runner": "r-a"})
            deadline = time.time() + 10
            while time.time() < deadline:
                if first.leases.expirations >= 1:
                    break
                time.sleep(0.05)
            assert first.leases.expirations >= 1
        with running_coordinator(tmp_path, lease_ttl=0.2) as (second, client):
            # The restarted coordinator resumes the counters rather
            # than resetting the time series to zero.
            assert second.leases.expirations >= 1
            metrics = parse_metrics(client.metrics())
            assert metrics["stfm_cluster_lease_expirations_total"] >= 1
            assert view["id"]  # the job itself is still tracked
            assert client.job(view["id"])["status"] in (
                "queued", "running"
            )


# -- conditional PUTs through the store proxy --------------------------------


class TestConditionalPuts:
    def test_second_put_is_a_412_skip_not_a_duplicate(self, tmp_path):
        with running_coordinator(tmp_path) as (service, client):
            url = f"http://127.0.0.1:{service.port}"
            backend = HttpStoreBackend(url)
            backend.write("k" * 64, b'{"probe": 1}')
            backend.write("k" * 64, b'{"probe": 1}')
            assert backend.conditional_skips == 1
            metrics = parse_metrics(client.metrics())
            assert metrics[
                "stfm_store_proxy_conditional_put_skips_total"
            ] == 1
            assert metrics["stfm_store_proxy_duplicate_puts_total"] == 0

    def test_unconditional_put_still_counts_duplicates(self, tmp_path):
        with running_coordinator(tmp_path) as (service, client):
            url = f"http://127.0.0.1:{service.port}"
            backend = HttpStoreBackend(url)
            backend.write("k" * 64, b'{"probe": 1}')
            # A raw unconditional PUT (no If-None-Match) of an existing
            # key is a true duplicate upload and must be counted.
            status, _ = backend._request(
                "PUT", f"/v1/store/{'k' * 64}", body=b'{"probe": 1}'
            )
            assert status == 204
            metrics = parse_metrics(client.metrics())
            assert metrics["stfm_store_proxy_duplicate_puts_total"] == 1


# -- per-runner capacity on the grant path -----------------------------------


class TestCapacityGrants:
    def test_grants_stop_at_declared_capacity(self, tmp_path):
        with running_coordinator(tmp_path) as (_service, client):
            for seed in (1, 2, 3):
                client.submit(_spec(seed))
            status, _, first = client.request(
                "POST", "/v1/leases", body={"runner": "r-cap", "capacity": 2}
            )
            assert status == 200
            status, _, second = client.request(
                "POST", "/v1/leases", body={"runner": "r-cap", "capacity": 2}
            )
            assert status == 200
            # At capacity: the third request is refused even though the
            # queue still has a job.
            status, _, _ = client.request(
                "POST", "/v1/leases", body={"runner": "r-cap", "capacity": 2}
            )
            assert status == 204
            # Completing one lease frees a slot.
            client.request(
                "POST", f"/v1/leases/{first['lease_id']}/complete",
                body={"runner": "r-cap",
                      "result": {"kind": "workload", "fake": True}},
            )
            status, _, third = client.request(
                "POST", "/v1/leases", body={"runner": "r-cap", "capacity": 2}
            )
            assert status == 200
            assert third["job_id"] != second["job_id"]

    def test_malformed_capacity_is_a_400(self, tmp_path):
        with running_coordinator(tmp_path) as (_service, client):
            status, _, _ = client.request(
                "POST", "/v1/leases",
                body={"runner": "r-bad", "capacity": "lots"},
            )
            assert status == 400

    def test_capacity_two_runner_settles_everything(self, tmp_path):
        with running_coordinator(tmp_path) as (service, client):
            views = [client.submit(_spec(seed)) for seed in (1, 2, 3, 4)]
            runner = ClusterRunner(RunnerConfig(
                coordinator=f"http://127.0.0.1:{service.port}",
                runner_id="r-wide",
                poll=0.05,
                max_jobs=4,
                capacity=2,
            ))
            done = threading.Event()

            def drive():
                runner.run()
                done.set()

            thread = threading.Thread(target=drive, daemon=True)
            thread.start()
            assert done.wait(120), "capacity-2 runner did not finish"
            thread.join(10)
            assert runner.jobs_completed == 4
            for view in views:
                final = client.result(view["id"])
                assert final["status"] == "done"
            metrics = parse_metrics(client.metrics())
            assert metrics[
                'stfm_cluster_leases_granted_total{runner="r-wide"}'
            ] == 4


# -- chaos harness invariants ------------------------------------------------


class TestChaosHarness:
    def test_fault_spec_is_seeded_and_covers_network_sites(self):
        spec = fault_spec(7)
        assert "seed=7" in spec
        plan = faults.parse_faults(spec)
        for site in ("refused", "reset", "latency", "partition",
                     "truncate", "corrupt", "write", "crash"):
            assert site in plan.rates

    def _good_metrics(self):
        return {
            "stfm_store_proxy_duplicate_puts_total": 0,
            "stfm_cluster_resume_recoveries_total": 1,
            "stfm_store_proxy_conditional_put_skips_total": 2,
            'stfm_cluster_runner_breaker_opens_total{runner="r-0"}': 1,
        }

    def test_good_metrics_pass(self):
        _check_metrics("t", self._good_metrics())

    @pytest.mark.parametrize(
        "name,bad",
        [
            ("stfm_store_proxy_duplicate_puts_total", 1),
            ("stfm_cluster_resume_recoveries_total", 0),
            ("stfm_store_proxy_conditional_put_skips_total", 0),
            ('stfm_cluster_runner_breaker_opens_total{runner="r-0"}', 0),
        ],
    )
    def test_each_invariant_is_enforced(self, name, bad):
        metrics = self._good_metrics()
        metrics[name] = bad
        with pytest.raises(ChaosFailure):
            _check_metrics("t", metrics)
