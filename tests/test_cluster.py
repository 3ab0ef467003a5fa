"""Tests for the distributed sweep cluster (repro.cluster).

Three layers:

* unit: the lease table (grant/heartbeat/expire/late-complete) and
  rendezvous affinity routing;
* in-process integration: a real coordinator on a loopback port driven
  by runner objects on threads — lease protocol, redelivery, the
  bit-identical acceptance criterion on every store backend;
* subprocess smoke: a LocalCluster of real OS processes where one
  runner is ``kill -9``'d mid-sweep and the sweep still completes,
  and a 3-runner submit storm that must finish with *zero* duplicate
  simulations (the ``stfm_store_proxy_duplicate_puts_total`` metric).
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time

import pytest

from repro.cluster.coordinator import (
    ClusterCoordinator,
    CoordinatorConfig,
    _owner,
)
from repro.cluster.leases import LeaseTable
from repro.cluster import runner as runner_module
from repro.cluster.runner import ClusterRunner, RunnerConfig
from repro.cluster.supervisor import LocalCluster
from repro.service.client import ServiceClient, parse_metrics
from repro.service.queue import AdmissionQueue


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("STFM_SIM_CACHE_DIR", str(tmp_path / "default-store"))


# -- lease table -------------------------------------------------------------


class TestLeaseTable:
    def test_grant_heartbeat_complete(self):
        table = LeaseTable(ttl=10.0)
        lease = table.grant("job-1", "runner-a", now=100.0, attempt=1)
        assert lease.attempt == 1
        assert lease.deadline == 110.0
        assert table.for_job("job-1") is lease
        assert table.active_by_runner() == {"runner-a": 1}

        renewed = table.heartbeat(lease.id, now=105.0)
        assert renewed.deadline == 115.0

        settled = table.complete(lease.id)
        assert settled is lease
        assert table.for_job("job-1") is None
        assert table.completed == {"runner-a": 1}

    def test_expiry_requeues_and_counts(self):
        table = LeaseTable(ttl=5.0)
        lease = table.grant("job-1", "runner-a", now=0.0, attempt=1)
        assert table.expire_due(now=4.9) == []
        due = table.expire_due(now=5.1)
        assert due == [lease]
        assert table.expirations == 1
        assert table.redeliveries == 1
        # The caller numbers the redelivered grant.
        second = table.grant("job-1", "runner-b", now=6.0, attempt=2)
        assert second.attempt == 2

    def test_late_completion_is_discarded(self):
        table = LeaseTable(ttl=5.0)
        lease = table.grant("job-1", "runner-a", now=0.0, attempt=1)
        table.expire_due(now=10.0)
        assert table.complete(lease.id) is None
        assert table.late_completions == 1

    def test_double_lease_of_one_job_is_refused(self):
        table = LeaseTable(ttl=5.0)
        table.grant("job-1", "runner-a", now=0.0, attempt=1)
        with pytest.raises(ValueError, match="already leased"):
            table.grant("job-1", "runner-b", now=0.0, attempt=2)


class TestAffinity:
    def test_rendezvous_owner_is_stable_under_churn(self):
        runners = ["runner-0", "runner-1", "runner-2"]
        digests = [f"{i:064x}" for i in range(40)]
        owners = {d: _owner(d, runners) for d in digests}
        assert len(set(owners.values())) > 1  # spreads across runners
        # Removing one runner only moves the keys it owned.
        survivors = ["runner-0", "runner-2"]
        for digest, owner in owners.items():
            if owner in survivors:
                assert _owner(digest, survivors) == owner

    def test_try_take_prefers_chosen_job(self):
        queue = AdmissionQueue(limit=8)
        for job_id in ("a", "b", "c"):
            queue.submit(job_id)
        assert queue.try_take(chooser=lambda pending: "b") == "b"
        assert queue.try_take() == "a"  # default: oldest
        assert queue.try_take(chooser=lambda pending: None) is None
        assert queue.depth == 1

    def test_requeue_goes_to_the_front_without_recount(self):
        queue = AdmissionQueue(limit=8)
        queue.submit("a")
        queue.submit("b")
        taken = queue.try_take()
        queue.requeue(taken)
        assert queue.unfinished == 2  # not re-counted
        assert queue.try_take() == "a"  # redelivered first


# -- in-process integration --------------------------------------------------


@contextlib.contextmanager
def running_coordinator(tmp_path, **overrides):
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
        asyncio.run_coroutine_threadsafe(
            service.drain_and_stop(), loop
        ).result(120)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


def _spec(seed: int, budget: int = 1_500) -> dict:
    return {
        "kind": "workload",
        "benchmarks": ["mcf", "hmmer"],
        "policy": "fr-fcfs",
        "budget": budget,
        "seed": seed,
    }


class TestLeaseProtocol:
    def test_lease_execute_complete_round_trip(self, tmp_path):
        with running_coordinator(tmp_path) as (service, client):
            view = client.submit(_spec(1))
            status, _, lease = client.request(
                "POST", "/v1/leases", body={"runner": "r-test"}
            )
            assert status == 200
            assert lease["job_id"] == view["id"]
            assert lease["attempt"] == 1
            assert client.job(view["id"])["status"] == "running"

            status, _, beat = client.request(
                "POST", f"/v1/leases/{lease['lease_id']}/heartbeat"
            )
            assert status == 200 and beat["ttl"] == 10.0

            status, _, done = client.request(
                "POST", f"/v1/leases/{lease['lease_id']}/complete",
                body={"runner": "r-test", "wall": 0.5,
                      "result": {"kind": "workload", "fake": True},
                      "engine": {"jobs_run": 3, "hits": 0}},
            )
            assert status == 200 and done["accepted"] is True
            final = client.result(view["id"])
            assert final["status"] == "done"
            assert final["runner"] == "r-test"
            assert final["result"] == {"kind": "workload", "fake": True}

    def test_empty_queue_leases_204(self, tmp_path):
        with running_coordinator(tmp_path) as (_service, client):
            status, _, _ = client.request(
                "POST", "/v1/leases", body={"runner": "r-idle"}
            )
            assert status == 204

    def test_expired_lease_redelivers_and_discards_late_result(
        self, tmp_path
    ):
        with running_coordinator(
            tmp_path, lease_ttl=0.3
        ) as (service, client):
            view = client.submit(_spec(2))
            _, _, lease = client.request(
                "POST", "/v1/leases", body={"runner": "r-dead"}
            )
            # No heartbeats: wait for the sweep to expire the lease.
            deadline = time.time() + 10
            while time.time() < deadline:
                if client.job(view["id"])["status"] == "queued":
                    break
                time.sleep(0.05)
            assert client.job(view["id"])["status"] == "queued"

            # The late completion from the dead runner is discarded.
            status, _, body = client.request(
                "POST", f"/v1/leases/{lease['lease_id']}/complete",
                body={"runner": "r-dead", "result": {"stale": True}},
            )
            assert status == 410 and body["accepted"] is False
            assert client.job(view["id"])["status"] == "queued"

            # Redelivery: a live runner gets attempt 2 and settles it.
            _, _, second = client.request(
                "POST", "/v1/leases", body={"runner": "r-live"}
            )
            assert second["job_id"] == view["id"]
            assert second["attempt"] == 2
            client.request(
                "POST", f"/v1/leases/{second['lease_id']}/complete",
                body={"runner": "r-live", "result": {"stale": False}},
            )
            final = client.result(view["id"])
            assert final["status"] == "done"
            assert final["result"] == {"stale": False}
            assert final["attempts"] == 2
            metrics = parse_metrics(client.metrics())
            assert metrics["stfm_cluster_redeliveries_total"] == 1
            assert metrics["stfm_cluster_late_completions_total"] == 1

    def test_runner_object_executes_real_jobs(self, tmp_path):
        with running_coordinator(tmp_path) as (service, client):
            views = [client.submit(_spec(seed)) for seed in (1, 2)]
            runner = ClusterRunner(RunnerConfig(
                coordinator=f"http://127.0.0.1:{service.port}",
                runner_id="r-embedded",
                poll=0.05,
                max_jobs=2,
            ))
            assert runner.run() == 0
            for view in views:
                final = client.result(view["id"])
                assert final["status"] == "done"
                assert final["runner"] == "r-embedded"
            metrics = parse_metrics(client.metrics())
            assert (
                metrics['stfm_cluster_runner_sims_total{runner="r-embedded"}']
                == 6  # 2 jobs x (2 run-alone + 1 shared)
            )

    def test_stopping_runner_paces_its_report_retries(self, monkeypatch):
        """A stopped runner reporting to an unreachable coordinator
        still waits between attempts instead of spinning."""
        monkeypatch.setattr(runner_module, "REPORT_WINDOW", 1.0)
        runner = ClusterRunner(RunnerConfig(
            coordinator="http://127.0.0.1:1", runner_id="r-stopping",
            store=None,
        ))
        runner.request_stop()
        posts = []
        post = runner._post
        monkeypatch.setattr(
            runner, "_post", lambda *args: posts.append(args) or post(*args)
        )
        runner._report("lease-1", {"runner": "r-stopping"})
        # One attempt per 50 ms at most, the shortest pause.
        assert 1 <= len(posts) <= 21


class TestBitIdentical:
    @pytest.mark.parametrize("backend", ["fs", "sqlite"])
    def test_fig3_through_cluster_matches_single_process(
        self, tmp_path, backend
    ):
        """The acceptance criterion: a fig3 run through the cluster
        (runner mounting the coordinator's store over the HTTP proxy)
        is bit-identical to single-process execution, on every store
        backend."""
        from repro.experiments import run_experiment
        from repro.experiments.io import result_to_dict

        direct = result_to_dict(run_experiment("fig3", scale="tiny"))
        cache_dir = (
            str(tmp_path / "store")
            if backend == "fs"
            else f"sqlite:{tmp_path / 'store.sqlite'}"
        )
        spec = {"kind": "experiment", "experiment": "fig3", "scale": "tiny"}
        with running_coordinator(
            tmp_path, cache_dir=cache_dir
        ) as (service, client):
            view = client.submit(spec)
            runner = ClusterRunner(RunnerConfig(
                coordinator=f"http://127.0.0.1:{service.port}",
                runner_id="r-fig3",
                poll=0.05,
                max_jobs=1,
            ))
            assert runner.run() == 0
            final = client.result(view["id"])
            assert final["status"] == "done"
            assert final["result"]["rows"] == direct["rows"]

    def test_fig3_under_lease_sanitizer_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """The same fig3-through-cluster run with the lease sanitizer
        shadow-checking every transition: zero violations (a violation
        raises inside the coordinator and fails the run) and results
        bit-identical to the unsanitized single-process execution."""
        from repro.experiments import run_experiment
        from repro.experiments.io import result_to_dict

        direct = result_to_dict(run_experiment("fig3", scale="tiny"))
        monkeypatch.setenv("STFM_SIM_LEASE_SANITIZE", "1")
        spec = {"kind": "experiment", "experiment": "fig3", "scale": "tiny"}
        with running_coordinator(
            tmp_path, cache_dir=str(tmp_path / "store")
        ) as (service, client):
            sanitizer = service.leases.sanitizer
            assert sanitizer is not None
            view = client.submit(spec)
            runner = ClusterRunner(RunnerConfig(
                coordinator=f"http://127.0.0.1:{service.port}",
                runner_id="r-sanitized",
                poll=0.05,
                max_jobs=1,
            ))
            assert runner.run() == 0
            final = client.result(view["id"])
            assert final["status"] == "done"
            assert final["result"]["rows"] == direct["rows"]
            assert sanitizer.transitions_checked > 0
            assert sanitizer.active == {}  # every lease settled/expired
            assert sanitizer.settled  # and at least one settled cleanly


# -- held requests (long polls) ----------------------------------------------


def _lease_in_thread(url: str, body: dict) -> "tuple[threading.Thread, dict]":
    """POST a lease request from a thread; the dict gets its status,
    body and arrival time."""
    outcome: dict = {}

    def run() -> None:
        status, _, lease = ServiceClient(url).request(
            "POST", "/v1/leases", body=body
        )
        outcome.update(status=status, lease=lease, at=time.monotonic())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def _await_parked(client: ServiceClient, runner: str, timeout=30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, _, topo = client.request("GET", "/v1/cluster")
        if topo["runners"].get(runner, {}).get("parked", 0):
            return
        time.sleep(0.01)
    pytest.fail(f"{runner} never parked a lease request")


def _seed_owned_by(owner: str, runners: list) -> int:
    """A seed whose ``_spec`` the rendezvous router gives ``owner``."""
    from repro.service.api import parse_spec, spec_digest

    return next(
        seed for seed in range(1, 200)
        if _owner(spec_digest(parse_spec(_spec(seed))), runners) == owner
    )


class TestHeldRequests:
    def test_parked_lease_is_granted_at_once_on_submit(self, tmp_path):
        with running_coordinator(tmp_path) as (service, client):
            url = f"http://127.0.0.1:{service.port}"
            thread, outcome = _lease_in_thread(
                url, {"runner": "r-park", "wait": 20}
            )
            _await_parked(client, "r-park")
            view = client.submit(_spec(1))
            submitted = time.monotonic()
            thread.join(10)
            assert not thread.is_alive()
            assert outcome["status"] == 200
            assert outcome["lease"]["job_id"] == view["id"]
            assert outcome["at"] - submitted < 0.05
            client.request(
                "POST",
                f"/v1/leases/{outcome['lease']['lease_id']}/complete",
                body={"runner": "r-park", "result": {"fake": True}},
            )

    def test_parked_lease_204s_when_its_window_ends(self, tmp_path):
        with running_coordinator(tmp_path) as (service, client):
            started = time.monotonic()
            status, _, _ = client.request(
                "POST", "/v1/leases", body={"runner": "r-idle", "wait": 0.3}
            )
            elapsed = time.monotonic() - started
            assert status == 204
            assert 0.3 <= elapsed < 1.5

    def test_parked_lease_503s_at_once_on_drain(self, tmp_path):
        with running_coordinator(tmp_path) as (service, client):
            url = f"http://127.0.0.1:{service.port}"
            thread, outcome = _lease_in_thread(
                url, {"runner": "r-drain", "wait": 20}
            )
            _await_parked(client, "r-drain")
            asked = time.monotonic()
        # Leaving the block drains the coordinator.
        thread.join(10)
        assert not thread.is_alive()
        assert outcome["status"] == 503
        assert outcome["at"] - asked < 0.5

    def test_malformed_wait_is_a_400(self, tmp_path):
        with running_coordinator(tmp_path) as (_service, client):
            status, _, _ = client.request(
                "POST", "/v1/leases", body={"runner": "r-bad", "wait": "soon"}
            )
            assert status == 400

    def test_new_job_goes_to_its_parked_owner(self, tmp_path):
        """With three runners parked, the job goes to its rendezvous
        owner, even though the owner parked last."""
        runners = ["r-a", "r-b", "r-c"]
        seed = _seed_owned_by("r-c", runners)
        with running_coordinator(tmp_path) as (service, client):
            url = f"http://127.0.0.1:{service.port}"
            outcomes = {}
            threads = {}
            for runner in runners:
                threads[runner], outcomes[runner] = _lease_in_thread(
                    url, {"runner": runner, "wait": 20}
                )
                _await_parked(client, runner)
            view = client.submit(_spec(seed))
            threads["r-c"].join(10)
            assert not threads["r-c"].is_alive()
            lease = outcomes["r-c"]["lease"]
            assert lease["job_id"] == view["id"]
            client.request(
                "POST", f"/v1/leases/{lease['lease_id']}/complete",
                body={"runner": "r-c", "result": {"fake": True}},
            )
        # Leaving the block drains the coordinator: the others get 503.
        for thread in threads.values():
            thread.join(10)
            assert not thread.is_alive()
        assert {r: o["status"] for r, o in outcomes.items()} == {
            "r-a": 503, "r-b": 503, "r-c": 200,
        }

    def test_wait_returns_at_once_on_settlement(self, tmp_path):
        with running_coordinator(tmp_path) as (service, client):
            view = client.submit(_spec(1))
            _, _, lease = client.request(
                "POST", "/v1/leases", body={"runner": "r-test"}
            )
            outcome: dict = {}

            def wait() -> None:
                outcome["view"] = ServiceClient(
                    f"http://127.0.0.1:{service.port}"
                ).wait(view["id"], timeout=30)
                outcome["at"] = time.monotonic()

            thread = threading.Thread(target=wait, daemon=True)
            thread.start()
            deadline = time.monotonic() + 10
            while view["id"] not in service._settled:
                assert time.monotonic() < deadline, "wait() never held"
                time.sleep(0.01)
            client.request(
                "POST", f"/v1/leases/{lease['lease_id']}/complete",
                body={"runner": "r-test", "result": {"fake": True}},
            )
            settled = time.monotonic()
            thread.join(10)
            assert not thread.is_alive()
            assert outcome["view"]["status"] == "done"
            assert outcome["view"]["result"] == {"fake": True}
            assert outcome["at"] - settled < 0.05

    def test_wait_still_times_out_at_its_deadline(self, tmp_path):
        with running_coordinator(tmp_path) as (_service, client):
            view = client.submit(_spec(1))  # never leased
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                client.wait(view["id"], timeout=0.5)
            assert 0.5 <= time.monotonic() - started < 1.5


# -- subprocess smoke --------------------------------------------------------


class TestSubprocessCluster:
    def test_kill_dash_nine_mid_sweep_still_completes(self, tmp_path):
        """The CI smoke scenario: 1 coordinator + 2 runners, SIGKILL one
        runner holding a lease, and the sweep still completes with the
        expiry/redelivery counters showing how."""
        cluster = LocalCluster(
            runners=2,
            cache_dir=str(tmp_path / "cache"),
            state_dir=str(tmp_path / "state"),
            lease_ttl=2.0,
            poll=0.05,
        )
        with cluster:
            client = ServiceClient(cluster.url)
            views = [
                client.submit(_spec(seed, budget=20_000))
                for seed in range(1, 7)
            ]
            deadline = time.time() + 60
            while time.time() < deadline:
                _, _, topo = client.request("GET", "/v1/cluster")
                if topo["runners"].get("runner-0", {}).get(
                    "active_leases", 0
                ):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("runner-0 never acquired a lease")
            cluster.kill_runner(0)

            done = [client.wait(v["id"], timeout=180) for v in views]
            assert all(v["status"] == "done" for v in done)
            metrics = parse_metrics(client.metrics())
            assert metrics["stfm_cluster_lease_expirations_total"] >= 1
            assert metrics["stfm_cluster_redeliveries_total"] >= 1
            # At-least-once redelivery, exactly-once settlement: the
            # killed job shows attempts >= 2 and a surviving runner.
            redelivered = [v for v in done if v.get("attempts", 1) >= 2]
            assert redelivered
            assert all(v["runner"] == "runner-1" for v in redelivered)

    def test_stopping_a_parked_runner_is_prompt(self, tmp_path):
        """SIGTERM hangs up the parked lease request: the runner exits
        well inside its 30 s window, and the coordinator grants the
        gone request nothing."""
        cluster = LocalCluster(
            runners=1,
            cache_dir=str(tmp_path / "cache"),
            state_dir=str(tmp_path / "state"),
            poll=30.0,
        )
        with cluster:
            client = ServiceClient(cluster.url)
            _await_parked(client, "runner-0")
            runner = cluster.runner_procs[0]
            started = time.monotonic()
            runner.terminate()
            assert runner.wait(timeout=10) == 0
            assert time.monotonic() - started < 3.0
            _, _, topo = client.request("GET", "/v1/cluster")
            assert topo["runners"]["runner-0"]["parked"] == 0
            view = client.submit(_spec(1))
            assert client.job(view["id"])["status"] == "queued"

    def test_job_after_a_parked_runner_dies_goes_to_a_live_one(
        self, tmp_path
    ):
        """``kill -9`` on a parked runner strands nothing: a job it
        owns, submitted after the kill, runs on the survivor at once,
        long before the 30 s lease TTL could expire anything."""
        cluster = LocalCluster(
            runners=2,
            cache_dir=str(tmp_path / "cache"),
            state_dir=str(tmp_path / "state"),
            lease_ttl=30.0,
            poll=30.0,
        )
        with cluster:
            client = ServiceClient(cluster.url)
            for index in range(2):
                _await_parked(client, f"runner-{index}")
            cluster.kill_runner(0)
            seed = _seed_owned_by("runner-0", ["runner-0", "runner-1"])
            done = client.wait(client.submit(_spec(seed))["id"], timeout=20)
            assert done["status"] == "done"
            assert done["runner"] == "runner-1"
            assert done["attempts"] == 1
            metrics = parse_metrics(client.metrics())
            assert metrics["stfm_cluster_lease_expirations_total"] == 0

    def test_submit_storm_three_runners_zero_duplicate_sims(self, tmp_path):
        """Saturating storm onto a 3-runner cluster: every job lands,
        and /metrics proves no sub-job was simulated twice (zero
        duplicate puts into the shared store) even with coalesced
        duplicate submissions in the mix."""
        cluster = LocalCluster(
            runners=3,
            cache_dir=str(tmp_path / "cache"),
            state_dir=str(tmp_path / "state"),
            lease_ttl=10.0,
            queue_limit=6,  # smaller than the storm: 429s + retries
            poll=0.05,
        )
        with cluster:
            client = ServiceClient(cluster.url, retries=8, backoff=0.1)
            views = []
            for seed in range(1, 10):
                views.append(client.submit(_spec(seed)))
                views.append(client.submit(_spec(seed)))  # dup: coalesces
            done = [client.wait(v["id"], timeout=180) for v in views]
            assert all(v["status"] == "done" for v in done)
            assert len({v["id"] for v in done}) == 9

            metrics = parse_metrics(client.metrics())
            assert metrics["stfm_store_proxy_duplicate_puts_total"] == 0
            sims = sum(
                value
                for name, value in metrics.items()
                if name.startswith("stfm_cluster_runner_sims_total")
            )
            # 9 distinct jobs x (2 run-alone + 1 shared) sub-jobs, each
            # simulated exactly once across the whole cluster.
            assert sims == 27
            granted = [
                name
                for name in metrics
                if name.startswith("stfm_cluster_leases_granted_total")
            ]
            assert len(granted) >= 2  # the storm actually spread out
