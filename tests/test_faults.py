"""Tests for repro.faults and the hardening it exercises.

Covers the deterministic fault plan itself (parsing, replay-exact
decisions, env activation), the engine under injected crashes / hangs /
timeouts (backoff, SIGTERM→SIGKILL reaping, serial degradation,
clean-room fallback), the store's checksum + quarantine + best-effort
writes, the service watchdog and worker-fault containment, the client's
bounded retries, and the headline acceptance criterion: a fig3 sweep
under ``crash=0.2,hang=0.05,corrupt=0.1 seed=7`` completes bit-identical
to the fault-free run, with a replayed run reproducing the identical
fault counters.
"""

from __future__ import annotations

import json
import signal
import tempfile
import time
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro import faults
from repro.engine import (
    EngineOptions,
    JobExecutor,
    JobFailedError,
    ResultStore,
    engine_options,
    register_job_kind,
    session_report,
)
from repro.engine.store import QUARANTINE_DIR, payload_checksum
from repro.experiments import run_experiment
from repro.experiments.base import resolve_scale

from tests.test_service import FAST_WORKLOAD, running_service


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    """No real cache dir, no leftover fault plan from the environment."""
    monkeypatch.setenv("STFM_SIM_CACHE_DIR", str(tmp_path / "default-store"))
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)


@dataclass(frozen=True)
class ChaosJob:
    """A trivially-fast job for exercising injection paths (tests only)."""

    name: str
    sleep: float = 0.0
    ignore_sigterm: bool = False

    kind: ClassVar[str] = "chaos-test"

    def cache_key(self) -> str:
        return f"chaos-{self.name}-{self.sleep:g}-{self.ignore_sigterm}"

    def describe(self) -> str:
        return f"chaos {self.name}"


def _run_chaos(job: ChaosJob) -> dict:
    if job.ignore_sigterm:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    if job.sleep:
        time.sleep(job.sleep)
    return {"name": job.name, "value": len(job.name)}


register_job_kind(ChaosJob.kind, _run_chaos)


# -- the fault plan ----------------------------------------------------------


class TestFaultPlan:
    def test_parse_rates_and_seed(self):
        plan = faults.parse_faults("crash=0.2,hang=0.05 corrupt=0.1 seed=7")
        assert plan.rates == {"crash": 0.2, "hang": 0.05, "corrupt": 0.1}
        assert plan.seed == 7
        assert plan.describe() == "crash=0.2 hang=0.05 corrupt=0.1 seed=7"

    @pytest.mark.parametrize(
        "spec",
        ["bogus=0.5", "crash=2", "crash=-0.1", "crash", "crash=x",
         "seed=x", "", "seed=3"],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_faults(spec)

    def test_decisions_are_pure_and_replayable(self):
        first = faults.parse_faults("crash=0.5 seed=7")
        second = faults.parse_faults("crash=0.5 seed=7")
        keys = [f"job-{i}:1" for i in range(200)]
        seq_a = [first.fires("crash", key) for key in keys]
        seq_b = [second.fires("crash", key) for key in keys]
        assert seq_a == seq_b
        assert first.log == second.log
        assert True in seq_a and False in seq_a  # rate 0.5 hits both
        # A different seed makes different decisions somewhere.
        other = faults.parse_faults("crash=0.5 seed=8")
        assert seq_a != [other.fires("crash", key) for key in keys]

    def test_rate_extremes_and_counters(self):
        plan = faults.FaultPlan({"crash": 1.0, "corrupt": 0.0})
        assert all(plan.fires("crash", f"k{i}") for i in range(10))
        assert not any(plan.fires("corrupt", f"k{i}") for i in range(10))
        assert plan.fires("hang", "k") is False  # unconfigured site
        assert plan.counters == {"crash": 10}
        assert plan.total_fired() == 10

    def test_env_activation_and_module_hooks(self, monkeypatch):
        assert faults.active_plan() is None
        assert faults.fires("crash", "k") is False
        assert faults.injected_total() == 0
        monkeypatch.setenv(faults.FAULTS_ENV, "crash=1.0")
        plan = faults.active_plan()
        assert plan is not None and plan.rates == {"crash": 1.0}
        assert faults.fires("crash", "k") is True
        assert faults.injected_total() == 1
        # Same env string → same plan object (counters persist) ...
        assert faults.active_plan() is plan
        # ... while changing the string swaps in a fresh plan.
        monkeypatch.setenv(faults.FAULTS_ENV, "crash=1.0 seed=1")
        assert faults.active_plan() is not plan
        assert faults.injected_total() == 0

    def test_install_validates_before_exporting(self, monkeypatch):
        with pytest.raises(faults.FaultSpecError):
            faults.install("bogus=1")
        assert faults.active_plan() is None
        # Pre-seed via monkeypatch so install's direct env write is
        # rolled back after the test.
        monkeypatch.setenv(faults.FAULTS_ENV, "write=0.0")
        plan = faults.install("write=1.0 seed=3")
        assert plan.rates == {"write": 1.0} and plan.seed == 3
        assert faults.active_plan() is plan


# -- engine hardening --------------------------------------------------------


class TestEngineUnderInjection:
    def test_injected_crashes_end_in_clean_room_fallback(self, monkeypatch):
        # Every attempt crashes (rate 1.0), so the retry budget burns
        # out and the final injection-free attempt completes the job.
        monkeypatch.setenv(faults.FAULTS_ENV, "crash=1.0")
        executor = JobExecutor(jobs=2, retries=1, backoff=0.01)
        payloads = executor.run([ChaosJob("crashy")])
        assert payloads[ChaosJob("crashy").cache_key()]["name"] == "crashy"
        assert executor.report.retries == 1
        assert executor.report.fallbacks == 1
        assert executor.report.jobs_failed == 0

    def test_injected_hang_is_cut_by_the_job_timeout(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "hang=1.0")
        executor = JobExecutor(jobs=2, retries=0, timeout=0.5, backoff=0.01)
        payloads = executor.run([ChaosJob("sleepy")])
        assert payloads[ChaosJob("sleepy").cache_key()]["name"] == "sleepy"
        assert executor.report.fallbacks == 1

    def test_injected_timeout_declares_a_healthy_worker_dead(
        self, monkeypatch
    ):
        monkeypatch.setenv(faults.FAULTS_ENV, "timeout=1.0")
        executor = JobExecutor(jobs=2, retries=0, backoff=0.01)
        payloads = executor.run([ChaosJob("framed")])
        assert payloads[ChaosJob("framed").cache_key()]["name"] == "framed"
        assert executor.report.fallbacks == 1

    def test_real_crashers_still_fail_under_injection(self, monkeypatch):
        # The clean-room fallback must not mask deterministic crashes:
        # a job that ignores injection and burns the fallback too is
        # still a permanent failure.
        monkeypatch.setenv(faults.FAULTS_ENV, "timeout=1.0")
        executor = JobExecutor(
            jobs=2, retries=0, timeout=0.4, backoff=0.01
        )
        job = ChaosJob("wedged", sleep=30.0)
        with pytest.raises(JobFailedError, match="timed out"):
            executor.run([job])
        assert executor.report.fallbacks == 1
        assert executor.report.jobs_failed == 1

    def test_reap_escalates_to_sigkill(self, monkeypatch):
        # A worker that ignores SIGTERM used to hang _reap forever on
        # proc.join(); now the bounded join escalates to kill().
        monkeypatch.setattr("repro.engine.executor._REAP_GRACE", 0.5)
        executor = JobExecutor(jobs=2, retries=0, timeout=0.3)
        job = ChaosJob("stubborn", sleep=60.0, ignore_sigterm=True)
        started = time.perf_counter()
        with pytest.raises(JobFailedError, match="timed out"):
            executor.run([job])
        assert time.perf_counter() - started < 20.0

    def test_spawn_failure_degrades_to_serial(self, monkeypatch):
        def broken_spawn(self, ctx, job, attempt=1, inject=True):
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(JobExecutor, "_spawn", broken_spawn)
        executor = JobExecutor(jobs=2)
        jobs = [ChaosJob("a"), ChaosJob("b")]
        payloads = executor.run(jobs)
        assert {p["name"] for p in payloads.values()} == {"a", "b"}
        assert executor.report.jobs_run == 2
        assert executor.report.jobs_failed == 0

    def test_backoff_delay_is_deterministic(self):
        executor = JobExecutor(jobs=2, backoff=0.1, backoff_cap=1.0)
        first = executor._backed_off("key", None, 3)
        second = executor._backed_off("key", None, 3)
        delay_a = first.not_before - time.perf_counter()
        delay_b = second.not_before - time.perf_counter()
        assert abs(delay_a - delay_b) < 0.05
        # attempt 3 → base 0.1 * 2^2 = 0.4, jittered by ±15% into
        # [0.34, 0.46]; a little of it has elapsed by the time it is read.
        assert 0.3 < delay_a < 0.47


# -- store hardening ---------------------------------------------------------


class TestStoreIntegrity:
    KEY = "abc123feed"
    PAYLOAD = {"rows": [[1, 2.5], [3, 4.0]], "policy": "stfm"}

    def _store(self, tmp_path) -> ResultStore:
        store = ResultStore(tmp_path / "store")
        assert store.put(self.KEY, self.PAYLOAD, describe="t", kind="k")
        return store

    def test_checksum_roundtrip(self, tmp_path):
        store = self._store(tmp_path)
        assert store.get(self.KEY) == self.PAYLOAD
        entry = json.loads(store._path(self.KEY).read_text())
        assert entry["sha256"] == payload_checksum(self.PAYLOAD)

    @pytest.mark.parametrize(
        "label,corruptor",
        [
            ("truncated", lambda e: json.dumps(e)[: len(json.dumps(e)) // 2]),
            ("bad-checksum", lambda e: json.dumps({**e, "sha256": "0" * 64})),
            ("missing-payload",
             lambda e: json.dumps({k: v for k, v in e.items()
                                   if k != "payload"})),
        ],
    )
    def test_corrupt_entry_is_quarantined_miss(
        self, tmp_path, label, corruptor
    ):
        store = self._store(tmp_path)
        path = store._path(self.KEY)
        path.write_text(corruptor(json.loads(path.read_text())))
        assert store.get(self.KEY) is None
        assert store.quarantined == 1
        assert not path.exists()
        assert (store.root / QUARANTINE_DIR / path.name).exists()
        # Quarantined evidence is invisible to size accounting.
        assert len(store) == 0
        assert store.stats().entries == 0

    def test_legacy_entry_without_checksum_still_hits(self, tmp_path):
        store = self._store(tmp_path)
        path = store._path(self.KEY)
        entry = json.loads(path.read_text())
        del entry["sha256"]
        path.write_text(json.dumps(entry))
        assert store.get(self.KEY) == self.PAYLOAD

    def test_corrupt_entry_resimulates_identically(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        job = ChaosJob("victim")
        baseline = JobExecutor(jobs=1, store=store).run([job])
        path = store._path(job.cache_key())
        path.write_text("not json{")
        again = JobExecutor(jobs=1, store=store).run([job])
        assert again == baseline
        assert store.quarantined == 1
        assert store.get(job.cache_key()) == baseline[job.cache_key()]

    def test_injected_read_corruption(self, tmp_path, monkeypatch):
        store = self._store(tmp_path)
        monkeypatch.setenv(faults.FAULTS_ENV, "corrupt=1.0")
        assert store.get(self.KEY) is None
        assert store.quarantined == 1

    def test_injected_write_failure_is_best_effort(
        self, tmp_path, monkeypatch
    ):
        # Satellite regression: a failed put must not fail the batch
        # after the simulation already succeeded.
        monkeypatch.setenv(faults.FAULTS_ENV, "write=1.0")
        store = ResultStore(tmp_path / "store")
        executor = JobExecutor(jobs=1, store=store)
        payloads = executor.run([ChaosJob("unsaved")])
        assert payloads[ChaosJob("unsaved").cache_key()]["name"] == "unsaved"
        assert store.put_errors == 1
        assert len(store) == 0

    def test_readonly_cache_dir_is_best_effort(self, tmp_path, monkeypatch):
        # Simulated read-only directory (chmod is unreliable as root):
        # the tmp-file creation raises EROFS.
        store = ResultStore(tmp_path / "store")

        def readonly_mkstemp(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(tempfile, "mkstemp", readonly_mkstemp)
        assert store.put(self.KEY, self.PAYLOAD) is False
        assert store.put_errors == 1
        assert store.get(self.KEY) is None


# -- service + client hardening ----------------------------------------------


LONG_WORKLOAD = dict(FAST_WORKLOAD, budget=60_000)


class TestServiceUnderInjection:
    def test_watchdog_fails_hung_jobs_and_pool_survives(self, tmp_path):
        # Two workers: the abandoned thread of the hung job keeps one
        # busy until the engine finishes underneath, the other picks up
        # new work immediately.
        with running_service(tmp_path, job_timeout=0.4, workers=2) as (
            service, client,
        ):
            hung = client.wait(client.submit(LONG_WORKLOAD)["id"], timeout=60)
            assert hung["status"] == "failed"
            assert "watchdog" in hung["error"]
            assert service.watchdog_timeouts == 1
            # The worker slot is free again: a fast job still completes.
            ok = client.wait(client.submit(FAST_WORKLOAD)["id"], timeout=60)
            assert ok["status"] == "done"
            metrics = client.metrics()
            assert "stfm_service_watchdog_timeouts_total 1" in metrics

    def test_injected_worker_fault_marks_failed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "service=1.0")
        with running_service(tmp_path) as (_service, client):
            view = client.wait(client.submit(FAST_WORKLOAD)["id"], timeout=60)
            assert view["status"] == "failed"
            assert "injected service worker fault" in view["error"]
            metrics = client.metrics()
            assert "stfm_faults_injected_total" in metrics

    def test_client_drop_retries_are_bounded(self, monkeypatch):
        from repro.service.client import ServiceClient

        monkeypatch.setenv(faults.FAULTS_ENV, "drop=1.0")
        client = ServiceClient(
            "http://127.0.0.1:1", retries=2, backoff=0.01
        )
        with pytest.raises(ConnectionError, match="injected"):
            client.request("GET", "/healthz")
        assert faults.injected_total() == 3  # retries + 1 attempts

    def test_client_drop_recovers_within_budget(self, tmp_path, monkeypatch):
        # drop=0.5 seed=4 drops the first two attempts of each call and
        # lets the third through: the retry budget absorbs the faults
        # and every call below still succeeds end to end.
        with running_service(tmp_path, workers=0) as (_service, client):
            client.retries, client.backoff = 3, 0.01
            monkeypatch.setenv(faults.FAULTS_ENV, "drop=0.5,seed=4")
            for _ in range(5):
                assert client.health()["status"] == "ok"
            assert faults.injected_total() > 0

    def test_429_honors_retry_after(self, monkeypatch):
        from repro.service import client as client_module

        client = client_module.ServiceClient(retries=2)
        responses = [
            (429, {"retry-after": "3"}, {"error": "full"}),
            (429, {"retry-after": "2"}, {"error": "full"}),
            (202, {}, {"id": "j-1", "status": "queued"}),
        ]
        monkeypatch.setattr(
            client, "_request_once",
            lambda method, path, body=None, headers=None: responses.pop(0),
        )
        sleeps: list[float] = []
        monkeypatch.setattr(
            client_module.time, "sleep", lambda s: sleeps.append(s)
        )
        view = client.submit({"kind": "experiment", "experiment": "fig3"})
        assert view["id"] == "j-1"
        assert sleeps == [3.0, 2.0]

    def test_429_http_date_retry_after_falls_back_to_one_second(
        self, monkeypatch
    ):
        # RFC 9110 allows an HTTP-date in Retry-After; the client waits
        # its 1 s default instead of crashing on int().
        from repro.service import client as client_module
        from repro.service.client import BackpressureError

        client = client_module.ServiceClient(retries=1)
        http_date = {"retry-after": "Wed, 21 Oct 2015 07:28:00 GMT"}
        responses = [
            (429, http_date, {"error": "full"}),
            (202, {}, {"id": "j-1", "status": "queued"}),
            (429, http_date, {"error": "full"}),
            (429, http_date, {"error": "full"}),
        ]
        monkeypatch.setattr(
            client, "_request_once",
            lambda method, path, body=None, headers=None: responses.pop(0),
        )
        sleeps: list[float] = []
        monkeypatch.setattr(
            client_module.time, "sleep", lambda s: sleeps.append(s)
        )
        view = client.submit({"kind": "experiment", "experiment": "fig3"})
        assert view["id"] == "j-1"
        assert sleeps == [1.0]
        with pytest.raises(BackpressureError) as raised:
            client.submit({"kind": "experiment", "experiment": "fig3"})
        assert raised.value.retry_after == 1

    def test_429_still_raises_when_budget_burns_out(self, monkeypatch):
        from repro.service import client as client_module
        from repro.service.client import BackpressureError

        client = client_module.ServiceClient(retries=1)
        monkeypatch.setattr(
            client, "_request_once",
            lambda method, path, body=None, headers=None: (
                429, {"retry-after": "1"}, {"error": "full"}
            ),
        )
        monkeypatch.setattr(client_module.time, "sleep", lambda s: None)
        with pytest.raises(BackpressureError):
            client.submit({"kind": "experiment", "experiment": "fig3"})


# -- the headline invariant --------------------------------------------------


CHAOS_SPEC = "crash=0.2,hang=0.05,corrupt=0.1,seed=7"


class TestChaosEndToEnd:
    def test_fig3_chaos_run_is_bit_identical_and_replays(
        self, tmp_path, monkeypatch
    ):
        """The PR's acceptance criterion."""
        scale = resolve_scale("tiny")
        with engine_options(
            EngineOptions(jobs=1, cache_dir=str(tmp_path / "clean"))
        ):
            clean = run_experiment("fig3", scale=scale)

        chaos_store = ResultStore(tmp_path / "chaos")
        chaos_opts = EngineOptions(
            jobs=2, store=chaos_store, timeout=2.0, retries=1
        )
        monkeypatch.setenv(faults.FAULTS_ENV, CHAOS_SPEC)
        before = session_report().snapshot()
        with engine_options(chaos_opts):
            chaos = run_experiment("fig3", scale=scale)
        first = session_report().since(before)

        # Bit-identical despite injected crashes/hangs, with the retry
        # machinery demonstrably exercised.
        assert chaos.rows == clean.rows
        assert first.retries + first.fallbacks > 0
        assert first.jobs_failed == 0

        # Replay: an equivalent spec (fresh plan, same seed) reproduces
        # the identical fault-driven retry/fallback counts.
        monkeypatch.setenv(faults.FAULTS_ENV, CHAOS_SPEC + " ")
        replay_store = ResultStore(tmp_path / "replay")
        before = session_report().snapshot()
        with engine_options(
            EngineOptions(jobs=2, store=replay_store, timeout=2.0, retries=1)
        ):
            replayed = run_experiment("fig3", scale=scale)
        second = session_report().since(before)
        assert replayed.rows == clean.rows
        assert (second.retries, second.fallbacks) == (
            first.retries, first.fallbacks
        )

        # A warm rerun consults the store: injected read corruption
        # quarantines entries, re-simulates them, and the results are
        # still bit-identical.
        monkeypatch.setenv(faults.FAULTS_ENV, CHAOS_SPEC)
        with engine_options(chaos_opts):
            warm = run_experiment("fig3", scale=scale)
        assert warm.rows == clean.rows
        assert chaos_store.quarantined > 0
