"""Store-backend conformance suite (repro.engine.backends).

Every backend — local FS, SQLite, and the coordinator's HTTP store
proxy — must behave identically under the :class:`CacheStore` policy
layer: round-trip integrity, checksum corruption quarantined on read,
safe concurrent writers, best-effort puts that never raise, and a
uniform ``stats()``/``prune()`` schema (which is what lets
``stfm-sim cache`` report the same shape everywhere).

The HTTP backend runs against a *real* :class:`ClusterCoordinator`
on a loopback port, proxying onto an FS store — the same wiring a
cluster runner uses.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time

import pytest

from repro import faults
from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.engine.backends import (
    FsBackend,
    HttpStoreBackend,
    SqliteBackend,
    StoreBackend,
    create_backend,
)
from repro.engine.store import CacheStore, payload_checksum

BACKENDS = ("fs", "sqlite", "http")


@contextlib.contextmanager
def _coordinator(tmp_path):
    """A live coordinator (FS-backed store) on a loopback port."""
    service = ClusterCoordinator(CoordinatorConfig(
        host="127.0.0.1",
        port=0,
        cache_dir=str(tmp_path / "proxy-root"),
        state_dir=str(tmp_path / "coordinator-state"),
        lease_ttl=30.0,
    ))
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(service.start(), loop).result(30)
        yield f"http://127.0.0.1:{service.port}"
    finally:
        asyncio.run_coroutine_threadsafe(
            service.drain_and_stop(), loop
        ).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


@pytest.fixture(params=BACKENDS)
def location(request, tmp_path):
    """A backend location string of each flavor."""
    if request.param == "fs":
        yield str(tmp_path / "store")
    elif request.param == "sqlite":
        yield f"sqlite:{tmp_path / 'store.sqlite'}"
    else:
        with _coordinator(tmp_path) as url:
            yield url


def _payload(tag: str) -> dict:
    return {"rows": [[tag, 1.5, 2.25]], "meta": {"tag": tag}}


class TestCreateBackend:
    def test_dispatch_by_location(self, tmp_path):
        assert isinstance(create_backend(str(tmp_path / "d")), FsBackend)
        assert isinstance(
            create_backend(f"sqlite:{tmp_path / 'x.db'}"), SqliteBackend
        )
        assert isinstance(
            create_backend(str(tmp_path / "x.sqlite")), SqliteBackend
        )
        from repro.engine.backends import HttpStoreBackend

        assert isinstance(
            create_backend("http://127.0.0.1:1"), HttpStoreBackend
        )

    def test_backend_instance_passthrough(self, tmp_path):
        backend = FsBackend(tmp_path / "d")
        assert create_backend(backend) is backend
        store = CacheStore(backend)
        assert store.backend is backend


class TestFsBackend:
    def test_interrupted_write_leftover_is_not_an_entry(self, tmp_path):
        # A writer killed between close and rename leaves a complete
        # dot-prefixed temporary file next to the entries.
        backend = FsBackend(tmp_path / "store")
        key = "ab" + "c" * 62
        backend.write(key, b"{}")
        (backend.path(key).parent / ".tmp-k9xyz.json").write_bytes(b"{}")
        assert backend.count() == 1
        assert backend.stats().entries == 1


class TestConformance:
    def test_round_trip_and_counters(self, location):
        store = CacheStore(location)
        try:
            assert store.get("k" * 64) is None
            assert store.misses == 1
            assert store.put("k" * 64, _payload("a"), "job-a")
            got = store.get("k" * 64)
            assert got == _payload("a")
            assert store.hits == 1
            assert "k" * 64 in store
        finally:
            store.close()
        # A fresh store over the same location sees the entry (durable).
        fresh = CacheStore(location)
        try:
            assert fresh.get("k" * 64) == _payload("a")
        finally:
            fresh.close()

    def test_checksum_corruption_is_quarantined(self, location):
        store = CacheStore(location)
        try:
            key = "c" * 64
            entry = {
                "kind": "job",
                "describe": "tampered",
                "sha256": "0" * 64,  # wrong on purpose
                "payload": _payload("tampered"),
            }
            store.backend.write(key, json.dumps(entry).encode())
            assert store.get(key) is None
            assert store.quarantined == 1
            # The entry is gone from the live store, not silently kept.
            assert store.get(key) is None
            assert store.quarantined == 1  # second read is a plain miss
        finally:
            store.close()

    def test_undecodable_blob_is_quarantined(self, location):
        store = CacheStore(location)
        try:
            key = "d" * 64
            store.backend.write(key, b"\x00not json at all")
            assert store.get(key) is None
            assert store.quarantined == 1
        finally:
            store.close()

    def test_concurrent_writers_land_every_entry(self, location):
        store = CacheStore(location)
        try:
            keys = [f"{index:02d}" + "e" * 62 for index in range(8)]
            errors: list[Exception] = []

            def write(key: str) -> None:
                try:
                    for _ in range(5):  # repeated same-key writes race too
                        assert store.put(key, _payload(key[:2]),
                                         f"job-{key[:2]}")
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=write, args=(key,)) for key in keys
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not errors
            for key in keys:
                assert store.get(key) == _payload(key[:2])
            assert store.stats().entries == len(keys)
        finally:
            store.close()

    def test_put_is_best_effort_on_write_error(self, location, monkeypatch):
        store = CacheStore(location)
        try:
            def explode(key, blob):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(store.backend, "write", explode)
            assert store.put("f" * 64, _payload("f"), "job-f") is False
            assert store.put_errors == 1  # counted, never raised
        finally:
            store.close()

    def test_stats_and_prune_schema_is_uniform(self, location):
        store = CacheStore(location)
        try:
            for index in range(3):
                store.put(f"{index}" + "a" * 63, _payload(str(index)),
                          f"job-{index}")
            stats = store.stats()
            assert stats.entries == 3
            assert stats.total_bytes > 0
            assert len(store) == 3
            removed = store.prune()
            assert removed.entries == 3
            assert removed.total_bytes > 0
            assert store.stats().entries == 0
            assert store.get("0" + "a" * 63) is None
        finally:
            store.close()

    def test_checksum_helper_matches_store(self, location):
        payload = _payload("x")
        store = CacheStore(location)
        try:
            store.put("b" * 64, payload, "job-b")
            raw = store.backend.read("b" * 64)
            entry = json.loads(raw.decode())
            assert entry["sha256"] == payload_checksum(payload)
        finally:
            store.close()


class TestCacheCliSchema:
    def test_cache_report_identical_schema_across_backends(
        self, location, capsys
    ):
        """`stfm-sim cache --json` must emit the same keys everywhere."""
        from repro.cli import main

        store = CacheStore(location)
        try:
            store.put("9" * 64, _payload("9"), "job-9")
        finally:
            store.close()
        assert main(["cache", "--store", location, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"location", "backend", "entries",
                               "total_bytes"}
        assert report["entries"] == 1
        assert report["backend"] in ("fs", "sqlite", "http")

        assert main(["cache", "--store", location, "--json",
                     "--prune"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"location", "backend", "entries",
                               "total_bytes", "pruned_entries",
                               "pruned_bytes"}
        assert report["pruned_entries"] == 1


class TestNetworkFaultConformance:
    """The conformance contract must survive injected network faults.

    On every backend, a wire-level fault may only degrade an operation
    — a torn read quarantines like on-disk corruption, an unreachable
    proxy turns reads into clean cold-cache misses and buffers writes,
    a reset-after-send settles through a conditional PUT — it must
    never raise out of the store, and never duplicate an upload.  The
    FS and SQLite backends have no wire, so the same schedule is a
    no-op for them: the assertions split on backend flavor.
    """

    def _seed(self, location, key, tag):
        """One fault-free write so the entry really is in the store."""
        store = CacheStore(location)
        try:
            assert store.put(key, _payload(tag), f"job-{tag}")
        finally:
            store.close()

    def test_truncated_get_quarantines_like_corruption(
        self, location, monkeypatch
    ):
        key = "a" * 64
        self._seed(location, key, "t")
        monkeypatch.setenv(faults.FAULTS_ENV, "truncate=1.0")
        fresh = CacheStore(location)
        try:
            got = fresh.get(key)
            if location.startswith("http"):
                # Torn body -> checksum mismatch -> quarantined miss.
                assert got is None
                assert fresh.quarantined == 1
                # The entry was quarantined remotely: a plain miss now.
                assert fresh.get(key) is None
                assert fresh.quarantined == 1
            else:
                assert got == _payload("t")  # no wire, no truncation
        finally:
            fresh.close()

    def test_reset_mid_put_settles_without_duplicates(
        self, location, monkeypatch
    ):
        monkeypatch.setenv(faults.FAULTS_ENV, "reset=1.0")
        key = "b" * 64
        store = CacheStore(location)
        try:
            # The doomed send reaches the proxy, the response is lost,
            # and the conditional retry settles with a 412 — the put
            # still reports success on every backend.
            assert store.put(key, _payload("r"), "job-r")
        finally:
            store.close()
        monkeypatch.delenv(faults.FAULTS_ENV)
        fresh = CacheStore(location)
        try:
            assert fresh.get(key) == _payload("r")
            assert fresh.stats().entries == 1
        finally:
            fresh.close()
        if location.startswith("http"):
            # Re-uploading an existing blob is a conditional-put skip,
            # never a duplicate upload.
            probe = HttpStoreBackend(location)
            blob = probe.read(key)
            assert blob is not None
            probe.write(key, blob)
            assert probe.conditional_skips == 1

    def test_latency_past_timeout_degrades_to_cold_cache(
        self, location, monkeypatch
    ):
        key = "c" * 64
        buffered = "d" * 64
        self._seed(location, key, "l")
        monkeypatch.setenv(faults.FAULTS_ENV, "latency=1.0")
        fresh = CacheStore(location)
        try:
            got = fresh.get(key)
            if not location.startswith("http"):
                assert got == _payload("l")  # no wire, no latency
                return
            # Partitioned: the local cache is cold, so the read is a
            # clean miss (the caller just re-simulates) — no exception.
            assert got is None
            assert fresh.misses == 1
            assert fresh.backend.degraded is True
            # Writes buffer instead of failing...
            assert fresh.put(buffered, _payload("d"), "job-d")
            # ...and stay readable through the degraded local cache.
            assert fresh.backend.read(buffered) is not None
            # Heal the network: the half-open probe recovers the wire
            # and flushes the buffered write (conditionally).
            monkeypatch.delenv(faults.FAULTS_ENV)
            time.sleep(0.3)  # past the probe cooldown
            assert fresh.backend.read(key) is not None
            assert fresh.backend.degraded is False
            assert fresh.backend.flushed >= 1
        finally:
            fresh.close()
        check = CacheStore(location)
        try:
            assert check.get(buffered) == _payload("d")
        finally:
            check.close()


class TestBackendContract:
    def test_every_backend_honors_the_abc(self, location):
        backend = create_backend(location)
        assert isinstance(backend, StoreBackend)
        assert backend.read("absent" + "0" * 58) is None
        backend.quarantine("absent" + "0" * 58)  # best-effort, no raise
        assert backend.contains("absent" + "0" * 58) is False
        assert backend.count() == 0
        backend.close()
