"""Local dev cluster: one coordinator + N runners as subprocesses.

``stfm-sim cluster --runners 3`` stands up a complete cluster on one
machine for development, benchmarks, and the CI smoke test.  Each role
runs as a real OS process (``python -m repro.cli coordinator`` /
``runner``) — so ``kill -9`` on a runner exercises the same lease
expiry and redelivery machinery a production deployment would rely on.

:class:`LocalCluster` is the programmatic face (a context manager the
tests and the bench suite drive); :func:`run_local_cluster` wraps it
for the CLI, forwarding SIGTERM/SIGINT to the children.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import urllib.parse
from pathlib import Path

_URL_RE = re.compile(r"listening on (http://[\w.:-]+)")


def _child_env() -> dict:
    """The subprocess environment, with ``repro`` importable."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


class LocalCluster:
    """A 1-coordinator + N-runner cluster of subprocesses.

    Args:
        runners: How many runner processes to spawn.
        cache_dir: Shared store location for the coordinator (any
            backend: directory, ``sqlite:`` path, URL); None disables.
        state_dir: Coordinator state directory (jobs + leases).
        lease_ttl: Seconds a lease survives without a heartbeat — short
            TTLs make the kill-recovery tests fast.
        engine_jobs: Simulation processes per runner job.
        queue_limit: Coordinator admission-queue capacity.
        runner_store: Store location for runners; the default
            ``"proxy"`` mounts the coordinator's store over HTTP.
        poll: Each runner's lease hold window, seconds (``--poll``).
        extra_env: Extra environment variables for every child (fault
            injection, etc.).
    """

    def __init__(
        self,
        runners: int = 2,
        cache_dir: "str | None" = None,
        state_dir: str = "stfm-coordinator-state",
        lease_ttl: float = 15.0,
        engine_jobs: int = 1,
        queue_limit: int = 32,
        host: str = "127.0.0.1",
        port: int = 0,
        runner_store: str = "proxy",
        poll: float = 0.2,
        capacity: int = 1,
        extra_env: "dict | None" = None,
    ) -> None:
        self.runners = runners
        self.cache_dir = cache_dir
        self.state_dir = state_dir
        self.lease_ttl = lease_ttl
        self.engine_jobs = engine_jobs
        self.queue_limit = queue_limit
        self.host = host
        self.port = port
        self.runner_store = runner_store
        self.poll = poll
        self.capacity = capacity
        self.extra_env = extra_env or {}
        self.url: "str | None" = None
        self.coordinator_proc: "subprocess.Popen | None" = None
        self.runner_procs: list[subprocess.Popen] = []

    # -- lifecycle -----------------------------------------------------------
    def _coordinator_cmd(self, port: int) -> list[str]:
        cmd = [
            sys.executable, "-m", "repro.cli", "coordinator",
            "--host", self.host, "--port", str(port),
            "--state-dir", self.state_dir,
            "--lease-ttl", str(self.lease_ttl),
            "--queue-limit", str(self.queue_limit),
        ]
        if self.cache_dir:
            cmd += ["--cache-dir", str(self.cache_dir)]
        return cmd

    def start(self, timeout: float = 30.0) -> str:
        """Spawn everything; returns the coordinator URL."""
        env = _child_env()
        env.update({k: str(v) for k, v in self.extra_env.items()})
        self.coordinator_proc = subprocess.Popen(
            self._coordinator_cmd(self.port),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        )
        self.url = self._await_url(self.coordinator_proc, timeout)
        for index in range(self.runners):
            self.runner_procs.append(self.spawn_runner(index, env=env))
        return self.url

    def spawn_runner(
        self, index: int, env: "dict | None" = None
    ) -> subprocess.Popen:
        """Start one runner process (also used to replace a killed one)."""
        if self.url is None:
            raise RuntimeError("cluster is not started")
        if env is None:
            env = _child_env()
            env.update({k: str(v) for k, v in self.extra_env.items()})
        cmd = [
            sys.executable, "-m", "repro.cli", "runner",
            "--coordinator", self.url,
            "--id", f"runner-{index}",
            "--store", self.runner_store,
            "--engine-jobs", str(self.engine_jobs),
            "--poll", str(self.poll),
            "--capacity", str(self.capacity),
        ]
        return subprocess.Popen(
            cmd,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )

    def kill_runner(self, index: int) -> int:
        """``kill -9`` one runner (the redelivery test); returns its pid."""
        proc = self.runner_procs[index]
        proc.kill()  # SIGKILL: no drain, no goodbye — leases must expire
        proc.wait(timeout=10)
        return proc.pid

    def kill_coordinator(self) -> int:
        """``kill -9`` the coordinator mid-sweep (the crash-resume
        test); returns its pid.  The bound port and ``self.url`` are
        kept so :meth:`restart_coordinator` can resurrect it in place
        while the runners keep probing the same address."""
        proc = self.coordinator_proc
        if proc is None:
            raise RuntimeError("cluster has no coordinator to kill")
        proc.kill()  # SIGKILL: no drain, no checkpoint flush, nothing
        proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()
        self.coordinator_proc = None
        return proc.pid

    def restart_coordinator(self, timeout: float = 30.0) -> str:
        """Restart the coordinator on the *same* host:port with the
        same state directory — the durable-checkpoint recovery path.
        Returns the (unchanged) coordinator URL."""
        if self.url is None:
            raise RuntimeError("cluster is not started")
        if self.coordinator_proc is not None:
            raise RuntimeError("coordinator is still running")
        port = urllib.parse.urlsplit(self.url).port or 8765
        env = _child_env()
        env.update({k: str(v) for k, v in self.extra_env.items()})
        self.coordinator_proc = subprocess.Popen(
            self._coordinator_cmd(port),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        )
        self.url = self._await_url(self.coordinator_proc, timeout)
        return self.url

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM everyone (runners first), reap, close pipes."""
        for proc in self.runner_procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.runner_procs:
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        self.runner_procs = []
        proc = self.coordinator_proc
        if proc is not None:
            if proc.poll() is None:
                proc.terminate()
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
            if proc.stdout is not None:
                proc.stdout.close()
            self.coordinator_proc = None

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- helpers -------------------------------------------------------------
    @staticmethod
    def _await_url(proc: subprocess.Popen, timeout: float) -> str:
        """Read the coordinator's stdout until its listening line."""
        found: list[str] = []

        def scan() -> None:
            assert proc.stdout is not None
            for raw in proc.stdout:
                match = _URL_RE.search(raw.decode("utf-8", "replace"))
                if match:
                    found.append(match.group(1))
                    return

        scanner = threading.Thread(target=scan, daemon=True)
        scanner.start()
        scanner.join(timeout)
        if not found:
            proc.kill()
            raise RuntimeError(
                "coordinator did not announce a listening address "
                f"within {timeout}s (exit={proc.poll()})"
            )
        return found[0]


def run_local_cluster(cluster: LocalCluster) -> int:
    """Blocking entry point for ``stfm-sim cluster``: run until
    SIGTERM/SIGINT, then tear the children down gracefully."""
    stop = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: stop.set())
    url = cluster.start()
    print(
        f"cluster up: coordinator at {url}, "
        f"{len(cluster.runner_procs)} runner(s)",
        flush=True,
    )
    try:
        while not stop.is_set():
            if (
                cluster.coordinator_proc is not None
                and cluster.coordinator_proc.poll() is not None
            ):
                print("coordinator exited; stopping cluster", flush=True)
                break
            stop.wait(0.5)
    finally:
        cluster.stop()
    print("cluster stopped", flush=True)
    return 0
