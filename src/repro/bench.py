"""Persistent benchmark trajectory for the simulator (``stfm-sim bench``).

Runs a pinned suite of performance probes and writes a machine-normalized
``BENCH_<n>.json`` snapshot at the repository root, so the performance
story of the codebase is a *trajectory* of committed files rather than
numbers in commit messages:

* ``throughput_100k`` / ``throughput_1m`` — raw simulated instructions
  per second of a single 4-core shared run at 100k and 1M instruction
  budgets (the 1M run is the ROADMAP's north-star budget), under both
  the event-driven and the naive kernel; their ratio is the headline
  ``kernel_speedup``.
* ``per_policy_kernel_cost`` — event-kernel wall time of one 4-core
  shared run under *every* registered scheduling policy (extensions
  included), so a policy whose per-cycle work is out of line with the
  others shows up as an outlier in the trajectory.
* ``engine_parallel`` — speedup of the experiment engine's process pool
  over its serial path on a small batch.
* ``submit_storm`` — per-submit POST latency percentiles (p50/p90/max)
  for a burst of distinct jobs against the service, plus the wall time
  to drain the whole burst.

The fig3 wall time, the service round trip and cluster throughput are
timed by the three-workload benchmark in ``perfbench/`` instead.

Machine normalization: every timing also carries ``normalized`` =
seconds / ``calibration_seconds``, where the calibration is a fixed
pure-Python integer loop timed on the same machine.  Normalized values
are dimensionless multiples of single-core Python speed and are the
quantities compared across snapshots; raw seconds are kept for humans.

Each run compares against the most recent previous ``BENCH_*.json`` (by
sequence number) and records per-metric ratios; ``--check`` turns a
normalized slowdown beyond the threshold — or an event kernel slower
than naive — into a nonzero exit for CI.

This module lives at the package root (not in a simulator-core domain),
so simlint's SIM001 wall-clock rule does not apply: benchmarking *is*
the one place host-clock reads belong.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

#: Sequence number of the snapshot this revision writes.  Bump when a
#: PR adds a new trajectory point (the file is committed, not ignored).
BENCH_SEQUENCE = 9

#: Normalized slowdown beyond which a metric counts as a regression.
REGRESSION_THRESHOLD = 1.30

_THROUGHPUT_WORKLOAD = ("mcf", "libquantum", "GemsFDTD", "astar")


# -- machine calibration -----------------------------------------------------


def calibrate(repeats: int = 3) -> float:
    """Seconds for a fixed pure-Python integer loop (best of ``repeats``).

    The loop is deterministic and allocation-free, so its wall time
    tracks single-core interpreter speed — the same resource the
    simulator burns.  Dividing measured times by it cancels most of the
    machine out of cross-snapshot comparisons.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i & 0xFFFF
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def machine_fingerprint() -> dict:
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }


# -- probes ------------------------------------------------------------------


def _with_kernel(kernel: str):
    """Context manager pinning ``STFM_SIM_KERNEL`` for a probe."""
    import contextlib

    from repro.sim.kernel import KERNEL_ENV

    @contextlib.contextmanager
    def _ctx():
        previous = os.environ.get(KERNEL_ENV)
        os.environ[KERNEL_ENV] = kernel
        try:
            yield
        finally:
            if previous is None:
                os.environ.pop(KERNEL_ENV, None)
            else:
                os.environ[KERNEL_ENV] = previous

    return _ctx()


def _shared_system(budget: int, policy_name: str):
    """The 4-core throughput mix under one policy, ready to run."""
    from repro.engine.jobs import budget_for, build_system, resolve_spec
    from repro.schedulers import make_policy
    from repro.sim.config import SystemConfig

    config = SystemConfig(num_cores=len(_THROUGHPUT_WORKLOAD))
    specs = [resolve_spec(name) for name in _THROUGHPUT_WORKLOAD]
    budgets = [budget_for(spec, budget) for spec in specs]
    policy = make_policy(policy_name, num_threads=len(specs))
    return build_system(config, 0, specs, budgets, policy)


def _time_throughput(kernel: str, budget: int) -> "tuple[float, int]":
    """(wall seconds, instructions committed) of one 4-core shared run."""
    with _with_kernel(kernel):
        # Construct inside the kernel context: the kernel is chosen once
        # per system, when its controller is built (cached scans and
        # sleeping cores vs the naive per-cycle loop), and the probe
        # must time the kernel it claims to.
        system = _shared_system(budget, "fr-fcfs")
        t0 = time.perf_counter()
        snapshots = system.run()
        elapsed = time.perf_counter() - t0
    return elapsed, sum(s.instructions for s in snapshots)


def _time_per_policy(budget: int) -> dict:
    """Event-kernel seconds of one 4-core shared run per policy.

    Traces are built once and shared (they are immutable and memoized
    by :func:`repro.engine.jobs.build_trace`); each policy gets a fresh
    system.  The per-policy numbers expose schedulers whose per-cycle
    work is out of line with the others; the total is the
    cross-snapshot comparison quantity.
    """
    from repro.schedulers.registry import available_policies

    per_policy: dict = {}
    total = 0.0
    with _with_kernel("event"):
        for name in available_policies(include_extensions=True):
            system = _shared_system(budget, name)
            t0 = time.perf_counter()
            snapshots = system.run()
            elapsed = time.perf_counter() - t0
            instructions = sum(s.instructions for s in snapshots)
            per_policy[name] = {
                "seconds": elapsed,
                "instructions_per_second": instructions / elapsed,
            }
            total += elapsed
    return {
        "budget": budget,
        "policies": per_policy,
        "total_seconds": total,
    }


def _time_engine_parallel(scale: str) -> dict:
    """Serial vs process-pool wall time of one experiment batch.

    With one CPU the pool would run serial against serial and report a
    meaningless speedup, so the probe reports itself as skipped.
    """
    if (os.cpu_count() or 1) < 2:
        return {"skipped": "cpu_count == 1"}
    from repro.engine import EngineOptions, engine_options
    from repro.experiments import run_experiment

    jobs = 2
    timings = {}
    for label, n in (("serial_seconds", 1), ("parallel_seconds", jobs)):
        with engine_options(EngineOptions(jobs=n)):
            t0 = time.perf_counter()
            run_experiment("fig3", scale=scale)
            timings[label] = time.perf_counter() - t0
    timings["jobs"] = jobs
    timings["speedup"] = timings["serial_seconds"] / timings["parallel_seconds"]
    return timings


def _storm_specs(count: int, budget: int = 1_500) -> "list[dict]":
    """``count`` distinct tiny workload specs (seed-disjoint, so their
    sub-job cache keys never overlap and no job is served from another's
    results)."""
    return [
        {
            "kind": "workload",
            "benchmarks": ["mcf", "hmmer"],
            "policy": "fr-fcfs",
            "budget": budget,
            "seed": seed,
        }
        for seed in range(1, count + 1)
    ]


def _percentile(sorted_values: "list[float]", fraction: float) -> float:
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1) + 0.5)
    )
    return sorted_values[index]


def _time_submit_storm(tmp_dir: str, count: int = 16) -> dict:
    """Latency percentiles of a submit burst against the service.

    Every POST is timed individually (the admission path: parse,
    digest, persist, enqueue) while workers drain the backlog; the
    drain time of the whole burst rides along.
    """
    import asyncio
    import threading

    from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
    from repro.service.client import ServiceClient

    service = ClusterCoordinator(
        CoordinatorConfig(
            host="127.0.0.1",
            port=0,
            workers=2,
            queue_limit=count,
            cache_dir=None,
            state_dir=os.path.join(tmp_dir, "storm-state"),
        )
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(service.start(), loop).result(30)
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        latencies = []
        views = []
        t0 = time.perf_counter()
        for spec in _storm_specs(count):
            t_submit = time.perf_counter()
            views.append(client.submit(spec))
            latencies.append(time.perf_counter() - t_submit)
        for view in views:
            client.wait(view["id"], timeout=300)
        drain = time.perf_counter() - t0
        latencies.sort()
        return {
            "jobs": count,
            "submit_p50_seconds": _percentile(latencies, 0.50),
            "submit_p90_seconds": _percentile(latencies, 0.90),
            "submit_max_seconds": latencies[-1],
            "drain_seconds": drain,
        }
    finally:
        asyncio.run_coroutine_threadsafe(
            service.drain_and_stop(), loop
        ).result(120)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


# -- suite -------------------------------------------------------------------


def run_suite(quick: bool = False, log=print) -> dict:
    """Run the pinned probe suite; returns the snapshot payload."""
    calibration = calibrate()
    log(f"calibration: {calibration:.3f}s (fixed integer loop)")

    def norm(seconds: float) -> float:
        return seconds / calibration

    metrics: dict = {}

    budgets = [("throughput_100k", 100_000)]
    if not quick:
        budgets.append(("throughput_1m", 1_000_000))
    for key, budget in budgets:
        sec_e, instructions = _time_throughput("event", budget)
        sec_n, _ = _time_throughput("naive", budget)
        metrics[key] = {
            "budget": budget,
            "seconds": sec_e,
            "naive_seconds": sec_n,
            "instructions": instructions,
            "instructions_per_second": instructions / sec_e,
            "kernel_speedup": sec_n / sec_e,
            "normalized": norm(sec_e),
        }
        log(
            f"{key}: event {sec_e:.2f}s ({instructions / sec_e:,.0f} "
            f"instr/s), naive {sec_n:.2f}s -> {sec_n / sec_e:.2f}x"
        )

    per_policy = _time_per_policy(10_000 if quick else 50_000)
    per_policy["normalized"] = norm(per_policy["total_seconds"])
    metrics["per_policy_kernel_cost"] = per_policy
    slowest = max(
        per_policy["policies"], key=lambda p: per_policy["policies"][p]["seconds"]
    )
    log(
        f"per_policy_kernel_cost: {len(per_policy['policies'])} policies "
        f"in {per_policy['total_seconds']:.2f}s total (slowest: {slowest} "
        f"{per_policy['policies'][slowest]['seconds']:.2f}s)"
    )

    if not quick:
        engine = _time_engine_parallel("tiny")
        metrics["engine_parallel"] = engine
        if "skipped" not in engine:
            engine["serial_normalized"] = norm(engine["serial_seconds"])
            log(
                f"engine_parallel: serial {engine['serial_seconds']:.2f}s, "
                f"{engine['jobs']} jobs {engine['parallel_seconds']:.2f}s "
                f"-> {engine['speedup']:.2f}x"
            )

        import tempfile

        with tempfile.TemporaryDirectory() as tmp_dir:
            storm = _time_submit_storm(tmp_dir)
        storm["normalized"] = norm(storm["drain_seconds"])
        storm["submit_p50_normalized"] = norm(storm["submit_p50_seconds"])
        metrics["submit_storm"] = storm
        log(
            f"submit_storm: {storm['jobs']} jobs, submit p50 "
            f"{storm['submit_p50_seconds'] * 1e3:.1f}ms p90 "
            f"{storm['submit_p90_seconds'] * 1e3:.1f}ms max "
            f"{storm['submit_max_seconds'] * 1e3:.1f}ms; drained in "
            f"{storm['drain_seconds']:.2f}s"
        )

    from repro.sim.kernel import kernel_name

    return {
        "schema": 1,
        "sequence": BENCH_SEQUENCE,
        "quick": quick,
        "default_kernel": kernel_name(),
        "machine": {
            **machine_fingerprint(),
            "calibration_seconds": calibration,
        },
        "metrics": metrics,
    }


# -- trajectory comparison ---------------------------------------------------


def find_previous(root: str, sequence: int = BENCH_SEQUENCE) -> "str | None":
    """Path of the most recent earlier ``BENCH_*.json`` snapshot, if any."""
    best: "tuple[int, str] | None" = None
    try:
        names = os.listdir(root)
    except OSError:
        return None
    for name in names:
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        stem = name[len("BENCH_") : -len(".json")]
        if not stem.isdigit():
            continue
        seq = int(stem)
        if seq >= sequence:
            continue
        if best is None or seq > best[0]:
            best = (seq, os.path.join(root, name))
    return best[1] if best else None


def compare(current: dict, previous: dict, threshold: float) -> dict:
    """Per-metric normalized ratios vs an earlier snapshot.

    A ratio above 1 means this snapshot is slower; above ``threshold``
    it is recorded as a regression.  Only metrics present in both
    snapshots (with normalized values) are compared.
    """
    ratios: dict = {}
    regressions: list[str] = []
    for key, entry in current.get("metrics", {}).items():
        old = previous.get("metrics", {}).get(key)
        if not isinstance(old, dict):
            continue
        for field in ("normalized", "warm_normalized", "serial_normalized"):
            new_value = entry.get(field)
            old_value = old.get(field)
            if not new_value or not old_value:
                continue
            ratio = new_value / old_value
            ratios[key] = ratio
            if ratio > threshold:
                regressions.append(
                    f"{key}: {ratio:.2f}x slower than sequence "
                    f"{previous.get('sequence')} (threshold {threshold:.2f})"
                )
            break
    return {
        "baseline_sequence": previous.get("sequence"),
        "threshold": threshold,
        "ratios": ratios,
        "regressions": regressions,
    }


def check_failures(payload: dict) -> "list[str]":
    """CI assertions over a snapshot: the event kernel must not lose."""
    failures: list[str] = []
    for key, entry in payload.get("metrics", {}).items():
        speedup = entry.get("kernel_speedup")
        if speedup is not None and speedup < 1.0:
            failures.append(
                f"{key}: event kernel slower than naive ({speedup:.2f}x)"
            )
    comparison = payload.get("comparison")
    if comparison:
        failures.extend(comparison.get("regressions", []))
    return failures


def run_bench(
    output: "str | None",
    quick: bool = False,
    check: bool = False,
    threshold: float = REGRESSION_THRESHOLD,
    log=print,
) -> int:
    """The ``stfm-sim bench`` entry point; returns an exit code.

    The snapshot is written to ``output``; with None it is compared
    against the snapshots in the current directory but not written.
    """
    payload = run_suite(quick=quick, log=log)
    root = os.path.dirname(os.path.abspath(output)) if output else "."
    previous_path = find_previous(root)
    if previous_path:
        try:
            with open(previous_path) as handle:
                previous = json.load(handle)
        except (OSError, ValueError) as exc:
            log(f"(ignoring unreadable {previous_path}: {exc})")
        else:
            payload["comparison"] = compare(payload, previous, threshold)
            for key, ratio in payload["comparison"]["ratios"].items():
                log(f"vs sequence {previous.get('sequence')}: {key} {ratio:.2f}x")
    else:
        log("(no previous BENCH_*.json snapshot; this is the first "
            "trajectory point)")
    if output:
        with open(output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        log(f"wrote {output}")
    else:
        log("(no snapshot written; pass --output to keep one)")
    if check:
        failures = check_failures(payload)
        if failures:
            for failure in failures:
                log(f"BENCH CHECK FAILED: {failure}")
            return 1
        log("bench check passed")
    return 0
