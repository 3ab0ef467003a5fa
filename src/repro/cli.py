"""Command-line interface: regenerate the paper's figures and tables.

Usage::

    stfm-sim list
    stfm-sim run fig6 --scale small
    stfm-sim run fig3 --sanitize            # with the DRAM protocol sanitizer
    stfm-sim run all --scale tiny
    stfm-sim workload mcf libquantum GemsFDTD astar --policy stfm
    stfm-sim tournament --matrix small -j 4 --json frontier.json
    stfm-sim benchmarks          # show the Table 3 registry
    stfm-sim lint                # static simulator-invariant analysis
    stfm-sim serve               # run the HTTP simulation service
    stfm-sim submit fig3 --wait  # submit a job to a running service
    stfm-sim status <job-id>     # query a job (or service health)
    stfm-sim cache --prune       # inspect/prune the result store
    stfm-sim coordinator         # cluster: admission, leases, store proxy
    stfm-sim runner --coordinator http://host:port   # lease + execute
    stfm-sim cluster --runners 3 # local dev cluster (subprocesses)

(Equivalently: ``python -m repro.cli ...``.)
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from dataclasses import replace

from repro.analysis import simlint
from repro.engine import (
    EngineOptions,
    JobFailedError,
    default_cache_dir,
    engine_options,
    session_report,
)
from repro.experiments import EXPERIMENTS, SCALES, run_experiment
from repro.experiments.base import resolve_scale
from repro.schedulers.registry import available_policies
from repro.sim.config import SystemConfig
from repro.sim.results import format_table
from repro.sim.runner import ExperimentRunner
from repro.workloads.spec2006 import SPEC2006


def _cmd_list(_args) -> int:
    print("Available experiments (paper figure/table -> id):")
    for experiment_id in EXPERIMENTS:
        print(f"  {experiment_id}")
    print(f"\nScales: {', '.join(SCALES)}")
    return 0


def _enable_sanitizer() -> None:
    """Turn on the DRAM protocol sanitizer for this process tree.

    The environment toggle (rather than a config field) keeps sanitized
    results content-identical to unsanitized ones in the result store
    and is inherited by engine worker processes.
    """
    from repro.analysis.protocol import SANITIZE_ENV

    os.environ[SANITIZE_ENV] = "1"
    print("(DRAM protocol sanitizer enabled: a timing/state violation "
          "aborts the run)")


def _enable_faults(spec_parts: "list[str]") -> int:
    """Activate the deterministic fault-injection layer (``--inject``).

    Same environment-toggle pattern as the sanitizer: inherits into
    fork workers, never perturbs cache keys.  Returns an exit code
    (nonzero on a malformed spec).
    """
    from repro import faults

    spec = ",".join(spec_parts)
    try:
        plan = faults.install(spec)
    except faults.FaultSpecError as exc:
        print(f"--inject: {exc}", file=sys.stderr)
        return 2
    print(f"(fault injection enabled: {plan.describe()})")
    return 0


@contextlib.contextmanager
def _maybe_profile(path: "str | None"):
    """``--profile``: wrap the simulation in cProfile, dump to ``path``.

    Stats are written as text, sorted by cumulative time, so the next
    hot spot is discoverable without ad-hoc scripts.
    """
    if not path:
        yield
        return
    import cProfile
    import pstats

    profile = cProfile.Profile()
    profile.enable()
    try:
        yield
    finally:
        profile.disable()
        with open(path, "w") as handle:
            stats = pstats.Stats(profile, stream=handle)
            stats.sort_stats("cumulative").print_stats()
        print(f"(profile written to {path}, sorted by cumulative time)")


def _cmd_run(args) -> int:
    if args.sanitize:
        _enable_sanitizer()
    if args.inject:
        rc = _enable_faults(args.inject)
        if rc:
            return rc
    if args.experiment == "all":
        ids = list(EXPERIMENTS)
    elif args.experiment == "paper":
        ids = [i for i in EXPERIMENTS if not i.startswith("ablate")]
    else:
        ids = [args.experiment]
    scale = resolve_scale(args.scale)
    if args.seed is not None:
        scale = replace(scale, seed=args.seed)
    store = None if args.no_cache else (args.cache_dir or default_cache_dir())
    options = EngineOptions(jobs=args.jobs, store=store)
    results = []
    failures = []
    with _maybe_profile(args.profile), engine_options(options):
        for experiment_id in ids:
            started = time.time()
            engine_before = session_report().snapshot()
            try:
                result = run_experiment(experiment_id, scale=scale)
            except JobFailedError as exc:
                failures.append(experiment_id)
                print(
                    f"== {experiment_id}: FAILED ==\n{exc}\n", file=sys.stderr
                )
                continue
            elapsed = time.time() - started
            results.append(result)
            print(f"== {result.experiment_id}: {result.title} ==")
            print(result.text)
            if result.paper_reference:
                print(f"\n[{result.paper_reference}]")
            engine_delta = session_report().since(engine_before)
            print(f"(engine: {engine_delta.summary()})")
            print(f"({elapsed:.1f}s at scale {args.scale!r})\n")
    if args.json:
        from repro.experiments.io import save_results

        save_results(results, args.json)
        print(f"wrote {len(results)} result(s) to {args.json}")
    if failures:
        print(
            f"{len(failures)} experiment(s) failed: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_workload(args) -> int:
    if args.sanitize:
        _enable_sanitizer()
    if args.inject:
        rc = _enable_faults(args.inject)
        if rc:
            return rc
    config = SystemConfig(num_cores=max(len(args.benchmarks), 2))
    runner = ExperimentRunner(config, instruction_budget=args.budget)
    policies = args.policy or available_policies()
    rows = []
    with _maybe_profile(args.profile):
        for policy in policies:
            result = runner.run_workload(args.benchmarks, policy)
            rows.append(
                [result.policy, result.unfairness, result.weighted_speedup,
                 result.hmean_speedup]
                + [t.slowdown for t in result.threads]
            )
    print(
        format_table(
            ["policy", "unfairness", "w-speedup", "hmean"] + args.benchmarks,
            rows,
        )
    )
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import generate_report
    from repro.experiments.io import load_results

    report = generate_report(load_results(args.results))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def _server_dirs(args) -> "tuple[str | None, str]":
    """The store location and state directory of ``serve``,
    ``coordinator`` and ``cluster``."""
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    state_dir = args.state_dir or os.path.join(
        args.cache_dir or default_cache_dir(), args.state_subdir
    )
    return cache_dir, state_dir


def _cmd_serve(args) -> int:
    """``serve`` (in-process runners) and ``coordinator`` (none)."""
    from repro.cluster.coordinator import CoordinatorConfig, run_coordinator

    if args.command == "serve" and args.workers < 1:
        print("serve: need at least one worker", file=sys.stderr)
        return 2
    if args.inject:
        rc = _enable_faults(args.inject)
        if rc:
            return rc
    cache_dir, state_dir = _server_dirs(args)
    config = CoordinatorConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        engine_jobs=args.engine_jobs,
        cache_dir=cache_dir,
        state_dir=state_dir,
        job_timeout=args.job_timeout,
        lease_ttl=args.lease_ttl,
    )
    return run_coordinator(config)


def _build_submit_spec(args) -> dict:
    if args.workload:
        spec: dict = {
            "kind": "workload",
            "benchmarks": args.workload,
            "policy": args.policy or "fr-fcfs",
        }
        if args.budget is not None:
            spec["budget"] = args.budget
        if args.num_cores is not None:
            spec["num_cores"] = args.num_cores
    elif args.experiment:
        spec = {
            "kind": "experiment",
            "experiment": args.experiment,
            "scale": args.scale,
        }
    else:
        raise SystemExit("submit: give an experiment id or --workload NAMES")
    if args.seed is not None:
        spec["seed"] = args.seed
    return spec


def _cmd_submit(args) -> int:
    import json as json_module

    from repro.service.client import BackpressureError, ServiceClient, ServiceError

    client = ServiceClient(args.server)
    spec = _build_submit_spec(args)
    try:
        view = client.submit(spec)
    except BackpressureError as exc:
        print(
            f"submit: queue full, retry in {exc.retry_after}s",
            file=sys.stderr,
        )
        return 1
    except (ServiceError, OSError) as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    if view.get("deduplicated"):
        print(f"job {view['id']}: coalesced with an identical in-flight job")
    else:
        print(f"job {view['id']}: {view['status']}")
    if not args.wait:
        return 0
    view = client.wait(view["id"], timeout=args.timeout)
    print(json_module.dumps(view, indent=2, sort_keys=True))
    return 0 if view["status"] == "done" else 1


def _cmd_status(args) -> int:
    import json as json_module

    from repro.service.client import ServiceClient, ServiceError, parse_metrics

    client = ServiceClient(args.server)
    try:
        if args.job_id:
            print(json_module.dumps(client.job(args.job_id), indent=2,
                                    sort_keys=True))
            return 0
        health = client.health()
        metrics = parse_metrics(client.metrics())
        print(json_module.dumps(health, indent=2, sort_keys=True))
        for name in (
            "stfm_service_queue_depth",
            "stfm_service_inflight_jobs",
            "stfm_store_hits_total",
            "stfm_store_misses_total",
            "stfm_engine_jobs_simulated_total",
        ):
            if name in metrics:
                print(f"{name} {metrics[name]:g}")
        return 0
    except (ServiceError, OSError) as exc:
        print(f"status: {exc}", file=sys.stderr)
        return 1


def _cmd_cache(args) -> int:
    import json as json_module

    from repro.engine.store import ResultStore

    location = args.store or args.cache_dir or default_cache_dir()
    store = ResultStore(location)
    try:
        stats = store.stats()
        report = {
            "location": store.location(),
            "backend": store.backend.scheme,
            "entries": stats.entries,
            "total_bytes": stats.total_bytes,
        }
        if args.prune:
            removed = store.prune()
            report["pruned_entries"] = removed.entries
            report["pruned_bytes"] = removed.total_bytes
    finally:
        store.close()
    if args.json:
        print(json_module.dumps(report, indent=2, sort_keys=True))
        return 0
    print(
        f"{report['location']}: {report['entries']} "
        f"entr{'y' if report['entries'] == 1 else 'ies'}, "
        f"{report['total_bytes']} bytes"
    )
    if args.prune:
        print(f"pruned {report['pruned_entries']} entr"
              f"{'y' if report['pruned_entries'] == 1 else 'ies'} "
              f"({report['pruned_bytes']} bytes)")
    return 0


def _cmd_runner(args) -> int:
    from repro.cluster.runner import RunnerConfig, run_runner

    if args.inject:
        rc = _enable_faults(args.inject)
        if rc:
            return rc
    store = None if args.no_store else args.store
    config = RunnerConfig(
        coordinator=args.coordinator,
        runner_id=args.id,
        store=store,
        engine_jobs=args.engine_jobs,
        poll=args.poll,
        max_jobs=args.max_jobs,
        capacity=args.capacity,
    )
    return run_runner(config)


def _cmd_cluster(args) -> int:
    from repro.cluster.supervisor import LocalCluster, run_local_cluster

    cache_dir, state_dir = _server_dirs(args)
    cluster = LocalCluster(
        runners=args.runners,
        cache_dir=cache_dir,
        state_dir=state_dir,
        lease_ttl=args.lease_ttl,
        engine_jobs=args.engine_jobs,
        queue_limit=args.queue_limit,
        host=args.host,
        port=args.port,
        capacity=args.capacity,
    )
    return run_local_cluster(cluster)


def _cmd_chaos(args) -> int:
    from repro.cluster.chaos import ChaosConfig, run_chaos

    config = ChaosConfig(
        seed=args.seed,
        quick=args.quick,
        lease_ttl=args.lease_ttl,
        workdir=args.workdir,
        keep=args.keep,
    )
    return run_chaos(config)


def _cmd_bench(args) -> int:
    from repro.bench import BENCH_SEQUENCE, REGRESSION_THRESHOLD, run_bench

    # A quick run is a smoke test: it must not overwrite the tracked
    # trajectory snapshot unless asked to.
    output = args.output
    if output is None and not args.quick:
        output = f"BENCH_{BENCH_SEQUENCE}.json"
    threshold = (
        args.threshold if args.threshold is not None else REGRESSION_THRESHOLD
    )
    return run_bench(
        output=output,
        quick=args.quick,
        check=args.check,
        threshold=threshold,
    )


def _cmd_tournament(args) -> int:
    import json as json_module

    from repro.engine.store import ResultStore
    from repro.schedulers.registry import EXTENSION_ORDER, PAPER_ORDER
    from repro.tournament import TournamentSpec, build_matrix, run_tournament

    if args.sanitize:
        _enable_sanitizer()
    if args.inject:
        rc = _enable_faults(args.inject)
        if rc:
            return rc
    matrix_name = "quick" if args.quick else args.matrix
    budget = args.budget
    if args.quick and args.budget is None:
        budget = 4_000
    if budget is None:
        budget = 20_000
    policies = args.policies or (PAPER_ORDER + EXTENSION_ORDER)
    try:
        spec = TournamentSpec.create(
            policies=policies,
            workloads=build_matrix(
                matrix_name, num_cores=args.cores, seed=args.seed
            ),
            num_cores=args.cores,
            budget=budget,
            seed=args.seed,
        )
    except (ValueError, KeyError) as exc:
        print(f"tournament: {exc}", file=sys.stderr)
        return 2
    store = None
    if not args.no_cache:
        store = ResultStore(args.cache_dir or default_cache_dir())
    options = EngineOptions(jobs=args.jobs, store=store)
    started = time.time()
    engine_before = session_report().snapshot()
    try:
        with _maybe_profile(args.profile), engine_options(options):
            result = run_tournament(spec)
    except JobFailedError as exc:
        print(f"tournament: {exc}", file=sys.stderr)
        return 1
    finally:
        if store is not None:
            store.close()
    elapsed = time.time() - started
    print(result.text)
    engine_delta = session_report().since(engine_before)
    print(f"\n(engine: {engine_delta.summary()})")
    print(f"(spec {spec.digest()}, {elapsed:.1f}s)")
    if args.json:
        with open(args.json, "w") as handle:
            json_module.dump(
                result.to_payload(), handle, indent=2, sort_keys=True
            )
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_benchmarks(_args) -> int:
    print(
        format_table(
            ["benchmark", "type", "MCPI", "MPKI", "RB-hit", "category"],
            [
                [s.name, s.itype, s.mcpi, s.mpki, s.rb_hit_rate, s.category]
                for s in SPEC2006.values()
            ],
        )
    )
    return 0


#: Default lease TTL of ``coordinator``, ``cluster`` and (fixed) ``serve``.
_LEASE_TTL = 15.0


def _add_server_arguments(
    parser: argparse.ArgumentParser, state_subdir: str, inject: bool = True
) -> None:
    """The flags ``serve``, ``coordinator`` and ``cluster`` share."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8765, help="0 picks a free port"
    )
    parser.add_argument(
        "--queue-limit", type=int, default=32,
        help="admission queue capacity (429 beyond this)",
    )
    parser.add_argument(
        "--cache-dir", metavar="LOCATION", default=None,
        help="shared result store: a directory, 'sqlite:/path.db', or "
        "an http:// URL (default: $STFM_SIM_CACHE_DIR or "
        "~/.cache/stfm-sim)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the shared result store (and the store proxy)",
    )
    parser.add_argument(
        "--state-dir", metavar="PATH", default=None,
        help=f"job + lease state directory (default: "
        f"<cache-dir>/{state_subdir})",
    )
    if inject:
        parser.add_argument(
            "--inject", nargs="+", metavar="SITE=RATE", default=None,
            help="deterministic fault injection (repro.faults)",
        )
    parser.set_defaults(state_subdir=state_subdir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stfm-sim",
        description="Reproduce 'Stall-Time Fair Memory Access Scheduling' "
        "(MICRO 2007) figures and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(func=_cmd_list)

    run_parser = sub.add_parser(
        "run", help="run an experiment ('all' = everything, 'paper' = "
        "figures/tables only)"
    )
    run_parser.add_argument("experiment", help="experiment id, e.g. fig6")
    run_parser.add_argument(
        "--scale", default="small", choices=list(SCALES), help="sizing preset"
    )
    run_parser.add_argument(
        "--json", metavar="PATH", help="also write structured results as JSON"
    )
    run_parser.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="simulation worker processes (default: 1 = serial)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="override the scale's workload-generation seed",
    )
    run_parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="persistent result store (default: "
        "$STFM_SIM_CACHE_DIR or ~/.cache/stfm-sim)",
    )
    run_parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result store for this run",
    )
    run_parser.add_argument(
        "--sanitize", action="store_true",
        help="validate every DRAM command against DDR2 timing "
        "(repro.analysis.protocol); violations abort the run",
    )
    run_parser.add_argument(
        "--inject", nargs="+", metavar="SITE=RATE", default=None,
        help="deterministic fault injection (repro.faults), e.g. "
        "--inject crash=0.2,corrupt=0.1 seed=7",
    )
    run_parser.add_argument(
        "--profile", metavar="PATH", default=None,
        help="profile the run with cProfile; write cumulative-sorted "
        "stats to PATH",
    )
    run_parser.set_defaults(func=_cmd_run)

    wl_parser = sub.add_parser("workload", help="run an ad-hoc workload")
    wl_parser.add_argument("benchmarks", nargs="+", help="benchmark names")
    wl_parser.add_argument(
        "--policy", action="append", help="scheduler(s); default: all five"
    )
    wl_parser.add_argument("--budget", type=int, default=20_000)
    wl_parser.add_argument(
        "--sanitize", action="store_true",
        help="validate every DRAM command against DDR2 timing",
    )
    wl_parser.add_argument(
        "--inject", nargs="+", metavar="SITE=RATE", default=None,
        help="deterministic fault injection (repro.faults)",
    )
    wl_parser.add_argument(
        "--profile", metavar="PATH", default=None,
        help="profile the run with cProfile; write cumulative-sorted "
        "stats to PATH",
    )
    wl_parser.set_defaults(func=_cmd_workload)

    sub.add_parser("benchmarks", help="show the Table 3 registry").set_defaults(
        func=_cmd_benchmarks
    )

    tournament_parser = sub.add_parser(
        "tournament", help="race every scheduler across a stratified "
        "workload matrix and chart the fairness-throughput frontier "
        "(see repro.tournament)"
    )
    tournament_parser.add_argument(
        "--policies", nargs="+", metavar="NAME", default=None,
        help="policies to enter (default: all registered, extensions "
        "included)",
    )
    tournament_parser.add_argument(
        "--matrix", default="default",
        choices=("quick", "small", "default", "full"),
        help="stratified workload-matrix size (default: 'default' = 8 "
        "workloads)",
    )
    tournament_parser.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="per-thread instruction budget (default 20000; 4000 with "
        "--quick)",
    )
    tournament_parser.add_argument(
        "--cores", type=int, default=4, metavar="N",
        help="cores per workload (default 4)",
    )
    tournament_parser.add_argument(
        "--seed", type=int, default=0,
        help="matrix-sampling and trace-generation seed",
    )
    tournament_parser.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="simulation worker processes (default: 1 = serial; "
        "parallel results are bit-identical)",
    )
    tournament_parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: the 'quick' matrix at a tiny budget",
    )
    tournament_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the frontier + per-cell metrics as JSON",
    )
    tournament_parser.add_argument(
        "--cache-dir", metavar="LOCATION", default=None,
        help="persistent result store: a directory, 'sqlite:/path.db', "
        "or 'http://coordinator:port' to run cells against a cluster's "
        "shared store (default: $STFM_SIM_CACHE_DIR or ~/.cache/stfm-sim)",
    )
    tournament_parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result store for this run",
    )
    tournament_parser.add_argument(
        "--sanitize", action="store_true",
        help="validate every DRAM command against DDR2 timing",
    )
    tournament_parser.add_argument(
        "--inject", nargs="+", metavar="SITE=RATE", default=None,
        help="deterministic fault injection (repro.faults)",
    )
    tournament_parser.add_argument(
        "--profile", metavar="PATH", default=None,
        help="profile the run with cProfile; write cumulative-sorted "
        "stats to PATH",
    )
    tournament_parser.set_defaults(func=_cmd_tournament)

    bench_parser = sub.add_parser(
        "bench", help="run the pinned performance suite and write a "
        "BENCH_<n>.json trajectory snapshot (see repro.bench)"
    )
    bench_parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="snapshot path (default: BENCH_<sequence>.json in the "
        "current directory; a --quick run writes none by default)",
    )
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: tiny scales, no 1M-budget / engine / "
        "service probes",
    )
    bench_parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if the event kernel is slower than naive or a "
        "metric regressed past the threshold",
    )
    bench_parser.add_argument(
        "--threshold", type=float, default=None, metavar="RATIO",
        help="normalized-slowdown regression threshold (default 1.30)",
    )
    bench_parser.set_defaults(func=_cmd_bench)

    lint_parser = sub.add_parser(
        "lint", help="run simlint, the static simulator-invariant "
        "analysis (exit 1 on findings)"
    )
    simlint.add_arguments(lint_parser)
    lint_parser.set_defaults(func=simlint.run)

    serve_parser = sub.add_parser(
        "serve", help="run the HTTP simulation service (see repro.service)"
    )
    _add_server_arguments(serve_parser, "service")
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="concurrent jobs (worker threads)",
    )
    serve_parser.add_argument(
        "--engine-jobs", type=int, default=1, metavar="N",
        help="simulation worker processes per running job",
    )
    serve_parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job watchdog deadline; a job past it is FAILED "
        "(default: no deadline)",
    )
    serve_parser.set_defaults(func=_cmd_serve, lease_ttl=_LEASE_TTL)

    submit_parser = sub.add_parser(
        "submit", help="submit a job to a running service"
    )
    submit_parser.add_argument(
        "experiment", nargs="?", help="experiment id, e.g. fig3"
    )
    submit_parser.add_argument(
        "--workload", nargs="+", metavar="BENCH",
        help="submit an ad-hoc workload instead of an experiment",
    )
    submit_parser.add_argument(
        "--server", default="http://127.0.0.1:8765", metavar="URL"
    )
    submit_parser.add_argument(
        "--scale", default="small", choices=list(SCALES)
    )
    submit_parser.add_argument("--policy", default=None)
    submit_parser.add_argument("--budget", type=int, default=None)
    submit_parser.add_argument("--num-cores", type=int, default=None)
    submit_parser.add_argument("--seed", type=int, default=None)
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its result (each "
        "result request is held by the service until the job settles)",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait deadline in seconds",
    )
    submit_parser.set_defaults(func=_cmd_submit)

    status_parser = sub.add_parser(
        "status", help="query a job, or service health without an id"
    )
    status_parser.add_argument("job_id", nargs="?")
    status_parser.add_argument(
        "--server", default="http://127.0.0.1:8765", metavar="URL"
    )
    status_parser.set_defaults(func=_cmd_status)

    cache_parser = sub.add_parser(
        "cache", help="inspect or prune the engine result store "
        "(any backend: directory, sqlite file, http:// proxy)"
    )
    cache_parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="result store (default: $STFM_SIM_CACHE_DIR or "
        "~/.cache/stfm-sim)",
    )
    cache_parser.add_argument(
        "--store", metavar="LOCATION", default=None,
        help="backend location overriding --cache-dir: a directory, "
        "'sqlite:/path.db', or 'http://coordinator:port'",
    )
    cache_parser.add_argument(
        "--prune", action="store_true", help="delete every cached entry"
    )
    cache_parser.add_argument(
        "--json", action="store_true",
        help="machine-readable report (identical schema on every backend)",
    )
    cache_parser.set_defaults(func=_cmd_cache)

    coord_parser = sub.add_parser(
        "coordinator", help="run a cluster coordinator: admission, "
        "leases, and the store proxy (see repro.cluster)"
    )
    _add_server_arguments(coord_parser, "coordinator")
    coord_parser.add_argument(
        "--lease-ttl", type=float, default=_LEASE_TTL, metavar="SECONDS",
        help="seconds a lease survives without a heartbeat",
    )
    coord_parser.set_defaults(
        func=_cmd_serve, workers=0, engine_jobs=1, job_timeout=None
    )

    runner_parser = sub.add_parser(
        "runner", help="run a cluster runner: lease jobs from a "
        "coordinator and execute them"
    )
    runner_parser.add_argument(
        "--coordinator", default="http://127.0.0.1:8765", metavar="URL"
    )
    runner_parser.add_argument(
        "--id", default=None, metavar="NAME",
        help="runner id for leases and /metrics (default: "
        "<hostname>-<pid>)",
    )
    runner_parser.add_argument(
        "--store", default="proxy", metavar="LOCATION",
        help="result store: 'proxy' (coordinator's store over HTTP, "
        "the default), a directory, or 'sqlite:/path.db'",
    )
    runner_parser.add_argument(
        "--no-store", action="store_true",
        help="run without a result store (every job re-simulates)",
    )
    runner_parser.add_argument(
        "--engine-jobs", type=int, default=1, metavar="N",
        help="simulation worker processes per job",
    )
    runner_parser.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="hold window of each lease request: the coordinator answers "
        "as soon as a job can be granted, else with 204 when the window "
        "ends (capped at 60 s), so a longer poll adds no latency, only "
        "fewer empty round trips",
    )
    runner_parser.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after completing N jobs (batch mode)",
    )
    runner_parser.add_argument(
        "--capacity", type=int, default=1, metavar="N",
        help="concurrent leases this runner will hold (declared to the "
        "coordinator, which weights routing and refuses over-grants)",
    )
    runner_parser.add_argument(
        "--inject", nargs="+", metavar="SITE=RATE", default=None,
        help="deterministic fault injection (repro.faults)",
    )
    runner_parser.set_defaults(func=_cmd_runner)

    cluster_parser = sub.add_parser(
        "cluster", help="run a local dev cluster: one coordinator + N "
        "runner subprocesses"
    )
    cluster_parser.add_argument(
        "--runners", type=int, default=2, metavar="N"
    )
    _add_server_arguments(cluster_parser, "coordinator", inject=False)
    cluster_parser.add_argument(
        "--lease-ttl", type=float, default=_LEASE_TTL, metavar="SECONDS",
        help="lease TTL for the coordinator",
    )
    cluster_parser.add_argument(
        "--engine-jobs", type=int, default=1, metavar="N",
        help="simulation worker processes per runner job",
    )
    cluster_parser.add_argument(
        "--capacity", type=int, default=1, metavar="N",
        help="concurrent leases per runner",
    )
    cluster_parser.set_defaults(func=_cmd_cluster)

    chaos_parser = sub.add_parser(
        "chaos", help="cluster chaos soak: seeded network faults + "
        "coordinator kill -9 mid-sweep, asserting bit-identical rows "
        "and exactly-once settlement"
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=7,
        help="fault-schedule seed (default: 7)",
    )
    chaos_parser.add_argument(
        "--quick", action="store_true",
        help="skip the replay leg (CI smoke)",
    )
    chaos_parser.add_argument(
        "--lease-ttl", type=float, default=1.5, metavar="SECONDS",
        help="lease TTL for the chaos cluster",
    )
    chaos_parser.add_argument(
        "--workdir", metavar="PATH", default=None,
        help="run in this directory instead of a temp dir (kept)",
    )
    chaos_parser.add_argument(
        "--keep", action="store_true",
        help="keep the temp workdir for post-mortem",
    )
    chaos_parser.set_defaults(func=_cmd_chaos)

    report_parser = sub.add_parser(
        "report", help="generate the paper-vs-measured markdown report"
    )
    report_parser.add_argument("results", help="JSON file from 'run --json'")
    report_parser.add_argument(
        "-o", "--output", help="write markdown here (default: stdout)"
    )
    report_parser.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
