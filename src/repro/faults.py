"""repro.faults — deterministic, seeded fault injection.

The engine, store, service and client all claim to survive crashes,
corruption and hangs.  This module is how those claims get *exercised*:
a set of named injection points, each firing with a configured
probability, activated by the ``STFM_SIM_FAULTS`` environment variable
(which the ``--inject`` CLI flag sets — the same pattern as the PR 3
protocol sanitizer, so the toggle inherits into fork workers and never
perturbs engine cache keys).

=============  ==========================================================
``crash``      a worker process exits mid-job (engine)
``hang``       a worker process stops making progress (engine)
``timeout``    the parent declares a healthy worker timed out (engine)
``corrupt``    a store read observes torn/garbage bytes (store)
``write``      a store write raises ``OSError`` ENOSPC (store)
``service``    a service worker raises mid-execution (service)
``drop``       the client's connection drops before a request (client)
``refused``    a connection is refused before any bytes leave (network)
``reset``      the connection resets *after* the request was sent — the
               peer may have processed it; the response is lost (network)
``latency``    injected latency past the client timeout (network)
``partition``  a partition window opens: the peer is unreachable for a
               while and the store proxy degrades to local-cache-only
               (network)
``truncate``   a response body arrives truncated mid-stream (network)
=============  ==========================================================

Determinism is the whole point.  A decision is a *pure function* of
``(seed, site, key)``: each consultation draws from a dedicated
``random.Random`` seeded with exactly that triple, so whether a given
fault fires does not depend on thread scheduling, worker interleaving,
or how many other sites fired first — a replayed run with the same
fault seed reproduces the identical fault sequence.  Keys carry the
attempt number where retries must eventually succeed (a job that
crashed on attempt 1 draws fresh on attempt 2).

With ``STFM_SIM_FAULTS`` unset every hook is a near-zero-cost no-op
(one environment lookup and string compare), and the injected faults
never change simulation *inputs*: a chaos run that completes is
bit-identical to a fault-free run.
"""

from __future__ import annotations

import os
import random
import re
import threading

#: Environment toggle the CLI sets; worker processes inherit it.
FAULTS_ENV = "STFM_SIM_FAULTS"

#: Every named injection point (see the module docstring table).
SITES = (
    "crash",
    "hang",
    "timeout",
    "corrupt",
    "write",
    "service",
    "drop",
    "refused",
    "reset",
    "latency",
    "partition",
    "truncate",
)

#: Sites whose keys are *content-derived* (store keys, job ids) rather
#: than wall-clock-derived.  The chaos soak harness compares the set of
#: fired ``(site, key)`` decisions between a chaos run and its replay
#: over exactly these sites — the keys below are consulted for the same
#: identities in both runs regardless of scheduling, so the fired sets
#: must match exactly.  One carve-out: a key containing ``#`` marks a
#: *request-attempt-scoped* decision (the client keys transport faults
#: by ``"METHOD /path #attempt"``); those streams depend on how many
#: requests a particular interleaving issued, so
#: :func:`replay_stable_decisions` filters them out too.
REPLAY_STABLE_SITES = frozenset(
    {"crash", "hang", "timeout", "corrupt", "write",
     "refused", "reset", "latency", "partition", "truncate"}
)


def replay_stable_decisions(
    fired: "set[tuple[str, str]]",
) -> "set[tuple[str, str]]":
    """The subset of fired decisions a replayed run must reproduce
    exactly: replay-stable sites, minus attempt-scoped (``#``) keys."""
    return {
        (site, key)
        for site, key in fired
        if site in REPLAY_STABLE_SITES and "#" not in key
    }

#: Optional durable spool for fired decisions: when this names a
#: directory, every firing appends one ``site\tkey`` line to a
#: per-process file inside it (open/append/close per firing, so a
#: ``kill -9`` loses at most the decision in flight).  The chaos
#: harness points every cluster process at one spool directory and
#: diffs the union afterwards.
FAULT_LOG_ENV = "STFM_SIM_FAULT_LOG"

#: How long an injected hang sleeps — longer than any sane per-job
#: timeout, short enough that a run *without* one eventually finishes.
HANG_SECONDS = 30.0


class FaultSpecError(ValueError):
    """An ``--inject`` / ``STFM_SIM_FAULTS`` spec failed to parse."""


class FaultPlan:
    """A parsed injection config: per-site probabilities plus the seed.

    ``fires`` is safe to call from any thread or (forked) process; the
    firing counters and log are per-process and protected by a lock.
    """

    def __init__(self, rates: "dict[str, float]", seed: int = 0) -> None:
        for site, rate in rates.items():
            if site not in SITES:
                raise FaultSpecError(
                    f"unknown fault site {site!r} (known: {', '.join(SITES)})"
                )
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(
                    f"fault rate for {site!r} must be in [0, 1], got {rate!r}"
                )
        self.rates = dict(rates)
        self.seed = seed
        self.counters: dict[str, int] = {}
        self.log: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def fires(self, site: str, key: str = "") -> bool:
        """Whether the fault at ``site`` fires for ``key``.

        Deterministic: the decision depends only on (seed, site, key).
        Consulting the same (site, key) twice returns the same answer
        but records the firing only once per consultation.
        """
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        draw = random.Random(f"{self.seed}:{site}:{key}").random()
        if draw >= rate:
            return False
        with self._lock:
            self.counters[site] = self.counters.get(site, 0) + 1
            self.log.append((site, key))
        _spool_firing(site, key)
        return True

    def total_fired(self) -> int:
        with self._lock:
            return sum(self.counters.values())

    def describe(self) -> str:
        parts = [
            f"{site}={self.rates[site]:g}"
            for site in SITES
            if site in self.rates
        ]
        parts.append(f"seed={self.seed}")
        return " ".join(parts)


def parse_faults(spec: str) -> FaultPlan:
    """``"crash=0.2,hang=0.05,seed=7"`` → :class:`FaultPlan`.

    Entries are ``site=rate`` pairs separated by commas and/or
    whitespace; the optional ``seed=N`` entry seeds the decision
    streams (default 0).
    """
    rates: dict[str, float] = {}
    seed = 0
    for token in re.split(r"[,\s]+", spec.strip()):
        if not token:
            continue
        name, sep, value = token.partition("=")
        if not sep:
            raise FaultSpecError(
                f"malformed fault entry {token!r} (expected site=rate)"
            )
        if name == "seed":
            try:
                seed = int(value)
            except ValueError:
                raise FaultSpecError(
                    f"fault seed must be an integer, got {value!r}"
                ) from None
            continue
        try:
            rates[name] = float(value)
        except ValueError:
            raise FaultSpecError(
                f"fault rate for {name!r} must be a number, got {value!r}"
            ) from None
    if not rates:
        raise FaultSpecError(
            f"fault spec {spec!r} configures no injection site"
        )
    return FaultPlan(rates, seed=seed)


# -- process-wide activation -------------------------------------------------


def env_flag(name: str) -> bool:
    """Whether the on/off environment switch ``name`` is on.

    ``""``, ``0``, ``false`` and ``no`` (any case) are off; any other
    value is on.  The one reader for the ``STFM_SIM_*`` sanitizer
    switches, so they all agree on what "off" means.
    """
    value = os.environ.get(name, "").strip().lower()
    return value not in ("", "0", "false", "no")


#: (env string, parsed plan) — revalidated against the environment on
#: every lookup so tests and the CLI can flip ``STFM_SIM_FAULTS`` at
#: any time; counters persist as long as the env string is unchanged.
_CACHED: "tuple[str, FaultPlan | None]" = ("", None)
_CACHE_LOCK = threading.Lock()


def active_plan() -> "FaultPlan | None":
    """The plan configured by ``STFM_SIM_FAULTS``, or None."""
    global _CACHED
    raw = os.environ.get(FAULTS_ENV, "")
    cached_raw, cached_plan = _CACHED
    if raw == cached_raw:
        return cached_plan
    with _CACHE_LOCK:
        cached_raw, cached_plan = _CACHED
        if raw == cached_raw:
            return cached_plan
        plan = parse_faults(raw) if raw else None
        _CACHED = (raw, plan)
        return plan


def fires(site: str, key: str = "") -> bool:
    """Module-level hook: False (fast) unless a plan is active."""
    plan = active_plan()
    return plan is not None and plan.fires(site, key)


def injected_total() -> int:
    """Faults fired so far in this process (0 when inactive)."""
    plan = active_plan()
    return plan.total_fired() if plan is not None else 0


def _spool_firing(site: str, key: str) -> None:
    """Append one fired decision to the ``STFM_SIM_FAULT_LOG`` spool.

    Best-effort by design: chaos must keep injecting even when the
    spool directory is gone (the harness owns its lifetime).
    """
    spool = os.environ.get(FAULT_LOG_ENV, "")
    if not spool:
        return
    try:
        os.makedirs(spool, exist_ok=True)
        path = os.path.join(spool, f"faults-{os.getpid()}.log")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(f"{site}\t{key}\n")
    except OSError:
        pass


def read_spool(spool: str) -> "set[tuple[str, str]]":
    """The union of fired ``(site, key)`` decisions across every
    process that wrote to ``spool``.

    A *set*, not a multiset: a decision is a pure function of
    ``(seed, site, key)``, so consulting it twice (a redelivered job,
    a retried request) fires twice but is one decision.  Comparing
    sets is what makes the chaos replay check robust to scheduling.
    """
    fired: "set[tuple[str, str]]" = set()
    try:
        names = sorted(os.listdir(spool))
    except OSError:
        return fired
    for name in names:
        if not name.startswith("faults-"):
            continue
        try:
            with open(os.path.join(spool, name), encoding="utf-8") as handle:
                for line in handle:
                    site, sep, key = line.rstrip("\n").partition("\t")
                    if sep:
                        fired.add((site, key))
        except OSError:
            continue
    return fired


def install(spec: str) -> FaultPlan:
    """Validate ``spec``, export it via the environment, and return
    the now-active plan (the ``--inject`` CLI path)."""
    parse_faults(spec)  # validate before touching the environment
    os.environ[FAULTS_ENV] = spec
    plan = active_plan()
    assert plan is not None
    return plan
