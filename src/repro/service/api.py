"""The service's API schema: job specs, validation, result payloads.

A *job spec* is the JSON body of ``POST /v1/jobs``.  Two kinds exist:

* ``{"kind": "experiment", "experiment": "fig3", "scale": "tiny"}`` —
  run one registered paper experiment at a named scale (optionally with
  a ``seed`` override, exactly like ``stfm-sim run --seed``);
* ``{"kind": "workload", "benchmarks": ["mcf", "hmmer"],
  "policy": "stfm"}`` — run an ad-hoc multiprogrammed workload
  (optional ``policy_kwargs``, ``budget``, ``seed``, ``num_cores``).

Validation is strict — unknown keys, unknown benchmarks/policies,
policy options the policy does not take or rejects, and out-of-range
sizes are rejected with :class:`SpecError` (HTTP 400) at
admission time, so the queue only ever holds runnable work.  A spec's
canonical JSON form yields a stable :func:`spec_digest`, which the
server uses to coalesce identical in-flight submissions across clients.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.experiments import EXPERIMENTS, SCALES
from repro.experiments.io import plain
from repro.schedulers.registry import available_policies, make_policy
from repro.sim.results import WorkloadResult
from repro.workloads.spec2006 import benchmark


class SpecError(ValueError):
    """A submitted job spec is malformed (maps to HTTP 400)."""


#: Admission-time ceilings: a shared service must bound the work a
#: single request can demand.
MAX_BUDGET = 10_000_000
MAX_CORES = 64

_EXPERIMENT_KEYS = frozenset({"kind", "experiment", "scale", "seed"})
_WORKLOAD_KEYS = frozenset(
    {"kind", "benchmarks", "policy", "policy_kwargs", "budget", "seed",
     "num_cores"}
)


@dataclass(frozen=True)
class JobSpec:
    """A validated job submission (either kind; unused fields are None)."""

    kind: str
    experiment: "str | None" = None
    scale: str = "small"
    seed: "int | None" = None
    benchmarks: tuple[str, ...] = ()
    policy: str = "fr-fcfs"
    policy_kwargs: dict = field(default_factory=dict)
    budget: int = 20_000
    num_cores: "int | None" = None

    def normalized(self) -> dict:
        """Canonical JSON-ready form — the identity :func:`spec_digest`
        hashes and the form persisted in job state files."""
        if self.kind == "experiment":
            return {
                "kind": "experiment",
                "experiment": self.experiment,
                "scale": self.scale,
                "seed": self.seed,
            }
        return {
            "kind": "workload",
            "benchmarks": list(self.benchmarks),
            "policy": self.policy,
            "policy_kwargs": self.policy_kwargs,
            "budget": self.budget,
            "seed": 0 if self.seed is None else self.seed,
            "num_cores": self.num_cores or max(len(self.benchmarks), 2),
        }

    def describe(self) -> str:
        if self.kind == "experiment":
            return f"experiment {self.experiment} @{self.scale}"
        return f"workload {'+'.join(self.benchmarks)} under {self.policy}"


def spec_digest(spec: "JobSpec | dict") -> str:
    """SHA-256 of a spec's canonical JSON — stable across key order."""
    normalized = spec.normalized() if isinstance(spec, JobSpec) else spec
    blob = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _require_int(raw: dict, key: str, minimum: int, maximum: int) -> int:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"'{key}' must be an integer")
    if not minimum <= value <= maximum:
        raise SpecError(f"'{key}' must be in [{minimum}, {maximum}]")
    return value


def parse_spec(raw: object) -> JobSpec:
    """Validate a decoded JSON body into a :class:`JobSpec`.

    Raises:
        SpecError: naming the first problem found.
    """
    if not isinstance(raw, dict):
        raise SpecError("job spec must be a JSON object")
    kind = raw.get("kind")
    if kind == "experiment":
        return _parse_experiment(raw)
    if kind == "workload":
        return _parse_workload(raw)
    raise SpecError("'kind' must be 'experiment' or 'workload'")


def _parse_experiment(raw: dict) -> JobSpec:
    unknown = set(raw) - _EXPERIMENT_KEYS
    if unknown:
        raise SpecError(f"unknown spec key(s): {', '.join(sorted(unknown))}")
    experiment = raw.get("experiment")
    if not isinstance(experiment, str) or experiment.lower() not in EXPERIMENTS:
        raise SpecError(
            f"'experiment' must be one of: {', '.join(EXPERIMENTS)}"
        )
    scale = raw.get("scale", "small")
    if scale not in SCALES:
        raise SpecError(f"'scale' must be one of: {', '.join(SCALES)}")
    seed = None
    if raw.get("seed") is not None:
        seed = _require_int(raw, "seed", 0, 2**32)
    return JobSpec(
        kind="experiment", experiment=experiment.lower(), scale=scale,
        seed=seed,
    )


def _parse_workload(raw: dict) -> JobSpec:
    unknown = set(raw) - _WORKLOAD_KEYS
    if unknown:
        raise SpecError(f"unknown spec key(s): {', '.join(sorted(unknown))}")
    names = raw.get("benchmarks")
    if (
        not isinstance(names, list)
        or not names
        or not all(isinstance(n, str) for n in names)
    ):
        raise SpecError("'benchmarks' must be a non-empty list of names")
    for name in names:
        try:
            benchmark(name)
        except KeyError:
            raise SpecError(f"unknown benchmark {name!r}") from None
    policy = raw.get("policy", "fr-fcfs")
    known = available_policies(include_extensions=True)
    if policy not in known:
        raise SpecError(f"'policy' must be one of: {', '.join(known)}")
    kwargs = raw.get("policy_kwargs", {})
    if not isinstance(kwargs, dict) or not all(
        isinstance(k, str) for k in kwargs
    ):
        raise SpecError("'policy_kwargs' must be an object with string keys")
    # Build the policy once, as the worker will (one thread per
    # benchmark), so a misspelt option or an out-of-range or non-finite
    # value (JSON admits NaN) is a 400 now, not a failed job later.
    try:
        make_policy(policy, num_threads=len(names), **kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"'policy_kwargs' rejected by {policy}: {exc}") from None
    budget = 20_000
    if raw.get("budget") is not None:
        budget = _require_int(raw, "budget", 1, MAX_BUDGET)
    seed = 0
    if raw.get("seed") is not None:
        seed = _require_int(raw, "seed", 0, 2**32)
    num_cores = max(len(names), 2)
    if raw.get("num_cores") is not None:
        num_cores = _require_int(raw, "num_cores", len(names), MAX_CORES)
    return JobSpec(
        kind="workload",
        benchmarks=tuple(names),
        policy=policy,
        policy_kwargs=kwargs,
        budget=budget,
        seed=seed,
        num_cores=num_cores,
    )


def workload_result_to_dict(result: WorkloadResult) -> dict:
    """JSON-serializable form of one ad-hoc workload result."""
    return {
        "policy": result.policy,
        "unfairness": result.unfairness,
        "weighted_speedup": result.weighted_speedup,
        "hmean_speedup": result.hmean_speedup,
        "sum_of_ipcs": result.sum_of_ipcs,
        "threads": [
            {
                "name": t.name,
                "ipc_alone": t.ipc_alone,
                "ipc_shared": t.ipc_shared,
                "mcpi_alone": t.mcpi_alone,
                "mcpi_shared": t.mcpi_shared,
                "slowdown": t.slowdown,
                "row_hit_rate_shared": t.row_hit_rate_shared,
            }
            for t in result.threads
        ],
        "extras": plain(result.extras),
    }

