"""The benchmark's outside-in trace must keep fitting the program.

``perfbench/common.py::trace_simulator`` wraps simulator methods by
name, and ``perfbench/tracer.py`` raises when a name is missing.  CI
runs the traced benchmark under STFM only, so this test wraps the hooks
of every policy, runs a short simulation under each, and checks that
``restore`` puts every original back.  The spans must also keep counting
calls: every policy's hooks feed ``policy``, and STFM's interference
updates feed ``estimator``.

The ``sweep`` workload also wraps the engine by name (the plan
executor, the job runner and the result store); a second test runs one
of its units traced and checks that those spans count calls and that
``restore`` undoes them.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.engine.jobs import build_trace
from repro.schedulers import make_policy
from repro.schedulers.registry import available_policies
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.workloads import benchmark

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Spans around methods the simulator no longer calls; they must read 0.
UNCALLED_SPANS = ("sim.horizon", "ff.drain", "ff.cores", "ff.policy")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(policy_name: str) -> None:
    names = ("mcf", "libquantum")
    config = SystemConfig(num_cores=len(names))
    traces = [
        build_trace(config, 0, benchmark(name), 500, i, len(names))
        for i, name in enumerate(names)
    ]
    policy = make_policy(policy_name, num_threads=len(names))
    CmpSystem(config, traces, policy, 500).run()


def test_trace_simulator_wraps_every_policy_and_restores():
    common = _load("common")
    tracer = _load("tracer").Tracer()
    policies = available_policies(include_extensions=True)
    assert "stfm" in policies
    try:
        common.trace_simulator(tracer, policies)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original
        for name in policies:
            before = {s: tracer.calls(s) for s in ("policy", "estimator")}
            _run(name)
            assert tracer.calls("policy") > before["policy"], name
            if name == "stfm":
                assert tracer.calls("estimator") > before["estimator"]
    finally:
        tracer.restore()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original
    assert tracer.calls("sim.run") == len(policies)
    assert tracer.calls("controller.tick") > 0
    assert tracer.calls("policy") > 0
    for span in UNCALLED_SPANS:
        assert tracer.calls(span) == 0, span


def test_sweep_trace_wraps_the_engine_and_restores(tmp_path, monkeypatch):
    # sweep.py imports its sibling as ``common``.
    monkeypatch.setitem(sys.modules, "common", _load("common"))
    sweep = _load("sweep").SweepWorkload(seed=1, scratch=tmp_path)
    sweep.BUDGET = 1_500
    tracer = _load("tracer").Tracer()
    try:
        sweep.install_trace(tracer)
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original
        sweep.prepare()
        with tracer.span("unit"):
            sweep.unit(0)
        metrics = sweep.layer_metrics(tracer)
    finally:
        tracer.restore()
        sweep.close()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original
    unique = len(sweep.MIX) + len(sweep.POLICIES)
    assert tracer.calls("engine.execute") == 2  # the cold and warm passes
    assert tracer.calls("engine.run") == 2
    assert tracer.calls("engine.job") == unique
    assert tracer.calls("store.get") == 2 * unique
    assert tracer.calls("store.put") == unique
    assert tracer.calls("sim.run") == unique
    assert metrics["engine.sims_per_unit"] == unique
    assert metrics["store.get_ms"] > 0 and metrics["store.put_ms"] > 0
