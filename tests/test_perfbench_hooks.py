"""The benchmark's outside-in trace must keep fitting the program.

``perfbench/common.py::trace_simulator`` wraps simulator methods by
name, and ``perfbench/tracer.py`` raises when a name is missing.  CI
runs the traced benchmark under STFM only, so this test wraps the hooks
of every policy, runs a short simulation under each, and checks that
``restore`` puts every original back.  The spans must also keep counting
calls: every policy's hooks feed ``policy``, and STFM's interference
updates feed ``estimator``.
"""

from __future__ import annotations

import importlib.util
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
