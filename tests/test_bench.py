"""``stfm-sim bench`` probes that the host cannot exercise."""

from __future__ import annotations

import os

from repro import bench


def test_engine_parallel_is_skipped_on_one_cpu(monkeypatch):
    """On one CPU the pool could only race serial against serial: the
    probe says it was skipped instead of reporting a speedup, and runs
    no experiment."""

    def no_experiments(*args, **kwargs):
        raise AssertionError("the probe ran an experiment")

    import repro.experiments

    monkeypatch.setattr(repro.experiments, "run_experiment", no_experiments)
    for count in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda count=count: count)
        assert bench._time_engine_parallel("tiny") == {
            "skipped": "cpu_count == 1"
        }


def test_skipped_probe_is_not_compared():
    """A skipped probe carries no normalized value, so the trajectory
    comparison leaves it out rather than failing on it."""
    current = {"metrics": {"engine_parallel": {"skipped": "cpu_count == 1"}}}
    previous = {
        "sequence": 9,
        "metrics": {"engine_parallel": {"serial_normalized": 40.0}},
    }
    assert bench.compare(current, previous, 1.25)["ratios"] == {}
