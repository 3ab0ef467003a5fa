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


def test_quick_run_without_output_keeps_the_tracked_snapshot(
    monkeypatch, tmp_path
):
    """``bench --quick --check`` is a smoke test: without ``--output`` it
    must not overwrite the tracked ``BENCH_<n>.json``.  A full run still
    writes it."""
    from repro.cli import main

    def tiny_suite(quick=False, log=print):
        return {"schema": 1, "sequence": bench.BENCH_SEQUENCE, "metrics": {}}

    monkeypatch.setattr(bench, "run_suite", tiny_suite)
    monkeypatch.chdir(tmp_path)
    tracked = tmp_path / f"BENCH_{bench.BENCH_SEQUENCE}.json"
    tracked.write_bytes(b'{"sentinel": true}\n')

    assert main(["bench", "--quick", "--check"]) == 0
    assert tracked.read_bytes() == b'{"sentinel": true}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == [tracked.name]

    assert main(["bench"]) == 0
    assert tracked.read_bytes() != b'{"sentinel": true}\n'
