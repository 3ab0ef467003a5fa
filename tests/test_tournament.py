"""Tests for the tournament subsystem (repro.tournament).

Covers spec validation, deterministic content-addressed cell keys, the
stratified matrix builder, the Pareto frontier, a small end-to-end
tournament (JSON payload + chart), serial/parallel bit-identity, and
the warm-rerun-zero-simulations property against a persistent store.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import EngineOptions, engine_options, session_report
from repro.tournament import (
    MATRIX_SIZES,
    TournamentSpec,
    build_matrix,
    frontier_chart,
    pareto_frontier,
    run_tournament,
    stratified_matrix,
)
from repro.workloads import is_streaming_agent

QUICK_POLICIES = ["fr-fcfs", "bliss"]
QUICK_WORKLOADS = [["mcf", "hmmer"], ["libquantum", "gpu-stream"]]


def quick_spec(**overrides) -> TournamentSpec:
    settings = dict(
        policies=QUICK_POLICIES,
        workloads=QUICK_WORKLOADS,
        num_cores=2,
        budget=1_500,
        seed=0,
    )
    settings.update(overrides)
    return TournamentSpec.create(**settings)


# -- spec validation ----------------------------------------------------------


class TestSpecValidation:
    def test_valid_spec_builds(self):
        spec = quick_spec()
        assert spec.labels == ["mcf+hmmer", "libquantum+gpu-stream"]

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"policies": []}, "at least one policy"),
            ({"policies": ["bogus"]}, "unknown policy"),
            ({"policies": ["stfm", "STFM"]}, "duplicate policy"),
            ({"workloads": []}, "at least one workload"),
            ({"workloads": [[]]}, "empty workload"),
            ({"workloads": [["mcf", "hmmer", "astar"]]}, "2 cores"),
            (
                {"workloads": [["mcf", "hmmer"], ["mcf", "hmmer"]]},
                "duplicate workload",
            ),
            ({"budget": 0}, "budget"),
            ({"num_cores": 0}, "num_cores"),
            (
                {"policy_kwargs": {"stfm": {"alpha": 2.0}}},
                "not entered",
            ),
        ],
    )
    def test_rejects(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            quick_spec(**overrides)

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(KeyError, match="bogus"):
            quick_spec(workloads=[["mcf", "bogus"]])

    def test_policy_kwargs_roundtrip(self):
        spec = quick_spec(
            policies=["fr-fcfs", "stfm"],
            policy_kwargs={"stfm": {"alpha": 1.5}},
        )
        assert spec.kwargs_for("stfm") == {"alpha": 1.5}
        assert spec.kwargs_for("STFM") == {"alpha": 1.5}
        assert spec.kwargs_for("fr-fcfs") == {}


class TestCellKeys:
    def test_deterministic_across_equal_specs(self):
        a, b = quick_spec(), quick_spec()
        workload = a.workloads[0]
        assert a.cell_key(workload, "bliss") == b.cell_key(workload, "bliss")
        assert a.digest() == b.digest()

    def test_distinguishes_cell_inputs(self):
        spec = quick_spec()
        base = spec.cell_key(spec.workloads[0], "bliss")
        assert spec.cell_key(spec.workloads[1], "bliss") != base
        assert spec.cell_key(spec.workloads[0], "fr-fcfs") != base
        assert quick_spec(seed=1).cell_key(spec.workloads[0], "bliss") != base
        assert (
            quick_spec(budget=2_000).cell_key(spec.workloads[0], "bliss")
            != base
        )

    def test_stable_when_matrix_grows(self):
        """A cell keeps its key when unrelated workloads join the matrix."""
        small = quick_spec()
        grown = quick_spec(
            workloads=QUICK_WORKLOADS + [["astar", "omnetpp"]]
        )
        workload = small.workloads[0]
        assert small.cell_key(workload, "bliss") == grown.cell_key(
            workload, "bliss"
        )
        assert small.digest() != grown.digest()

    def test_policy_kwargs_feed_the_key(self):
        plain = quick_spec(policies=["stfm"])
        tuned = quick_spec(
            policies=["stfm"], policy_kwargs={"stfm": {"alpha": 2.0}}
        )
        workload = plain.workloads[0]
        assert plain.cell_key(workload, "stfm") != tuned.cell_key(
            workload, "stfm"
        )


# -- matrix -------------------------------------------------------------------


class TestMatrix:
    def test_stratified_matrix_deterministic(self):
        assert stratified_matrix(4, 8, seed=0) == stratified_matrix(
            4, 8, seed=0
        )
        assert stratified_matrix(4, 8, seed=0) != stratified_matrix(
            4, 8, seed=1
        )

    def test_heterogeneous_stratum_present(self):
        matrix = stratified_matrix(4, 8, seed=0)
        hetero = [m for m in matrix if any(is_streaming_agent(n) for n in m)]
        assert len(hetero) == 2  # one quarter of 8
        cpu_only = [
            m for m in matrix if not any(is_streaming_agent(n) for n in m)
        ]
        assert len(cpu_only) == 6

    def test_named_sizes(self):
        for name, count in MATRIX_SIZES.items():
            matrix = build_matrix(name, num_cores=4, seed=0)
            assert len(matrix) == count
        with pytest.raises(ValueError, match="unknown matrix"):
            build_matrix("huge")

    def test_matrix_feeds_a_valid_spec(self):
        spec = TournamentSpec.create(
            policies=["fr-fcfs"],
            workloads=build_matrix("small", num_cores=4),
            num_cores=4,
        )
        assert len(spec.workloads) == MATRIX_SIZES["small"]


# -- frontier -----------------------------------------------------------------


class TestFrontier:
    def test_pareto_dominance(self):
        points = [
            {"policy": "a", "weighted_speedup": 2.0, "unfairness": 1.2},
            {"policy": "b", "weighted_speedup": 1.9, "unfairness": 1.1},
            # Dominated by 'a' (slower AND less fair).
            {"policy": "c", "weighted_speedup": 1.8, "unfairness": 1.3},
        ]
        assert pareto_frontier(points) == ["a", "b"]

    def test_duplicate_points_both_survive(self):
        points = [
            {"policy": "a", "weighted_speedup": 2.0, "unfairness": 1.2},
            {"policy": "b", "weighted_speedup": 2.0, "unfairness": 1.2},
        ]
        assert pareto_frontier(points) == ["a", "b"]

    def test_chart_renders_markers_and_legend(self):
        points = [
            {"policy": "stfm", "weighted_speedup": 1.8, "unfairness": 1.1},
            {"policy": "fr-fcfs", "weighted_speedup": 1.7, "unfairness": 2.0},
        ]
        chart = frontier_chart(points)
        assert "A = stfm" in chart
        assert "B = fr-fcfs" in chart
        assert "* " in chart or "x) *" in chart or "*" in chart
        # Both policies are on this frontier (each wins one axis).
        assert chart.count("*") >= 2

    def test_chart_handles_identical_points(self):
        points = [
            {"policy": "a", "weighted_speedup": 1.5, "unfairness": 1.5},
            {"policy": "b", "weighted_speedup": 1.5, "unfairness": 1.5},
        ]
        chart = frontier_chart(points)  # must not divide by zero
        assert "legend" in chart


# -- end to end ---------------------------------------------------------------


class TestEndToEnd:
    def test_quick_tournament_produces_frontier(self):
        spec = quick_spec()
        with engine_options(EngineOptions(jobs=1)):
            result = run_tournament(spec)
        assert len(result.cells) == 4  # 2 policies x 2 workloads
        keys = {cell["key"] for cell in result.cells}
        assert len(keys) == 4
        for cell in result.cells:
            assert cell["unfairness"] >= 1.0
            assert cell["weighted_speedup"] > 0.0
            assert len(cell["slowdowns"]) == 2
        assert [row["policy"] for row in result.aggregates] == QUICK_POLICIES
        assert result.frontier  # never empty: something is undominated
        assert set(result.frontier) <= set(QUICK_POLICIES)
        payload = result.to_payload()
        json.dumps(payload)  # JSON-serializable as-is
        assert payload["spec_digest"] == spec.digest()
        assert payload["workloads"] == spec.labels
        assert "unfairness (lower is better)" in result.text

    def test_serial_and_parallel_bit_identical(self):
        spec = quick_spec()
        with engine_options(EngineOptions(jobs=1)):
            serial = run_tournament(spec)
        with engine_options(EngineOptions(jobs=2)):
            parallel = run_tournament(spec)
        assert serial.cells == parallel.cells
        assert serial.aggregates == parallel.aggregates
        assert serial.text == parallel.text

    def test_warm_rerun_zero_new_simulations(self, tmp_path):
        spec = quick_spec()
        store = str(tmp_path / "store")
        with engine_options(EngineOptions(jobs=1, store=store)):
            cold = run_tournament(spec)
        before = session_report().snapshot()
        with engine_options(EngineOptions(jobs=1, store=store)):
            warm = run_tournament(spec)
        delta = session_report().since(before)
        assert delta.jobs_run == 0
        assert delta.hits == delta.jobs_total > 0
        assert warm.cells == cold.cells
        assert warm.text == cold.text
