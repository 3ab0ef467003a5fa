"""Each experiment's paper shapes, evaluated on hand-built rows.

Every shape gets a case where it holds and one where it fails.  The
numbers EXPERIMENTS.md records for its three misses (fig12, fig14,
fig15) are fed back in, so a known miss stays a miss.
"""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.common import ALL_POLICIES
from repro.experiments.comparisons import COMPARISONS, SCHEDULERS


def fig1_rows(libquantum: float) -> list[dict]:
    return [
        {"cores": cores, "benchmark": name, "memory_slowdown": slowdown}
        for cores in (4, 8)
        for name, slowdown in (
            ("omnetpp", 3.6), ("libquantum", libquantum), ("hmmer", 2.0)
        )
    ]


def fig3_rows(continuous: float, bursty: float, stfm: float) -> list[dict]:
    return [
        {"policy": "FR-FCFS", "continuous_slowdown": 2.3,
         "mean_bursty_slowdown": 2.7, "unfairness": 1.2},
        {"policy": "NFQ", "continuous_slowdown": continuous,
         "mean_bursty_slowdown": bursty, "unfairness": 1.5},
        {"policy": "STFM", "continuous_slowdown": 2.5,
         "mean_bursty_slowdown": 2.9, "unfairness": stfm},
    ]


def fig5_rows(frfcfs: float, stfm: float) -> list[dict]:
    return [
        {"partner": "hmmer", "frfcfs_unfairness": 1.3, "stfm_unfairness": 1.1},
        {"partner": "GMEAN", "frfcfs_unfairness": frfcfs,
         "stfm_unfairness": stfm, "stfm_max_unfairness": 1.35,
         "ws_gain": 1.0, "hmean_gain": 1.0},
    ]


def fig14_rows(values) -> list[dict]:
    """``values``: equal-priority unfairness per weight set, in
    FR-FCFS, NFQ-shares, STFM-weights order."""
    return [
        {"weights": weights, "scheme": scheme, "equal_priority_unfairness": v}
        for weights, per_scheme in zip(
            [(1.0, 16.0, 1.0, 1.0), (1.0, 4.0, 8.0, 1.0)], values
        )
        for scheme, v in zip(("FR-FCFS", "NFQ-shares", "STFM-weights"), per_scheme)
    ]


def fig15_rows(alphas: list[float], frfcfs: float) -> list[dict]:
    rows = [
        {"alpha": alpha, "unfairness": unfairness, "weighted_speedup": 1.6}
        for alpha, unfairness in zip(
            [1.0, 1.05, 1.1, 1.2, 2.0, 5.0, 20.0], alphas
        )
    ]
    return rows + [{"alpha": None, "unfairness": frfcfs, "weighted_speedup": 1.6}]


def table5_rows(banks, row_buffer, stfm) -> list[dict]:
    points = [("banks", v) for v in (4, 8, 16)] + [
        ("row_buffer", v) for v in (1024, 2048, 4096)
    ]
    return [
        {"axis": axis, "value": value, "frfcfs_unfairness": frfcfs,
         "stfm_unfairness": s, "frfcfs_ws": 2.0, "stfm_ws": 2.1}
        for (axis, value), frfcfs, s in zip(points, [*banks, *row_buffer], stfm)
    ]


def attack_rows(stfm: float) -> list[dict]:
    return [
        {"policy": "FR-FCFS", "attack_amplification": 5.0},
        {"policy": "NFQ", "attack_amplification": 1.1},
        {"policy": "STFM", "attack_amplification": stfm},
    ]


def comparison_rows(experiment_id: str, measured: dict) -> list[dict]:
    """Case-study rows, or a sweep's rows ending in the GMEAN row."""
    if experiment_id in ("fig9", "fig11", "fig12"):
        return [
            {"workload": "mcf+hmmer", **{f"unfairness:{k}": 1.5 for k in ALL_POLICIES}},
            {"workload": "GMEAN", **{
                f"unfairness:{key}": measured[name]
                for key, name in zip(ALL_POLICIES, SCHEDULERS)
            }},
        ]
    return [{"policy": name, "unfairness": value} for name, value in measured.items()]


def like_paper(experiment_id: str, reverse: bool = False) -> dict:
    """Measured unfairness ordered as the paper orders it (or reversed),
    with STFM fairest (or least fair)."""
    paper = COMPARISONS[experiment_id].paper
    filled = {name: value or 2.5 for name, value in paper.items()}
    if reverse:
        return {name: 10.0 - value for name, value in filled.items()}
    return {name: 1.0 + value / 10 for name, value in filled.items()}


#: Per experiment with shapes: rows on which every shape holds, and rows
#: on which every shape fails.
CASES = {
    "fig1": (fig1_rows(libquantum=1.4), fig1_rows(libquantum=4.0)),
    "fig3": (fig3_rows(3.3, 2.4, 1.2), fig3_rows(2.4, 3.3, 1.6)),
    "fig5": (fig5_rows(1.32, 1.13), fig5_rows(1.13, 1.32)),
    "fig14": (
        fig14_rows([(2.2, 1.4, 1.1), (2.2, 1.8, 1.3)]),
        fig14_rows([(2.2, 1.1, 1.4), (2.2, 1.3, 1.8)]),
    ),
    "fig15": (
        fig15_rows([1.1, 1.15, 1.2, 1.3, 1.5, 1.8, 1.9], frfcfs=2.0),
        fig15_rows([1.3, 1.2, 1.1, 1.3, 1.2, 1.1, 1.1], frfcfs=2.0),
    ),
    "table5": (
        table5_rows((2.2, 2.0, 1.8), (1.8, 2.0, 2.3), [1.4] * 6),
        table5_rows((1.8, 2.0, 2.2), (2.3, 2.0, 1.8), [1.2, 1.8] * 3),
    ),
    "attack": (attack_rows(1.1), attack_rows(3.0)),
    **{
        experiment_id: (
            comparison_rows(experiment_id, like_paper(experiment_id)),
            comparison_rows(experiment_id, like_paper(experiment_id, reverse=True)),
        )
        for experiment_id in COMPARISONS
    },
}


def test_every_experiment_with_shapes_has_cases():
    assert set(CASES) == {i for i, e in EXPERIMENTS.items() if e.shapes}


@pytest.mark.parametrize("experiment_id", sorted(CASES))
def test_every_shape_holds_on_its_holding_rows(experiment_id):
    verdicts = EXPERIMENTS[experiment_id].verdicts(CASES[experiment_id][0])
    assert verdicts
    for name, verdict in verdicts.items():
        assert verdict.holds is True, name
        assert verdict.margin > 0, name


@pytest.mark.parametrize("experiment_id", sorted(CASES))
def test_every_shape_fails_on_its_failing_rows(experiment_id):
    verdicts = EXPERIMENTS[experiment_id].verdicts(CASES[experiment_id][1])
    for name, verdict in verdicts.items():
        assert verdict.holds is False, name
        assert verdict.margin < 0, name


class TestKnownMisses:
    """The measured numbers EXPERIMENTS.md prints for its misses."""

    def test_fig12_stfm_is_not_fairest(self):
        gmean = dict(zip(SCHEDULERS, (2.06, 1.66, 1.74, 1.93, 1.74)))
        verdicts = EXPERIMENTS["fig12"].verdicts(comparison_rows("fig12", gmean))
        assert not verdicts["stfm_fairest"].holds
        assert verdicts["stfm_fairest"].margin == pytest.approx(1 - 1.74 / 1.66)
        assert verdicts["orders_like_paper"].disagreements == (("FCFS", "STFM"),)

    def test_fig14_stfm_weights_not_fairer_than_nfq_shares(self):
        rows = fig14_rows([(2.22, 1.42, 1.07), (2.22, 1.14, 1.50)])
        verdict = EXPERIMENTS["fig14"].verdicts(rows)[
            "stfm_keeps_equal_weights_fairer"
        ]
        assert not verdict.holds
        assert verdict.margin == pytest.approx(1 - 1.50 / 1.14)

    def test_fig15_unfairness_against_alpha_is_mixed(self):
        rows = fig15_rows([1.25, 1.26, 1.22, 1.22, 1.28, 1.62, 1.65], frfcfs=1.88)
        verdicts = EXPERIMENTS["fig15"].verdicts(rows)
        assert verdicts["unfairness_rises_with_alpha"].direction == "mixed"
        assert not verdicts["unfairness_rises_with_alpha"].holds
        assert verdicts["large_alpha_converges_to_frfcfs"].holds
