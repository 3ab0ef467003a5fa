"""Tests for the paper-comparison and report-generation machinery."""

import pytest

from repro.analysis.compare import (
    OrderingCheck,
    lowest,
    ordering_agreement,
    trend,
    trend_direction,
)
from repro.analysis.report import generate_report
from repro.experiments import EXPERIMENTS
from repro.experiments.comparisons import COMPARISONS, SCHEDULERS


class TestOrderingAgreement:
    def test_full_agreement(self):
        paper = {"A": 5.0, "B": 2.0, "C": 1.0}
        measured = {"A": 3.0, "B": 2.5, "C": 1.1}
        check = ordering_agreement(paper, measured)
        assert check.score == 1.0
        assert check.comparisons == 3

    def test_disagreement_recorded(self):
        paper = {"A": 5.0, "B": 1.0}
        measured = {"A": 1.0, "B": 5.0}
        check = ordering_agreement(paper, measured)
        assert check.score == 0.0
        assert check.disagreements == (("A", "B"),)

    def test_none_values_skipped(self):
        paper = {"A": 5.0, "B": None, "C": 1.0}
        measured = {"A": 3.0, "B": 100.0, "C": 1.0}
        check = ordering_agreement(paper, measured)
        assert check.comparisons == 1

    def test_paper_ties_skipped(self):
        paper = {"A": 2.07, "B": 2.08}  # the paper's FCFS vs Cap tie
        measured = {"A": 3.0, "B": 1.0}
        check = ordering_agreement(paper, measured)
        assert check.comparisons == 0
        assert check.score == 1.0

    def test_margin_is_the_closest_agreeing_gap(self):
        paper = {"A": 5.0, "B": 2.0, "C": 1.0}
        clear = ordering_agreement(paper, {"A": 4.0, "B": 2.0, "C": 1.0})
        close = ordering_agreement(paper, {"A": 4.0, "B": 2.0, "C": 1.9})
        assert clear.holds and clear.margin == pytest.approx(0.5)
        assert close.holds and close.margin == pytest.approx(0.05)

    def test_margin_is_minus_the_worst_disagreeing_gap(self):
        paper = {"A": 5.0, "B": 2.0, "C": 1.0}
        check = ordering_agreement(paper, {"A": 1.8, "B": 2.0, "C": 4.0})
        assert not check.holds
        assert check.margin == pytest.approx(-0.55)  # A vs C

    def test_margin_is_zero_with_nothing_compared(self):
        check = ordering_agreement({"A": 2.07, "B": 2.08}, {"A": 3.0, "B": 1.0})
        assert check.holds and check.margin == 0.0

    def test_missing_measured_key_skipped(self):
        paper = {"A": 5.0, "B": 1.0}
        measured = {"A": 3.0}
        assert ordering_agreement(paper, measured).comparisons == 0

    def test_measured_tie_scored_the_same_in_any_key_order(self):
        """fig10 at the tiny scale: FR-FCFS and FR-FCFS+Cap measure the
        same unfairness, which orders the pair neither way."""
        paper = COMPARISONS["fig10"].paper
        measured = {
            "FR-FCFS": 1.7903, "FCFS": 1.70, "FR-FCFS+Cap": 1.7903,
            "NFQ": 1.60, "STFM": 1.20,
        }
        forward = ordering_agreement(paper, measured)
        backward = ordering_agreement(
            dict(reversed(paper.items())), dict(reversed(measured.items()))
        )
        assert (forward.agreements, forward.comparisons) == (8, 9)
        assert (backward.agreements, backward.comparisons) == (8, 9)
        assert ("FR-FCFS", "FR-FCFS+Cap") not in forward.disagreements


class TestHelpers:
    def test_stfm_is_best(self):
        best = lowest({"STFM": 1.0, "FR-FCFS": 2.0}, "STFM")
        assert best.holds and best.margin == pytest.approx(0.5)
        worst = lowest({"STFM": 3.0, "FR-FCFS": 2.0}, "STFM")
        assert not worst.holds and worst.margin == pytest.approx(-0.5)
        assert lowest({"STFM": 2.0, "FR-FCFS": 2.0}, "STFM").holds
        with pytest.raises(KeyError):
            lowest({"FR-FCFS": 2.0}, "STFM")

    def test_trend_direction(self):
        assert trend_direction([1.0, 2.0, 3.0]) == "increasing"
        assert trend_direction([3.0, 2.0, 1.0]) == "decreasing"
        assert trend_direction([1.0, 1.01, 0.99]) == "flat"
        assert trend_direction([1.0, 2.0, 1.0]) == "mixed"
        assert trend_direction([1.0]) == "flat"

    def test_trend_margin_sign_follows_the_verdict(self):
        rising = trend([1.0, 1.5, 2.0], "increasing")
        assert rising.holds and rising.margin > 0
        assert rising.direction == "increasing"
        falling = trend([1.0, 1.5, 2.0], "decreasing")
        assert not falling.holds and falling.margin < 0
        wiggle = trend([1.0, 2.0, 1.0], "increasing")
        assert wiggle.direction == "mixed" and wiggle.margin < 0

    def test_spread(self):
        """The report's spread is worst/best over the values present: the
        paper quotes only FCFS and STFM for fig12."""
        report = generate_report([{
            "experiment_id": "fig12",
            "title": "t",
            "paper_reference": "",
            "rows": [{
                "workload": "GMEAN",
                **{f"unfairness:{key}": 2.0 for key in
                   ("fr-fcfs", "fcfs", "fr-fcfs+cap", "nfq")},
                "unfairness:stfm": 1.0,
            }],
            "extras": {},
        }])
        assert "spread (worst/best scheduler): paper 1.27, measured 2.00" in report

    def test_ordering_check_str(self):
        assert "2/3" in str(OrderingCheck(2, 3))


class TestPaperData:
    def test_all_case_studies_have_all_policies(self):
        for experiment_id in ("fig6", "fig7", "fig8", "fig10", "fig13", "fig9"):
            values = EXPERIMENTS[experiment_id].paper
            assert tuple(values) == SCHEDULERS
            assert all(v is not None for v in values.values())

    def test_stfm_always_best_in_paper(self):
        """Sanity: the transcribed numbers show STFM winning everywhere
        the paper quotes a full set."""
        for experiment in COMPARISONS.values():
            present = {k: v for k, v in experiment.paper.items() if v is not None}
            assert lowest(present, "STFM").holds


class TestGenerateReport:
    def _case_study_result(self):
        return {
            "experiment_id": "fig6",
            "title": "t",
            "paper_reference": "",
            "rows": [
                {"policy": "FR-FCFS", "unfairness": 4.0},
                {"policy": "FCFS", "unfairness": 2.0},
                {"policy": "FR-FCFS+Cap", "unfairness": 1.9},
                {"policy": "NFQ", "unfairness": 1.7},
                {"policy": "STFM", "unfairness": 1.2},
            ],
            "extras": {},
        }

    def test_case_study_section(self):
        report = generate_report([self._case_study_result()])
        assert "fig6" in report
        assert "STFM fairest: **yes**" in report
        assert "| FR-FCFS | 7.28 | 4.00 |" in report

    def test_unknown_experiments_rendered_generically(self):
        result = {
            "experiment_id": "ablate-gamma",
            "title": "gamma sweep",
            "paper_reference": "ref",
            "rows": [{"gamma": 0.5, "unfairness": 1.3}],
            "extras": {},
        }
        report = generate_report([result])
        assert "ablate-gamma" in report
        assert "gamma sweep" in report

    def test_full_results_file_round_trip(self, tmp_path):
        """The report generator handles a real results file end to end."""
        from repro.experiments import run_experiment
        from repro.experiments.base import Scale
        from repro.experiments.io import result_to_dict

        results = [
            result_to_dict(run_experiment("fig6", scale=Scale(budget=2_000)))
        ]
        report = generate_report(results)
        assert "pairwise ordering" in report
