"""Tests for FCFS, FR-FCFS+Cap and the policy registry."""

import pytest

from repro.core.stfm import StfmPolicy
from repro.schedulers import (
    FcfsPolicy,
    FrFcfsCapPolicy,
    FrFcfsPolicy,
    NfqPolicy,
    available_policies,
    make_policy,
)
from tests.conftest import ControllerHarness


class TestRegistry:
    def test_available_policies(self):
        assert available_policies() == [
            "fr-fcfs",
            "fcfs",
            "fr-fcfs+cap",
            "nfq",
            "stfm",
        ]

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("fr-fcfs", FrFcfsPolicy),
            ("FCFS", FcfsPolicy),
            ("fr-fcfs+cap", FrFcfsCapPolicy),
            ("nfq", NfqPolicy),
            ("stfm", StfmPolicy),
        ],
    )
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name, num_threads=4), cls)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("lru", num_threads=4)

    def test_policy_kwargs_forwarded(self):
        cap_policy = make_policy("fr-fcfs+cap", num_threads=2, cap=7)
        assert cap_policy.cap == 7
        stfm = make_policy("stfm", num_threads=2, alpha=2.0)
        assert stfm.alpha == 2.0

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("stfm", {"alhpa": 3.0}),
            ("stfm", {"alpha": 2.0, "cap": 4}),
            ("fr-fcfs", {"alpha": 2.0}),
            ("fr-fcfs+cap", {"marking_cap": 2}),
            ("mise-stfm", {"gamma": 0.5}),
        ],
    )
    def test_unread_policy_kwargs_rejected(self, name, kwargs):
        """A misspelt option would otherwise run with the default while
        still changing the job's cache digest."""
        with pytest.raises(ValueError, match="does not take"):
            make_policy(name, num_threads=2, **kwargs)

    def test_every_option_a_caller_passes_is_accepted(self):
        options = {
            "fr-fcfs+cap": {"cap": 2},
            "nfq": {"shares": [1.0, 2.0]},
            "par-bs": {"marking_cap": 3},
            "stfm": {"alpha": 1.2, "gamma": 0.5, "interval_length": 1 << 12,
                     "weights": [1.0, 2.0], "interference_basis": "ready"},
            "bliss": {"threshold": 2, "clearing_interval": 500},
            "mise-stfm": {"alpha": 1.2, "epoch_length": 100,
                          "weights": [1.0, 2.0]},
            "staged": {"streaming_threads": [1], "epoch_length": 100,
                       "spill_factor": 3.0, "min_epoch_requests": 8},
        }
        for name in available_policies(include_extensions=True):
            make_policy(name, num_threads=2, **options.get(name, {}))


class TestFcfs:
    def test_strict_arrival_order_beats_row_hits(self):
        harness = ControllerHarness(policy=FcfsPolicy())
        harness.submit(0, bank=0, row=1)
        harness.tick(30)
        older_conflict = harness.submit(1, bank=0, row=2)
        harness.tick(1)
        younger_hit = harness.submit(0, bank=0, row=1, column=5)
        harness.run_until_done()
        assert older_conflict.completed_at < younger_hit.completed_at

    def test_cross_bank_order(self):
        harness = ControllerHarness(policy=FcfsPolicy())
        first = harness.submit(0, bank=0, row=1)
        harness.tick(1)
        second = harness.submit(1, bank=1, row=1)
        harness.run_until_done()
        assert first.completed_at < second.completed_at


class TestFrFcfsCap:
    def test_cap_validation(self):
        with pytest.raises(ValueError):
            FrFcfsCapPolicy(cap=0)

    def _streaming_starvation(self, policy) -> tuple[int, int]:
        """An older row-conflict waits while younger row hits stream.

        Returns (younger hits serviced before the conflict, conflict
        latency).  The cap applies only to *younger* columns bypassing an
        *older* row access, so the conflict must arrive first.
        """
        harness = ControllerHarness(policy=policy)
        harness.submit(0, bank=0, row=1, column=0)
        harness.run_until_done()
        harness.pending.clear()
        # One warm hit keeps the bank's winner a column while the
        # conflict enters the queue; then the younger hit stream arrives.
        warm = harness.submit(0, bank=0, row=1, column=1)
        conflict = harness.submit(1, bank=0, row=2)
        harness.tick(1)
        hits = [harness.submit(0, bank=0, row=1, column=2 + c) for c in range(12)]
        harness.pending = [warm, conflict] + hits
        harness.run_until_done()
        serviced_before = sum(
            1 for h in hits if h.completed_at < conflict.completed_at
        )
        return serviced_before, conflict.completed_at - conflict.arrival

    def test_cap_bounds_bypassing(self):
        unbounded, latency_frfcfs = self._streaming_starvation(FrFcfsPolicy())
        capped, latency_cap = self._streaming_starvation(FrFcfsCapPolicy(cap=4))
        assert unbounded >= 10  # FR-FCFS services nearly all hits first
        assert capped <= 7  # the cap lets the row access through
        assert latency_cap < latency_frfcfs

    def test_smaller_cap_is_stricter(self):
        loose, _ = self._streaming_starvation(FrFcfsCapPolicy(cap=8))
        strict, _ = self._streaming_starvation(FrFcfsCapPolicy(cap=1))
        assert strict <= loose
