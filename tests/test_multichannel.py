"""Tests for multi-channel systems (8/16-core configurations)."""

import pytest

from repro.schedulers.frfcfs import FrFcfsPolicy
from repro.schedulers.nfq import NfqPolicy
from repro.core.stfm import StfmPolicy
from tests.conftest import ControllerHarness


class TestChannelIndependence:
    def test_channels_issue_in_the_same_cycle(self):
        harness = ControllerHarness(num_channels=2)
        a = harness.submit(0, bank=0, row=1, channel=0)
        b = harness.submit(1, bank=0, row=1, channel=1)
        harness.run_until_done()
        # Same bank index on different channels: fully parallel, so both
        # finish within one uncontended latency (plus scheduling quanta).
        limit = harness.timing.row_closed_latency() + 3 * harness.timing.dram_cycle
        assert a.completed_at - a.arrival <= limit
        assert b.completed_at - b.arrival <= limit

    def test_data_buses_are_per_channel(self):
        same_harness = ControllerHarness(num_channels=2)
        same_channel = [
            same_harness.submit(0, bank=b, row=1, channel=0) for b in range(2)
        ]
        same_harness.run_until_done()
        gap_same = abs(
            same_channel[0].completed_at - same_channel[1].completed_at
        )
        split_harness = ControllerHarness(num_channels=2)
        split = [
            split_harness.submit(0, bank=0, row=2, channel=c) for c in range(2)
        ]
        split_harness.run_until_done()
        gap_split = abs(split[0].completed_at - split[1].completed_at)
        harness = same_harness
        # On one channel the bus serializes the two bursts; across
        # channels they complete together.
        assert gap_same >= harness.timing.burst
        assert gap_split < harness.timing.burst

    def test_one_command_per_channel_per_cycle(self):
        harness = ControllerHarness(num_channels=2)
        for channel in range(2):
            for bank in range(4):
                harness.submit(0, bank=bank, row=1, channel=channel)
        harness.tick()
        issued = sum(
            sum(ch.commands_issued.values()) for ch in harness.controller.channels
        )
        assert issued == 2  # one per channel


class TestStfmAcrossChannels:
    def test_bank_waiting_parallelism_spans_channels(self):
        policy = StfmPolicy(2)
        harness = ControllerHarness(policy=policy, num_threads=2, num_channels=2)
        harness.submit(0, bank=0, row=1, channel=0)
        harness.submit(0, bank=0, row=1, channel=1)
        assert harness.controller.queues.waiting_banks[0] == 2

    def test_slowdowns_are_global_not_per_channel(self):
        """STFM's registers span channels: interference on channel 0
        prioritizes the victim on channel 1 too."""
        policy = StfmPolicy(2, alpha=1.05)
        harness = ControllerHarness(policy=policy, num_threads=2, num_channels=2)
        stalls = {0: 10_000, 1: 10_000}
        policy.set_tshared_source(lambda t: stalls[t])
        policy.registers.add_interference(1, 5_000.0)
        harness.submit(0, bank=0, row=1, channel=1)
        harness.submit(1, bank=0, row=2, channel=1)
        harness.tick()
        assert policy.fairness_mode
        assert policy.max_slowdown_thread == 1


class TestNfqAcrossChannels:
    def test_vft_keyed_per_channel_bank(self):
        policy = NfqPolicy(2)
        harness = ControllerHarness(policy=policy, num_threads=2, num_channels=2)
        harness.submit(0, bank=0, row=1, channel=0)
        harness.run_until_done()
        assert policy.vft(0, 0, 0) > 0
        assert policy.vft(0, 1, 0) == 0


class TestLoadDistribution:
    def test_requests_route_by_decoded_channel(self):
        harness = ControllerHarness(num_channels=2)
        request = harness.submit(0, bank=3, row=7, channel=1)
        assert request.coords.channel == 1
        queues = harness.controller.queues.channels[1]
        assert queues.read_count == 1
        assert harness.controller.queues.channels[0].read_count == 0

    def test_drain_mode_is_per_channel(self):
        harness = ControllerHarness(
            num_channels=2, write_drain_high=2, write_drain_low=0
        )
        # Fill channel 0's write buffer past the watermark; channel 1
        # keeps reads flowing.
        for i in range(3):
            harness.submit(0, bank=0, row=10 + i, channel=0, is_write=True)
        read = harness.submit(1, bank=0, row=1, channel=1)
        harness.tick(60)
        assert read.completed_at is not None
        assert harness.controller.thread_stats[0].writes_completed >= 2
