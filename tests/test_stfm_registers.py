"""Tests for STFM's register file (Table 1) and slowdown computation."""

import pytest

from repro.core.registers import SLOWDOWN_CAP, StfmRegisters


class TestConstruction:
    def test_default_weights(self):
        registers = StfmRegisters(4)
        assert [t.weight for t in registers.threads] == [1.0] * 4

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            StfmRegisters(2, weights=[1.0])
        with pytest.raises(ValueError):
            StfmRegisters(2, weights=[1.0, -1.0])
        with pytest.raises(ValueError):
            StfmRegisters(2, weights=[1.0, float("nan")])
        registers = StfmRegisters(2)
        with pytest.raises(ValueError):
            registers.set_weight(0, float("nan"))

    @pytest.mark.parametrize("length", [0, -1, 2.5, float("nan"), True])
    def test_interval_length_validation(self, length):
        with pytest.raises(ValueError):
            StfmRegisters(2, interval_length=length)


class TestSlowdown:
    def test_no_stall_time_means_no_slowdown(self):
        registers = StfmRegisters(2)
        assert registers.slowdown(0, 0) == 1.0

    def test_slowdown_formula(self):
        """S = Tshared / (Tshared - Tinterference)."""
        registers = StfmRegisters(2)
        registers.add_interference(0, 500.0)
        assert registers.slowdown(0, 1000) == pytest.approx(2.0)

    def test_no_interference_means_unit_slowdown(self):
        registers = StfmRegisters(2)
        assert registers.slowdown(0, 1000) == pytest.approx(1.0)

    def test_negative_interference_gives_speedup(self):
        """Constructive sharing (footnote 10) can make Talone > Tshared."""
        registers = StfmRegisters(2)
        registers.add_interference(0, -1000.0)
        assert registers.slowdown(0, 1000) == pytest.approx(0.5)

    def test_slowdown_saturates(self):
        registers = StfmRegisters(2)
        registers.add_interference(0, 999.9)
        assert registers.slowdown(0, 1000) == SLOWDOWN_CAP
        registers.add_interference(0, 10_000.0)  # Talone would be negative
        assert registers.slowdown(0, 1000) == SLOWDOWN_CAP


class TestWeightedSlowdown:
    def test_weight_scales_excess_slowdown(self):
        """S' = 1 + (S - 1) * W: a slowdown of 1.1 at weight 10 reads as 2
        (the paper's Section 3.3 example)."""
        registers = StfmRegisters(2, weights=[10.0, 1.0])
        registers.add_interference(0, 1000 * (1 - 1 / 1.1))
        assert registers.weighted_slowdown(0, 1000) == pytest.approx(2.0, rel=1e-3)

    def test_weight_one_is_identity(self):
        registers = StfmRegisters(1)
        registers.add_interference(0, 300.0)
        assert registers.weighted_slowdown(0, 1000) == pytest.approx(
            registers.slowdown(0, 1000)
        )

    def test_weight_zero_never_slowed(self):
        registers = StfmRegisters(1, weights=[0.0])
        registers.add_interference(0, 900.0)
        assert registers.weighted_slowdown(0, 1000) == pytest.approx(1.0)


class TestIntervalReset:
    def test_reset_after_interval_length(self):
        registers = StfmRegisters(2, interval_length=100)
        registers.add_interference(0, 50.0)
        registers.record_row(0, 3, 42)
        assert not registers.advance_interval(60, [500, 0])
        assert registers.advance_interval(60, [700, 100])
        assert registers.resets == 1
        # After the reset the offsets rebase Tshared and clear the rest.
        assert registers.tshared(0, 700) == 0
        assert registers.tshared(0, 900) == 200
        assert registers.threads[0].t_interference == 0.0
        assert registers.last_row(0, 3) is None

    def test_counter_restarts_after_reset(self):
        registers = StfmRegisters(1, interval_length=100)
        registers.advance_interval(150, [0])
        assert registers.interval_counter == 0

    def test_slowdown_uses_interval_local_tshared(self):
        registers = StfmRegisters(1, interval_length=100)
        registers.advance_interval(100, [10_000])
        registers.add_interference(0, 250.0)
        # Only the 500 post-reset stall cycles count.
        assert registers.slowdown(0, 10_500) == pytest.approx(2.0)


class TestLastRow:
    def test_record_and_lookup(self):
        registers = StfmRegisters(1)
        assert registers.last_row(0, 5) is None
        registers.record_row(0, 5, 77)
        assert registers.last_row(0, 5) == 77
        registers.record_row(0, 5, 78)
        assert registers.last_row(0, 5) == 78

    def test_per_bank_isolation(self):
        registers = StfmRegisters(1)
        registers.record_row(0, 5, 77)
        assert registers.last_row(0, 6) is None
