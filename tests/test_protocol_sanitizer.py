"""Tests for the runtime DRAM protocol sanitizer.

Two layers: direct command streams driven at the sanitizer (each DDR2
constraint violated by a minimal stream, asserting the rule and the
offending command window), and whole-simulation runs with the sanitizer
attached (zero violations, results bit-identical to unsanitized runs).
"""

import pytest

from repro.analysis.protocol import (
    SANITIZE_ENV,
    ProtocolSanitizer,
    ProtocolViolation,
    sanitize_enabled,
)
from repro.dram.commands import CommandKind
from repro.dram.timing import DramTiming

# Default DDR2-800 at 4 GHz, in CPU cycles:
#   tCL = tRCD = tRP = 60, tRAS = 180, burst = 40, tCCD = 40,
#   one DRAM cycle = 10.
TIMING = DramTiming()

ACT = CommandKind.ACTIVATE
PRE = CommandKind.PRECHARGE
READ = CommandKind.READ
WRITE = CommandKind.WRITE


def make_sanitizer(timing=TIMING, channels=1, banks=2):
    return ProtocolSanitizer(timing, channels, banks)


def play(sanitizer, stream):
    """Feed (cycle, bank, kind, row) commands on channel 0."""
    for cycle, bank, kind, row in stream:
        sanitizer.observe(0, bank, kind, row, cycle)


class TestLegalStreams:
    def test_open_page_read_sequence(self):
        sanitizer = make_sanitizer()
        play(
            sanitizer,
            [
                (0, 0, ACT, 7),
                (60, 0, READ, 7),     # tRCD satisfied exactly
                (100, 0, READ, 7),    # row hit, one burst later
                (240, 0, PRE, 7),     # tRAS satisfied (180) and bank idle
                (300, 0, ACT, 9),     # tRP satisfied exactly
            ],
        )
        assert sanitizer.commands_checked == 5

    def test_banks_are_independent(self):
        sanitizer = make_sanitizer()
        play(
            sanitizer,
            [
                (0, 0, ACT, 7),
                (10, 1, ACT, 3),      # other bank, next DRAM cycle
                (60, 0, READ, 7),
                (100, 1, READ, 3),    # data bus drains in order
            ],
        )

    def test_write_then_read_without_turnaround_configured(self):
        # Default tWTR = 0: the model's in-order bus spacing suffices.
        sanitizer = make_sanitizer()
        play(
            sanitizer,
            [(0, 0, ACT, 7), (60, 0, WRITE, 7), (100, 0, READ, 7)],
        )


def expect_violation(rule, stream, timing=TIMING):
    sanitizer = make_sanitizer(timing)
    with pytest.raises(ProtocolViolation) as excinfo:
        play(sanitizer, stream)
    violation = excinfo.value
    assert violation.rule == rule
    return violation


class TestViolations:
    def test_trcd_read_too_soon_after_activate(self):
        violation = expect_violation(
            "tRCD", [(0, 0, ACT, 7), (50, 0, READ, 7)]
        )
        # The window carries the offending command and its cause.
        assert violation.command.kind == "READ"
        assert violation.command.cycle == 50
        kinds = [entry.kind for entry in violation.window]
        assert kinds == ["ACTIVATE", "READ"]

    def test_trp_activate_too_soon_after_precharge(self):
        violation = expect_violation(
            "tRP",
            [
                (0, 0, ACT, 7),
                (60, 0, READ, 7),
                (240, 0, PRE, 7),
                (250, 0, ACT, 9),  # precharge completes at 300
            ],
        )
        assert violation.command.kind == "ACTIVATE"
        assert [entry.kind for entry in violation.window][-2:] == [
            "PRECHARGE", "ACTIVATE",
        ]

    def test_tras_precharge_too_soon_after_activate(self):
        violation = expect_violation(
            "tRAS", [(0, 0, ACT, 7), (100, 0, PRE, 7)]
        )
        assert violation.command.cycle == 100

    def test_twtr_read_inside_write_turnaround(self):
        timing = DramTiming(t_wtr_ns=7.5)  # 30 CPU cycles
        assert timing.wtr == 30
        expect_violation(
            "tWTR",
            [
                (0, 0, ACT, 7),
                (60, 0, WRITE, 7),   # write data occupies until 160
                (160, 0, READ, 7),   # legal bus-wise, inside tWTR
            ],
            timing=timing,
        )

    def test_tccd_column_commands_too_close(self):
        # Give the data bus slack so tCCD is the binding constraint.
        timing = DramTiming(t_ccd_ns=20.0)  # 80 cycles, burst is 40
        expect_violation(
            "tCCD",
            [(0, 0, ACT, 7), (60, 0, READ, 7), (120, 0, READ, 7)],
            timing=timing,
        )

    def test_data_bus_conflict(self):
        # Drop tCCD to zero so the bus overlap check is the one firing:
        # bank 1's read would put data on the bus before bank 0 drains.
        timing = DramTiming(t_ccd_ns=0.0)
        expect_violation(
            "DATA_BUS",
            [
                (0, 0, ACT, 7),
                (10, 1, ACT, 3),
                (70, 0, READ, 7),    # data on bus [130, 170)
                (80, 1, READ, 3),    # would start at 140
            ],
            timing=timing,
        )

    def test_command_bus_two_commands_in_one_dram_cycle(self):
        expect_violation(
            "CMD_BUS", [(0, 0, ACT, 7), (5, 1, ACT, 3)]
        )

    def test_row_state_read_with_no_open_row(self):
        expect_violation("ROW_STATE", [(0, 0, READ, 7)])

    def test_row_state_read_wrong_row(self):
        expect_violation(
            "ROW_STATE", [(0, 0, ACT, 7), (60, 0, READ, 8)]
        )

    def test_row_state_activate_with_row_open(self):
        expect_violation(
            "ROW_STATE", [(0, 0, ACT, 7), (300, 0, ACT, 8)]
        )

    def test_bank_busy_column_during_burst(self):
        expect_violation(
            "BANK_BUSY",
            [(0, 0, ACT, 7), (60, 0, READ, 7), (90, 0, READ, 7)],
        )

    def test_trc_activate_after_fast_refresh(self):
        # A tiny tRFC lets the bank reopen before tRC=tRAS+tRP elapses:
        # the refresh path must not become a tRC loophole.
        timing = DramTiming(t_rfc_ns=1.0)
        sanitizer = make_sanitizer(timing)
        sanitizer.observe(0, 0, ACT, 7, 0)
        sanitizer.on_refresh(0, 10)
        with pytest.raises(ProtocolViolation) as excinfo:
            sanitizer.observe(0, 0, ACT, 7, 70)
        assert excinfo.value.rule == "tRC"

    def test_auto_precharge_respects_tras(self):
        sanitizer = make_sanitizer()
        sanitizer.observe(0, 0, ACT, 7, 0)
        with pytest.raises(ProtocolViolation) as excinfo:
            sanitizer.on_auto_precharge(0, 0, 100, 100)
        assert excinfo.value.rule == "tRAS"

    def test_violation_message_includes_window(self):
        violation = expect_violation(
            "tRCD", [(0, 0, ACT, 7), (50, 0, READ, 7)]
        )
        text = str(violation)
        assert "tRCD" in text
        assert "command window" in text
        assert "ACTIVATE" in text and "READ" in text


class TestSanitizedSimulations:
    """Whole simulations with the sanitizer attached stay violation-free
    and bit-identical to unsanitized runs."""

    WORKLOAD = ["mcf", "libquantum"]
    BUDGET = 4_000

    def _run(self, sanitize, **config_kwargs):
        from repro.engine.jobs import build_trace, resolve_spec
        from repro.schedulers.registry import make_policy
        from repro.sim.config import SystemConfig
        from repro.sim.system import CmpSystem

        config = SystemConfig(num_cores=2, **config_kwargs)
        specs = [resolve_spec(name) for name in self.WORKLOAD]
        traces = [
            build_trace(config, 0, spec, self.BUDGET, i, len(specs))
            for i, spec in enumerate(specs)
        ]
        policy = make_policy("stfm", num_threads=len(specs))
        system = CmpSystem(
            config, traces, policy, self.BUDGET, sanitize=sanitize
        )
        snapshots = system.run()
        return system, [
            (s.instructions, s.cycles, s.memory_stall_cycles, s.reads_issued)
            for s in snapshots
        ]

    @pytest.mark.parametrize(
        "config_kwargs",
        [{}, {"page_policy": "closed"}, {"refresh_enabled": True}],
        ids=["open-page", "closed-page", "refresh"],
    )
    def test_zero_violations_and_bit_identical(self, config_kwargs):
        plain_system, plain = self._run(False, **config_kwargs)
        sane_system, sane = self._run(True, **config_kwargs)
        assert plain_system.sanitizer is None
        assert sane_system.sanitizer is not None
        assert sane_system.sanitizer.commands_checked > 0
        assert plain == sane

    def test_env_toggle_attaches_sanitizer(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert sanitize_enabled()
        system, _ = self._run(None)
        assert system.sanitizer is not None
        monkeypatch.setenv(SANITIZE_ENV, "0")
        assert not sanitize_enabled()

    def test_cli_run_with_sanitize(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main as cli_main

        # Register the env key with monkeypatch so the CLI's write to
        # os.environ is undone at teardown.
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        monkeypatch.setenv("STFM_SIM_CACHE_DIR", str(tmp_path / "store"))
        code = cli_main(
            ["run", "fig1", "--scale", "tiny", "--no-cache", "--sanitize"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sanitizer enabled" in out
        assert "fig1" in out

    def test_parallel_engine_inherits_sanitizer(self, monkeypatch, tmp_path):
        from repro.sim.config import SystemConfig
        from repro.sim.runner import ExperimentRunner

        monkeypatch.setenv(SANITIZE_ENV, "1")
        runner = ExperimentRunner(
            SystemConfig(num_cores=2),
            instruction_budget=self.BUDGET,
            jobs=2,
            cache_dir=str(tmp_path / "store"),
        )
        result = runner.run_workload(self.WORKLOAD, "stfm")
        monkeypatch.setenv(SANITIZE_ENV, "0")
        plain = ExperimentRunner(
            SystemConfig(num_cores=2), instruction_budget=self.BUDGET
        ).run_workload(self.WORKLOAD, "stfm")
        assert [t.slowdown for t in result.threads] == [
            t.slowdown for t in plain.threads
        ]


@pytest.mark.parametrize(
    "value, on",
    [
        ("", False), ("0", False), ("false", False), ("FALSE", False),
        ("no", False), (" No ", False),
        ("1", True), ("true", True), ("yes", True), ("on", True),
    ],
)
def test_sanitizer_switches_agree(monkeypatch, value, on):
    """The DRAM and lease sanitizer switches share one reader, so the
    same value means the same thing for both ("false" is off)."""
    from repro.cluster import lease_model

    monkeypatch.setenv(SANITIZE_ENV, value)
    monkeypatch.setenv(lease_model.LEASE_SANITIZE_ENV, value)
    assert sanitize_enabled() is on
    assert lease_model.sanitize_enabled() is on
