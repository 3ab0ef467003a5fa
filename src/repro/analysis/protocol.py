"""Runtime DRAM protocol sanitizer — the dynamic half of ``repro.analysis``.

An opt-in shadow state machine that observes every DRAM command the
simulator issues (hooked into :class:`repro.dram.channel.Channel` and
the controller's refresh/auto-precharge side channels) and validates
the stream against the DDR2 constraints the model is supposed to honor:

=============  ==========================================================
``CMD_BUS``    at most one command per DRAM cycle per channel
``tRCD``       ACTIVATE-to-column delay
``tRP``        PRECHARGE-to-ACTIVATE delay
``tRAS``       minimum row-open time before a PRECHARGE
``tRC``        ACTIVATE-to-ACTIVATE spacing on the same bank (tRAS+tRP)
``tWTR``       write-burst-end to READ-command turnaround (off when the
               configured ``t_wtr_ns`` is 0 — the baseline model does
               not simulate the turnaround)
``tCCD``       column-command spacing on a channel
``DATA_BUS``   burst windows ``[issue+tCL, issue+tCL+tBurst)`` must not
               overlap on the channel's in-order data bus
``ROW_STATE``  column commands need the matching row open; ACTIVATE
               needs a precharged bank
``BANK_BUSY``  a bank finishes its previous command first
=============  ==========================================================

A violation raises :class:`ProtocolViolation` carrying the rule, a
human-readable message, and the offending command window (the last few
commands observed on the channel) — enough to reconstruct the illegal
sequence without a debugger.

The sanitizer never *changes* simulator state, so a sanitized run is
bit-identical to an unsanitized one; it only converts a silent timing
bug into a loud structured failure.  Enable it with ``--sanitize`` on
the CLI (carried to engine worker processes via ``STFM_SIM_SANITIZE``)
or ``CmpSystem(..., sanitize=True)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.dram.commands import CommandKind
from repro.dram.timing import DramTiming
from repro.faults import env_flag

#: Environment toggle the CLI sets; worker processes inherit it.
SANITIZE_ENV = "STFM_SIM_SANITIZE"

#: Commands kept per channel in the violation window.
HISTORY_DEPTH = 16


def sanitize_enabled() -> bool:
    """Whether new systems should attach a sanitizer (env opt-in)."""
    return env_flag(SANITIZE_ENV)


@dataclass(frozen=True)
class IssuedCommand:
    """One observed DRAM command (a violation-window entry)."""

    cycle: int
    channel: int
    bank: int
    kind: str
    row: int

    def __str__(self) -> str:
        return (
            f"@{self.cycle} ch{self.channel} bank{self.bank} "
            f"{self.kind} row={self.row}"
        )


class ProtocolViolation(AssertionError):
    """A DRAM command stream broke a DDR2 timing/state constraint.

    Attributes:
        rule: Constraint identifier (``tRCD``, ``tRP``, ``tWTR``, ...).
        command: The offending command.
        window: Recent commands on the same channel, oldest first,
            ending with the offending command.
    """

    def __init__(
        self,
        rule: str,
        message: str,
        command: IssuedCommand,
        window: tuple[IssuedCommand, ...],
    ) -> None:
        history = "\n  ".join(str(entry) for entry in window)
        super().__init__(
            f"[{rule}] {message}\n  command window (oldest first):\n  {history}"
        )
        self.rule = rule
        self.command = command
        self.window = window


class _BankShadow:
    """Shadow timing state of one bank."""

    __slots__ = (
        "open_row",
        "activated_at",
        "last_activate_at",
        "precharge_ready_at",
        "busy_until",
    )

    def __init__(self) -> None:
        self.open_row: int | None = None
        self.activated_at = -(1 << 62)
        self.last_activate_at = -(1 << 62)
        self.precharge_ready_at = 0
        self.busy_until = 0


class _ChannelShadow:
    """Shadow timing state of one channel (command + data buses)."""

    __slots__ = (
        "last_command_at",
        "data_bus_busy_until",
        "last_column_at",
        "last_write_data_end",
        "history",
    )

    def __init__(self) -> None:
        self.last_command_at = -(1 << 62)
        self.data_bus_busy_until = 0
        self.last_column_at = -(1 << 62)
        self.last_write_data_end = -(1 << 62)
        self.history: deque[IssuedCommand] = deque(maxlen=HISTORY_DEPTH)


class ProtocolSanitizer:
    """Validates an issued DRAM command stream against DDR2 constraints.

    Args:
        timing: The timing configuration the stream must honor.
        num_channels: Channels in the memory system.
        num_banks: Banks per channel.

    Attributes:
        commands_checked: Total commands validated so far.
    """

    def __init__(
        self, timing: DramTiming, num_channels: int, num_banks: int
    ) -> None:
        self.timing = timing
        self.channels = [_ChannelShadow() for _ in range(num_channels)]
        self.banks = [
            [_BankShadow() for _ in range(num_banks)]
            for _ in range(num_channels)
        ]
        self.commands_checked = 0
        self.refreshes_observed = 0

    # -- the observation hook ------------------------------------------------
    def observe(
        self, channel: int, bank: int, kind: CommandKind, row: int, now: int
    ) -> None:
        """Validate one command about to issue, then advance shadow state.

        Raises:
            ProtocolViolation: The command breaks a constraint.
        """
        timing = self.timing
        shadow = self.channels[channel]
        bank_shadow = self.banks[channel][bank]
        command = IssuedCommand(now, channel, bank, kind.name, row)
        shadow.history.append(command)
        self.commands_checked += 1

        def violate(rule: str, message: str) -> None:
            raise ProtocolViolation(
                rule, message, command, tuple(shadow.history)
            )

        # Shared command bus: one command per DRAM cycle per channel.
        if now < shadow.last_command_at + timing.dram_cycle:
            violate(
                "CMD_BUS",
                f"command at cycle {now} but the channel issued at "
                f"{shadow.last_command_at} (< one DRAM cycle of "
                f"{timing.dram_cycle} apart)",
            )

        if kind is CommandKind.ACTIVATE:
            self._check_activate(violate, bank_shadow, now)
        elif kind is CommandKind.PRECHARGE:
            self._check_precharge(violate, bank_shadow, now)
        else:
            self._check_column(violate, shadow, bank_shadow, kind, row, now)

        # Advance shadow state exactly as Bank.apply / Channel.issue do.
        shadow.last_command_at = now
        if kind is CommandKind.ACTIVATE:
            bank_shadow.open_row = row
            bank_shadow.activated_at = now
            bank_shadow.last_activate_at = now
            bank_shadow.busy_until = now + timing.rcd
        elif kind is CommandKind.PRECHARGE:
            bank_shadow.open_row = None
            bank_shadow.precharge_ready_at = now + timing.rp
            bank_shadow.busy_until = now + timing.rp
        else:
            bank_shadow.busy_until = now + timing.burst
            shadow.data_bus_busy_until = now + timing.cl + timing.burst
            shadow.last_column_at = now
            if kind is CommandKind.WRITE:
                shadow.last_write_data_end = now + timing.cl + timing.burst

    # -- per-kind checks -----------------------------------------------------
    def _check_activate(self, violate, bank_shadow: _BankShadow, now: int):
        timing = self.timing
        if bank_shadow.open_row is not None:
            violate(
                "ROW_STATE",
                f"ACTIVATE with row {bank_shadow.open_row} still open "
                "(precharge first)",
            )
        if now < bank_shadow.precharge_ready_at:
            violate(
                "tRP",
                f"ACTIVATE at {now}, but the precharge completes at "
                f"{bank_shadow.precharge_ready_at} (tRP={timing.rp})",
            )
        trc = timing.ras + timing.rp
        if now < bank_shadow.last_activate_at + trc:
            violate(
                "tRC",
                f"ACTIVATE at {now}, previous ACTIVATE on this bank at "
                f"{bank_shadow.last_activate_at} (tRC=tRAS+tRP={trc})",
            )
        if now < bank_shadow.busy_until:
            violate(
                "BANK_BUSY",
                f"ACTIVATE at {now} while the bank is busy until "
                f"{bank_shadow.busy_until}",
            )

    def _check_precharge(self, violate, bank_shadow: _BankShadow, now: int):
        timing = self.timing
        if bank_shadow.open_row is not None:
            if now < bank_shadow.activated_at + timing.ras:
                violate(
                    "tRAS",
                    f"PRECHARGE at {now}, row opened at "
                    f"{bank_shadow.activated_at} (tRAS={timing.ras})",
                )
        if now < bank_shadow.busy_until:
            violate(
                "BANK_BUSY",
                f"PRECHARGE at {now} while the bank is busy until "
                f"{bank_shadow.busy_until}",
            )

    def _check_column(
        self,
        violate,
        shadow: _ChannelShadow,
        bank_shadow: _BankShadow,
        kind: CommandKind,
        row: int,
        now: int,
    ):
        timing = self.timing
        if bank_shadow.open_row is None:
            violate(
                "ROW_STATE",
                f"{kind.name} to a precharged bank (no open row)",
            )
        elif bank_shadow.open_row != row:
            violate(
                "ROW_STATE",
                f"{kind.name} to row {row} but row "
                f"{bank_shadow.open_row} is open",
            )
        if now < bank_shadow.activated_at + timing.rcd:
            violate(
                "tRCD",
                f"{kind.name} at {now}, ACTIVATE at "
                f"{bank_shadow.activated_at} (tRCD={timing.rcd})",
            )
        if now < bank_shadow.busy_until:
            violate(
                "BANK_BUSY",
                f"{kind.name} at {now} while the bank is busy until "
                f"{bank_shadow.busy_until}",
            )
        if now < shadow.last_column_at + timing.ccd:
            violate(
                "tCCD",
                f"{kind.name} at {now}, previous column command at "
                f"{shadow.last_column_at} (tCCD={timing.ccd})",
            )
        if now + timing.cl < shadow.data_bus_busy_until:
            violate(
                "DATA_BUS",
                f"{kind.name} at {now} puts data on the bus at "
                f"{now + timing.cl}, but the previous burst drains at "
                f"{shadow.data_bus_busy_until}",
            )
        if (
            kind is CommandKind.READ
            and timing.wtr > 0
            and now < shadow.last_write_data_end + timing.wtr
        ):
            violate(
                "tWTR",
                f"READ at {now}, previous write burst ends at "
                f"{shadow.last_write_data_end} (tWTR={timing.wtr})",
            )

    # -- out-of-band state changes -------------------------------------------
    def on_auto_precharge(
        self, channel: int, bank: int, now: int, precharge_start: int
    ) -> None:
        """A closed-page auto-precharge (no explicit PRECHARGE command).

        The controller schedules it at ``precharge_start`` (already
        tRAS-constrained); the shadow bank mirrors the state change so
        later ACTIVATEs validate against the right tRP reference.
        """
        timing = self.timing
        bank_shadow = self.banks[channel][bank]
        command = IssuedCommand(
            precharge_start, channel, bank, "AUTO_PRECHARGE", -1
        )
        self.channels[channel].history.append(command)
        if (
            bank_shadow.open_row is not None
            and precharge_start < bank_shadow.activated_at + timing.ras
        ):
            raise ProtocolViolation(
                "tRAS",
                f"auto-precharge at {precharge_start}, row opened at "
                f"{bank_shadow.activated_at} (tRAS={timing.ras})",
                command,
                tuple(self.channels[channel].history),
            )
        bank_shadow.open_row = None
        bank_shadow.precharge_ready_at = precharge_start + timing.rp
        bank_shadow.busy_until = precharge_start + timing.rp

    def on_refresh(self, channel: int, now: int) -> None:
        """All-bank auto-refresh: banks precharge and block for tRFC."""
        timing = self.timing
        self.refreshes_observed += 1
        for bank_shadow in self.banks[channel]:
            bank_shadow.open_row = None
            busy = max(bank_shadow.busy_until, now) + timing.rfc
            bank_shadow.busy_until = busy
            bank_shadow.precharge_ready_at = busy
