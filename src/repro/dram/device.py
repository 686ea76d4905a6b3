"""Pseudo-channel device model: banks, bank groups, buses, refresh.

One :class:`PseudoChannel` owns 16 banks (4 groups x 4 banks, Table 1), a
command/address bus and a data bus.  It executes standard command streams
while enforcing every timing constraint.  It does not execute the Pimba
commands: :meth:`PseudoChannel.execute` refuses all five PIM command
kinds, and ``repro.core.scheduler`` prices its all-bank schedules in
closed form instead of issuing them here.  ROADMAP.md's "Execute the PIM
command schedule, or delete the command model" item covers closing that
gap.
"""

from __future__ import annotations

from repro.dram.bank import Bank, FawTracker, TimingError
from repro.dram.commands import Command, CommandKind
from repro.dram.timing import HbmConfig


class PseudoChannel:
    """One 64-bit HBM pseudo-channel with timing-checked banks."""

    def __init__(self, config: HbmConfig):
        self.config = config
        self.timing = config.timing
        org = config.organization
        self.banks = [
            Bank(self.timing, org.columns_per_row, index=i) for i in range(org.banks)
        ]
        self.faw = FawTracker(self.timing)
        self.now = 0
        # Earliest cycle the shared data bus is free.
        self._bus_free = 0
        # Last column command cycle per bank group (tCCD_S/L arbitration).
        self._last_col_cycle: int | None = None
        self._last_col_group: int | None = None
        self.stats = {"bus_busy_cycles": 0, "commands": 0}

    def bank_group_of(self, bank: int) -> int:
        return bank // self.config.organization.banks_per_group

    # -- legality queries -------------------------------------------------

    def earliest_column_issue(self, bank: int, now: int) -> int:
        """Earliest cycle a column command to ``bank`` satisfies tCCD."""
        t = self.banks[bank].earliest_column(now)
        if self._last_col_cycle is not None:
            same_group = self._last_col_group == self.bank_group_of(bank)
            gap = self.timing.tCCD_L if same_group else self.timing.tCCD_S
            t = max(t, self._last_col_cycle + gap)
        return t

    # -- execution ---------------------------------------------------------

    def execute(self, command: Command) -> int:
        """Execute one standard command; returns its completion cycle.

        Raises:
            TimingError: if the command violates any timing constraint.
        """
        kind, cycle = command.kind, command.issue_cycle
        if cycle < self.now:
            raise TimingError(f"command stream not monotonic at cycle {cycle}")
        self.stats["commands"] += 1
        handler = {
            CommandKind.ACT: self._do_activate,
            CommandKind.RD: self._do_read,
            CommandKind.WR: self._do_write,
            CommandKind.PRE: self._do_precharge,
            CommandKind.REF: self._do_refresh,
        }.get(kind)
        if handler is None:
            raise ValueError(
                f"{kind.value} is a PIM command; use repro.core.scheduler"
            )
        done = handler(command)
        self.now = cycle
        return done

    def _do_activate(self, cmd: Command) -> int:
        cycle = self.faw.earliest(cmd.issue_cycle)
        if cycle != cmd.issue_cycle:
            raise TimingError(f"ACT at {cmd.issue_cycle} violates tFAW")
        self.banks[cmd.bank].activate(cmd.issue_cycle, cmd.row)
        self.faw.record(cmd.issue_cycle)
        return cmd.issue_cycle + self.timing.tRCD

    def _do_read(self, cmd: Command) -> int:
        issue = self.earliest_column_issue(cmd.bank, cmd.issue_cycle)
        if issue != cmd.issue_cycle:
            raise TimingError(
                f"RD at {cmd.issue_cycle} violates tCCD (earliest {issue})"
            )
        self.banks[cmd.bank].read(cmd.issue_cycle, cmd.column)
        self._note_column(cmd)
        return self._occupy_bus(cmd.issue_cycle)

    def _do_write(self, cmd: Command) -> int:
        issue = self.earliest_column_issue(cmd.bank, cmd.issue_cycle)
        if issue != cmd.issue_cycle:
            raise TimingError(
                f"WR at {cmd.issue_cycle} violates tCCD (earliest {issue})"
            )
        self.banks[cmd.bank].write(cmd.issue_cycle, cmd.column)
        self._note_column(cmd)
        return self._occupy_bus(cmd.issue_cycle)

    def _do_precharge(self, cmd: Command) -> int:
        self.banks[cmd.bank].precharge(cmd.issue_cycle)
        return cmd.issue_cycle + self.timing.tRP

    def _do_refresh(self, cmd: Command) -> int:
        for bank in self.banks:
            if bank.state.value != "idle":
                raise TimingError("REF requires all banks precharged")
            bank._act_ready = max(bank._act_ready, cmd.issue_cycle + self.timing.tRFC)
        return cmd.issue_cycle + self.timing.tRFC

    # -- helpers -----------------------------------------------------------

    def _note_column(self, cmd: Command) -> None:
        self._last_col_cycle = cmd.issue_cycle
        self._last_col_group = self.bank_group_of(cmd.bank)

    def _occupy_bus(self, cycle: int) -> int:
        if cycle < self._bus_free:
            raise TimingError(f"data bus busy until {self._bus_free}")
        self._bus_free = cycle + self.timing.tBL
        self.stats["bus_busy_cycles"] += self.timing.tBL
        return self._bus_free
