"""Custom DRAM command scheduling for PIM sweeps (Section 5.5, Fig. 11).

A *sweep* is one pass over every chunk (DRAM row) a bank holds — e.g. one
generation step's state update for all requests mapped to the device.
Because the all-bank design executes banks in lock-step, scheduling a
single bank's command sequence gives the channel time.

Per DRAM row, the schedule is::

    ACT4 .. ACT4 .. ACT4 .. ACT4   (spaced tFAW; REG_WRITE fills the gaps)
    COMP x N                       (tCCD_L cadence; N depends on design)
    PRECHARGES                     (RESULT_READ overlapped with tRP)

``REG_WRITE`` moves operands (d, q, k once per chunk group; v per chunk)
over the data bus during the activation gaps; ``RESULT_READ`` drains the
output partial sums while the banks precharge.  Whatever does not fit in
those shadows is *exposed* and added to the row time — this is how the
scheduler reproduces the command-scheduling advantage Fig. 11 describes.
Baselines without Pimba's scheduler (the time-multiplexed HBM-PIM) expose
all operand/result I/O.
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.config import PimbaConfig, PimDesign
from repro.core.layout import KvCacheLayout, StateLayout

#: bytes per partial-sum result element drained by RESULT_READ
RESULT_BYTES_PER_VALUE = 2


@dataclasses.dataclass(frozen=True)
class SweepTiming:
    """Bus-cycle timing of one PIM sweep on one pseudo-channel."""

    bus_cycles: int  #: total schedule length
    rows: int  #: DRAM rows activated per bank
    comp_cycles: int  #: cycles spent on COMP commands
    act_cycles: int  #: activation phases (ACT4 trains + tRCD)
    precharge_cycles: int  #: PRECHARGES windows
    exposed_io_cycles: int  #: REG_WRITE/RESULT_READ not hidden in shadows
    hidden_io_cycles: int  #: operand/result transfer that was overlapped

    @property
    def efficiency(self) -> float:
        """Fraction of the schedule doing useful COMP work."""
        if self.bus_cycles == 0:
            return 1.0
        return self.comp_cycles / self.bus_cycles

    def __add__(self, other: "SweepTiming") -> "SweepTiming":
        return SweepTiming(
            bus_cycles=self.bus_cycles + other.bus_cycles,
            rows=self.rows + other.rows,
            comp_cycles=self.comp_cycles + other.comp_cycles,
            act_cycles=self.act_cycles + other.act_cycles,
            precharge_cycles=self.precharge_cycles + other.precharge_cycles,
            exposed_io_cycles=self.exposed_io_cycles + other.exposed_io_cycles,
            hidden_io_cycles=self.hidden_io_cycles + other.hidden_io_cycles,
        )


def comps_per_subchunk(config: PimbaConfig, needs_write: bool) -> int:
    """Column-command slots each sub-chunk costs under a design.

    * Pimba (shared, interleaved): every bank still performs one read and
      one write column op per sub-chunk — access interleaving keeps the
      *SPU* fed every cycle with half the units, it does not create bank
      bandwidth.  Read-only sweeps are SPU-limited (one column per SPU
      per cycle serves two banks), so they also cost 2 slots.
    * Per-bank pipelined: same two slots when writing; read-only streams
      keep the per-bank unit fully fed at 1 slot.
    * Time-multiplexed: one slot per primitive pass (read+decay multiply,
      update MAC, write-back, output MAC), times the banks sharing the
      unit; GEMV-style read-only ops are its native single pass.
    """
    if config.design is PimDesign.TIME_MULTIPLEXED:
        passes = config.time_multiplexed_passes if needs_write else 1
        return passes * config.banks_per_unit
    if config.design is PimDesign.PER_BANK_PIPELINED:
        return 2 if needs_write else 1
    return 2


def _bus_bursts(config: PimbaConfig, n_bytes: float) -> int:
    """Data-bus bursts (of tBL cycles each) to move ``n_bytes``."""
    column = config.hbm.organization.column_bytes
    return math.ceil(n_bytes / column)


def _sweep(
    config: PimbaConfig,
    rows: int,
    comps_per_row: int,
    reg_bytes_per_row: float,
    result_bytes_per_row: float,
) -> SweepTiming:
    """Schedule ``rows`` uniform rows on one bank (all banks in lock-step)."""
    if rows < 0:
        raise ValueError("row count must be non-negative")
    t = config.hbm.timing
    org = config.hbm.organization
    n_act4 = math.ceil(org.banks / 4)

    act_phase = (n_act4 - 1) * t.tFAW + t.tRCD
    comp_phase = comps_per_row * t.tCCD_L
    pre_phase = t.tRP

    # I/O bursts cross the shared data bus once per bank (operands differ
    # per bank because each bank hosts different heads' chunks).
    reg_cycles = _bus_bursts(config, reg_bytes_per_row * org.banks) * t.tBL
    result_cycles = _bus_bursts(config, result_bytes_per_row * org.banks) * t.tBL

    if config.design is PimDesign.TIME_MULTIPLEXED:
        # No Fig. 11 overlap: all I/O is exposed serially.
        exposed = reg_cycles + result_cycles
        hidden = 0
    else:
        # REG_WRITE hides in the (tFAW - tBL) gaps of the ACT4 train;
        # RESULT_READ overlaps PRECHARGES and the next activation train.
        reg_shadow = (n_act4 - 1) * (t.tFAW - t.tBL)
        result_shadow = pre_phase + act_phase
        exposed = max(0, reg_cycles - reg_shadow)
        exposed += max(0, result_cycles - result_shadow)
        hidden = (reg_cycles + result_cycles) - exposed

    row_total = act_phase + comp_phase + pre_phase + exposed
    return SweepTiming(
        bus_cycles=row_total * rows,
        rows=rows,
        comp_cycles=comp_phase * rows,
        act_cycles=act_phase * rows,
        precharge_cycles=pre_phase * rows,
        exposed_io_cycles=exposed * rows,
        hidden_io_cycles=hidden * rows,
    )


# -- state update (Eq. 2) ------------------------------------------------------

def schedule_state_update_rows(
    config: PimbaConfig,
    layout: StateLayout,
    rows_per_bank: int,
    groups_per_bank: float | None = None,
) -> SweepTiming:
    """Timing of a state-update sweep over ``rows_per_bank`` chunks.

    Args:
        rows_per_bank: DRAM rows (chunks) the most-loaded bank processes.
        groups_per_bank: chunk groups (heads) among those rows, controlling
            how often the shared d/q/k operands are re-sent; defaults to
            ``rows / chunks_per_head``.
    """
    if rows_per_bank == 0:
        return _sweep(config, 0, 0, 0.0, 0.0)
    if groups_per_bank is None:
        groups_per_bank = max(1.0, rows_per_bank / layout.chunks_per_head)

    subchunks_per_row = min(
        layout.used_subchunks_per_chunk, layout.subchunks_per_head
    )
    comps = subchunks_per_row * comps_per_subchunk(config, needs_write=True)

    operand_bytes = config.state_bits_per_value / 8
    shared_bytes = layout.shared_operand_values * operand_bytes
    v_bytes = layout.per_chunk_operand_values * operand_bytes
    reg_per_row = v_bytes + shared_bytes * groups_per_bank / rows_per_bank
    result_per_row = (
        layout.result_values * RESULT_BYTES_PER_VALUE
        * groups_per_bank / rows_per_bank
    )
    return _sweep(config, rows_per_bank, comps, reg_per_row, result_per_row)


def schedule_state_update_sweep(
    config: PimbaConfig,
    layout: StateLayout,
    heads_per_bank: int,
) -> SweepTiming:
    """Head-granularity convenience wrapper (whole chunk groups per bank)."""
    if heads_per_bank < 0:
        raise ValueError("heads_per_bank must be non-negative")
    return schedule_state_update_rows(
        config,
        layout,
        rows_per_bank=heads_per_bank * layout.chunks_per_head,
        groups_per_bank=float(heads_per_bank),
    )


# -- attention (Section 5.4) ---------------------------------------------------

def attention_subchunks_per_row(config: PimbaConfig, layout: KvCacheLayout) -> int:
    """Column accesses per activated row of an attention sweep.

    The whole cache's sub-chunks, capped at one DRAM row: past one row a
    longer context adds rows, never columns per row.
    """
    return min(
        config.hbm.organization.columns_per_row,
        max(1, layout.subchunks_per_pass),
    )


def schedule_attention_rows(
    config: PimbaConfig,
    layout: KvCacheLayout,
    rows_per_bank: int,
    caches_per_bank: float,
    phase: str = "score",
) -> SweepTiming:
    """Timing of one attention phase over ``rows_per_bank`` KV-cache rows.

    Both phases stream the K (or V) cache read-only; the score phase drains
    one partial score per cached position, the attend phase loads one score
    per position and drains the output vector once per cache.
    """
    if phase not in ("score", "attend"):
        raise ValueError("phase must be 'score' or 'attend'")
    if rows_per_bank == 0:
        return _sweep(config, 0, 0, 0.0, 0.0)

    subchunks_per_row = attention_subchunks_per_row(config, layout)
    comps = subchunks_per_row * comps_per_subchunk(config, needs_write=False)
    positions_per_row = subchunks_per_row / layout.subchunks_per_vector
    operand_bytes = config.state_bits_per_value / 8

    if phase == "score":
        reg_per_row = (
            layout.dim_head * operand_bytes * caches_per_bank / rows_per_bank
        )
        result_per_row = positions_per_row * RESULT_BYTES_PER_VALUE
    else:
        reg_per_row = positions_per_row * operand_bytes
        result_per_row = (
            layout.dim_head * RESULT_BYTES_PER_VALUE
            * caches_per_bank / rows_per_bank
        )
    return _sweep(config, rows_per_bank, comps, reg_per_row, result_per_row)


def schedule_attention_sweep(
    config: PimbaConfig,
    layout: KvCacheLayout,
    heads_per_bank: int,
    phase: str = "score",
) -> SweepTiming:
    """Cache-granularity convenience wrapper (whole KV caches per bank)."""
    if heads_per_bank < 0:
        raise ValueError("heads_per_bank must be non-negative")
    return schedule_attention_rows(
        config,
        layout,
        rows_per_bank=heads_per_bank * max(1, layout.rows_per_cache),
        caches_per_bank=float(heads_per_bank),
        phase=phase,
    )
