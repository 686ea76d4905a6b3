"""Pimba accelerator configuration.

Section 4.1 compares three PIM organizations, all reproduced here:

* ``TIME_MULTIPLEXED`` — HBM-PIM style: one simple fp16 multiply/add unit,
  each state-update primitive (decay, outer product, update, GEMV) issued
  as a separate pass over the column, so a sub-chunk costs several PIM
  cycles.
* ``PER_BANK_PIPELINED`` — one full 4-stage pipeline per bank; a row buffer
  cannot read and write in the same cycle, so each bank alternates
  read/write and its pipeline is fed only every other cycle.
* ``SHARED_PIPELINED`` (Pimba) — one pipeline per *two* banks with access
  interleaving (Section 5.2): while one bank writes back, the SPU reads
  the other, so the pipeline is fed every cycle with half the units.
"""

from __future__ import annotations

import dataclasses
import enum
import functools

from repro.dram.timing import HbmConfig, a100_hbm
from repro.quant.registry import get_format


class PimDesign(enum.Enum):
    """PIM processing-unit organization."""

    TIME_MULTIPLEXED = "time_multiplexed"
    PER_BANK_PIPELINED = "per_bank_pipelined"
    SHARED_PIPELINED = "pimba"


@dataclasses.dataclass(frozen=True)
class PimbaConfig:
    """Full configuration of one Pimba (or baseline PIM) device."""

    design: PimDesign = PimDesign.SHARED_PIPELINED
    state_format: str = "mx8SR"
    hbm: HbmConfig = dataclasses.field(default_factory=a100_hbm)
    #: serial column-command slots a time-multiplexed unit needs per
    #: sub-chunk of a state update.  HBM-PIM issues one command per
    #: primitive: read S, decay multiply, outer-product multiply, add,
    #: write-back, output MAC — six non-overlapped slots.  (Designs with
    #: a fused read-compute-write path can do 3; Fig. 5's straw man does.)
    time_multiplexed_passes: int = 6
    #: banks sharing one unit in the TIME_MULTIPLEXED design: the paper's
    #: GPU+PIM baseline spans two banks (area-matched to Pimba); the Fig. 5
    #: straw man uses one
    time_mux_sharing: int = 2
    #: pipeline depth of the SPE (Fig. 8: fetch, multiply, add, dot/write)
    pipeline_stages: int = 4

    def __post_init__(self) -> None:
        get_format(self.state_format)  # validate the name eagerly
        if self.time_multiplexed_passes < 1:
            raise ValueError("time_multiplexed_passes must be >= 1")
        if self.time_mux_sharing < 1:
            raise ValueError("time_mux_sharing must be >= 1")

    @property
    def banks_per_unit(self) -> int:
        """Banks sharing one processing unit."""
        if self.design is PimDesign.SHARED_PIPELINED:
            return 2
        if self.design is PimDesign.TIME_MULTIPLEXED:
            return self.time_mux_sharing
        return 1

    @property
    def units_per_channel(self) -> int:
        """Processing units instantiated per pseudo-channel."""
        return self.hbm.organization.banks // self.banks_per_unit

    # Derived from the format once per config: get_format builds a new
    # format object per call.  The cache sits in the instance __dict__,
    # outside the fields, so == and hash are unchanged.
    @functools.cached_property
    def state_bits_per_value(self) -> float:
        return get_format(self.state_format).bits_per_value

    @functools.cached_property
    def values_per_column(self) -> int:
        """State elements held in one DRAM column access."""
        column_bits = self.hbm.organization.column_bytes * 8
        return int(column_bits // self.state_bits_per_value)


def pimba_config(**overrides) -> PimbaConfig:
    """The paper's Pimba design point (shared SPU, MX8 + SR)."""
    return PimbaConfig(**overrides)


def hbm_pim_config(**overrides) -> PimbaConfig:
    """GPU+PIM baseline: HBM-PIM-style time-multiplexed fp16 unit.

    The paper's baseline shares a unit between two banks *without* access
    interleaving, with fp16 state.
    """
    overrides.setdefault("design", PimDesign.TIME_MULTIPLEXED)
    overrides.setdefault("state_format", "fp16")
    return PimbaConfig(**overrides)


def per_bank_pipelined_config(**overrides) -> PimbaConfig:
    """Section 4.1's per-bank pipelined straw man (fp16)."""
    overrides.setdefault("design", PimDesign.PER_BANK_PIPELINED)
    overrides.setdefault("state_format", "fp16")
    return PimbaConfig(**overrides)
