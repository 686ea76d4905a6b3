"""DRAM/HBM parameters the paper stack prices with: Table 1 and energy.

Two cited tables, no command model: the Table 1 timing parameters and
pseudo-channel organization (``repro.dram.timing``), which the Pimba
core's closed-form command schedule (``repro.core.scheduler``) and the
GPU model read, and the O'Connor energy coefficients
(``repro.dram.energy``), which the Fig. 14 energy model
(``repro.perf.energy``) reads.
"""

from repro.dram.energy import DramEnergyParams
from repro.dram.timing import (
    HbmConfig,
    HbmOrganization,
    TimingParams,
    a100_hbm,
    h100_hbm,
)

__all__ = [
    "DramEnergyParams",
    "HbmConfig",
    "HbmOrganization",
    "TimingParams",
    "a100_hbm",
    "h100_hbm",
]
