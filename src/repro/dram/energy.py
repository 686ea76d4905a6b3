"""DRAM energy coefficients.

Per-operation energies follow the HBM numbers from O'Connor et al.,
"Fine-Grained DRAM" (MICRO 2017), which the paper cites ([52]) as its
source for activation and read energy:

* row activation:            ~909 pJ per activate
* DRAM array read/write:     ~1.51 pJ/bit
* channel I/O transfer:      ~0.80 pJ/bit

The decisive PIM effect (Fig. 14): in-bank computation pays the array
access energy but *not* the channel I/O energy, and MX8 halves the bits
moved relative to fp16.  :class:`repro.perf.energy.EnergyModel` prices
Fig. 14's array and channel-I/O energy with these coefficients.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class DramEnergyParams:
    """Energy coefficients for one HBM device."""

    activate_pj: float = 909.0  #: per row activation
    array_pj_per_bit: float = 1.51  #: bank array read or write
    io_pj_per_bit: float = 0.80  #: transfer over the channel bus
    #: background/static power per pseudo-channel, in watts
    background_w: float = 0.08

    def __post_init__(self) -> None:
        if min(self.activate_pj, self.array_pj_per_bit, self.io_pj_per_bit) < 0:
            raise ValueError("energy coefficients must be non-negative")
