"""Scaled 8-bit integer storage (the paper's ``int8`` / ``int8SR`` formats).

Groups of 32 consecutive values share a float scaling factor ``max|x|/127``;
each value is stored as a signed 8-bit integer (Section 3.2).  The 7-bit
magnitude gives enough mantissa precision to avoid swamping, but Section 4.2
shows the *hardware* cost is high: element-wise addition of two scaled-int
groups requires dequantize → add → requantize with a max-reduction, which is
what `repro.hw.area` charges the int8 datapath for.
"""

from __future__ import annotations

import numpy as np

from repro.quant.formats import StorageFormat, pad_to_group
from repro.quant.rounding import RoundingMode, round_lattice, round_nearest_even


class Int8GroupFormat(StorageFormat):
    """Signed int8 with one shared scale per group of 32 values."""

    def __init__(
        self,
        group: int = 32,
        rounding: RoundingMode = RoundingMode.NEAREST,
        scale_bits: int = 16,
    ):
        if group < 1:
            raise ValueError("group size must be positive")
        self.group = group
        self.rounding = rounding
        self.scale_bits = scale_bits
        self.qmax = 127
        self.name = "int8SR" if rounding is RoundingMode.STOCHASTIC else "int8"
        # 8 bits per value plus the amortized shared scale.
        self.bits_per_value = 8.0 + scale_bits / group

    def quantize(
        self, x: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        padded, n = pad_to_group(x, self.group)
        grouped = padded.reshape(*padded.shape[:-1], -1, self.group)

        # Shared scale per group, itself stored in fp16 as the hardware would.
        amax = np.max(np.abs(grouped), axis=-1, keepdims=True)
        scale = (amax / self.qmax).astype(np.float16).astype(np.float64)
        scale = np.where(scale == 0.0, 1.0, scale)

        units = grouped / scale
        q = round_lattice(units, self.rounding, rng)
        # The group maximum sets the scale, so it is stored at its nearest
        # grid point (±qmax) under every rounding mode: a stochastic step
        # inwards would shrink the scale the next store derives, and
        # re-quantizing a stored group would no longer leave it unchanged.
        q = np.where(np.abs(grouped) == amax, round_nearest_even(units), q)
        q = np.clip(q, -self.qmax, self.qmax)
        out = (q * scale).reshape(padded.shape)
        return out[..., :n] if n != padded.shape[-1] else out
