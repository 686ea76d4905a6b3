"""Base interface for storage formats used for states and KV caches.

A format models the *storage* of a tensor in DRAM: ``quantize`` maps a
float32/float64 tensor onto the format's representable lattice and returns
the dequantized values (value semantics).  This models Pimba storing the
state or KV cache in a low-precision format and operating on it with wide
accumulators, under the model's assumption that precision is lost at each
store, not inside the arithmetic.  The SPE's MX units also round operands,
products and sums; ROADMAP.md's "Pimba's numerics through its own
datapath" item measures how far that assumption is from the datapath.

Formats quantize along the *last* axis of the input, which corresponds to
the contiguous DRAM layout direction used by the Pimba data layout
(``repro.core.layout``).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.quant.rounding import RoundingMode


class StorageFormat(abc.ABC):
    """A lossy tensor storage format (group-quantized along the last axis)."""

    #: short registry name, e.g. ``"mx8"``
    name: str = "abstract"
    #: average storage bits per value, including shared metadata
    bits_per_value: float = float("nan")
    #: rounding mode applied when storing
    rounding: RoundingMode = RoundingMode.NEAREST

    @abc.abstractmethod
    def quantize(
        self, x: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Return ``x`` snapped onto the representable lattice.

        Args:
            x: input tensor; quantization groups run along the last axis.
            rng: random source, required when ``self.rounding`` is stochastic.
        """

    @property
    def is_stochastic(self) -> bool:
        """Whether stores use stochastic rounding."""
        return self.rounding is RoundingMode.STOCHASTIC

    def bytes_for(self, n_values: int) -> int:
        """Storage footprint in bytes for ``n_values`` elements."""
        return int(np.ceil(n_values * self.bits_per_value / 8.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, bits={self.bits_per_value})"


class Float16Format(StorageFormat):
    """IEEE binary16 storage — the paper's lossless reference point."""

    name = "fp16"
    bits_per_value = 16.0

    def quantize(
        self, x: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        del rng  # fp16 reference always rounds to nearest
        return np.asarray(x, dtype=np.float16).astype(np.float64)


class Float32Format(StorageFormat):
    """IEEE binary32 storage; effectively exact for this library's tensors."""

    name = "fp32"
    bits_per_value = 32.0

    def quantize(
        self, x: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        del rng
        return np.asarray(x, dtype=np.float32).astype(np.float64)


def pad_to_group(x: np.ndarray, group: int) -> tuple[np.ndarray, int]:
    """Zero-pad the last axis of ``x`` to a multiple of ``group``.

    Returns the padded array and the original last-axis length.
    """
    n = x.shape[-1]
    rem = (-n) % group
    if rem == 0:
        return x, n
    pad = [(0, 0)] * (x.ndim - 1) + [(0, rem)]
    return np.pad(x, pad), n
