"""The Pimba device: functional execution plus command-accurate timing.

:class:`PimbaAccelerator` is the top-level object a serving system talks
to.  It owns a device configuration and exposes:

* **functional** state-update / attention execution with the exact storage
  numerics the hardware would produce (MX8 + stochastic rounding for
  Pimba; fp16 for the HBM-PIM baseline), and
* **timing** queries that distribute a workload over pseudo-channels and
  banks and run the Section 5.5 command schedules to get seconds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import PimbaConfig, PimDesign, pimba_config
from repro.core.layout import kv_layout_for, state_layout_for
from repro.core.scheduler import (
    SweepTiming,
    schedule_attention_rows,
    schedule_state_update_rows,
)
from repro.quant.registry import get_format


@dataclasses.dataclass(frozen=True)
class PimTiming:
    """Seconds plus the underlying schedule for one offloaded operation."""

    seconds: float
    sweep: SweepTiming
    heads_per_bank: int

    @property
    def bus_cycles(self) -> int:
        return self.sweep.bus_cycles


class PimbaAccelerator:
    """One PIM-enabled memory device attached to a GPU."""

    def __init__(self, config: PimbaConfig | None = None, seed: int = 0xACE1):
        self.config = config or pimba_config()
        self.format = get_format(self.config.state_format)
        self._rng = np.random.default_rng(seed)
        hbm = self.config.hbm
        #: every bank of every pseudo-channel sweeps in lock-step
        self._banks = hbm.pseudo_channels * hbm.organization.banks
        self._columns_per_row = hbm.organization.columns_per_row
        #: attention records by :meth:`attention_signature`
        self._attention_memo: dict[tuple, PimTiming] = {}

    # -- functional execution ----------------------------------------------

    def store_state(self, state: np.ndarray) -> np.ndarray:
        """Quantize a state tensor into the device storage format.

        The model assumes the SPE loses precision only when the updated
        state is written back to the row buffer — once per update — so
        storage quantization stands in for the hardware numerics.  That
        is an assumption, not a checked fact: the bit-level block path in
        ``repro.core.spe`` also rounds its MX8 operands and every product
        and sum, and no test compares the two.  ROADMAP.md's "Pimba's
        numerics through its own datapath" item measures the gap and
        plans the datapath mode.
        """
        rng = self._rng if self.format.is_stochastic else None
        return self.format.quantize(state, rng=rng)

    def state_update(
        self,
        state: np.ndarray,
        d: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        q: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched Eq. 2 with device storage numerics.

        Shapes (leading axes broadcast over batch and heads):
            state: (..., dim_head, dim_state)
            d, k, q: (..., dim_head)
            v: (..., dim_state)

        Returns (new_state, y) with ``y`` of shape (..., dim_state).
        """
        state = self.store_state(state)
        new_state = d[..., :, None] * state + k[..., :, None] * v[..., None, :]
        new_state = self.store_state(new_state)
        y = np.einsum("...hs,...h->...s", new_state, q)
        return new_state, y

    def attention(
        self,
        q: np.ndarray,
        k_cache: np.ndarray,
        v_cache: np.ndarray,
    ) -> np.ndarray:
        """Single-token attention with the KV cache in device storage.

        Shapes: q (..., dim_head); k_cache/v_cache (..., seq, dim_head).
        The score softmax runs on the GPU between the two PIM phases
        (Section 5.4), in full precision.
        """
        rng = self._rng if self.format.is_stochastic else None
        k_cache = self.format.quantize(k_cache, rng=rng)
        v_cache = self.format.quantize(v_cache, rng=rng)
        scores = np.einsum("...sh,...h->...s", k_cache, q)
        scores = scores / np.sqrt(q.shape[-1])
        scores = scores - scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        weights = weights / weights.sum(axis=-1, keepdims=True)
        return np.einsum("...s,...sh->...h", weights, v_cache)

    # -- timing -------------------------------------------------------------

    def state_update_timing(
        self, total_heads: int, dim_head: int, dim_state: int
    ) -> PimTiming:
        """Latency of one generation step's state updates.

        Chunks (DRAM rows) are spread across every bank of every
        pseudo-channel; when there are fewer heads than banks, a single
        head's chunk group is split so no bank idles.  The most-loaded
        bank sets the all-bank lock-step latency.

        Args:
            total_heads: batch size x state-update heads resident on this
                device (after tensor parallelism).
            dim_head / dim_state: per-head state shape.
        """
        layout = state_layout_for(self.config, dim_head, dim_state)
        banks = self._banks
        total_rows = total_heads * layout.chunks_per_head
        rows_per_bank = -(-total_rows // banks) if total_rows else 0
        groups_per_bank = max(1.0, total_heads / banks) if total_heads else 0.0
        sweep = schedule_state_update_rows(
            self.config, layout, rows_per_bank, groups_per_bank
        )
        seconds = sweep.bus_cycles / self.config.hbm.bus_frequency_hz
        return PimTiming(
            seconds=seconds, sweep=sweep,
            heads_per_bank=-(-total_heads // banks) if total_heads else 0,
        )

    def attention_signature(
        self,
        total_heads: int,
        dim_head: int,
        seq_len: int,
        dim_value: int | None = None,
    ) -> tuple:
        """What one generation step's attention sweeps read of their inputs.

        A PIM sweep is row-granular (Section 5.5):
        ``schedule_attention_rows`` reads the rows per bank, the columns
        streamed per row and the vector geometry of its cache, never the
        context length itself.  The signature is exactly those values for
        the K sweep (``dim_head``-wide vectors) and the V sweep
        (``dim_value``-wide), after the caches and heads per bank:

            (caches, heads_per_bank,
             k_rows_per_bank, k_columns_per_row, k_columns_per_vector, dim_head,
             v_rows_per_bank, v_columns_per_row, v_columns_per_vector, dim_value)

        Two calls with equal signatures get the same
        :meth:`attention_timing` record.  Computed in integer arithmetic
        from the device geometry, with no layout objects: it is the
        :meth:`attention_timing` memo key and the key a serving system's
        step table files decode totals under.
        """
        if seq_len < 0:
            raise ValueError("sequence length must be non-negative")
        banks = self._banks
        columns = self._columns_per_row
        per_column = self.config.values_per_column
        caches = max(1.0, total_heads / banks) if total_heads else 0.0
        signature = [caches, -(-total_heads // banks)]
        for dim in (dim_head, dim_value or dim_head):
            # kv_layout_for's subchunks_per_vector, subchunks_per_pass and
            # rows_per_cache, then attention_subchunks_per_row, on ints
            per_vector = -(-dim // per_column)
            per_pass = per_vector * seq_len
            rows = -(-per_pass // columns) or 1
            signature += (
                -(-total_heads * rows // banks),
                min(columns, per_pass or 1),
                per_vector,
                dim,
            )
        return tuple(signature)

    def attention_timing(
        self,
        total_heads: int,
        dim_head: int,
        seq_len: int,
        dim_value: int | None = None,
    ) -> PimTiming:
        """Latency of one generation step's attention (score + attend).

        The score phase streams the K cache (``dim_head``-wide vectors);
        the attend phase streams the V cache (``dim_value``-wide).

        Memoized by :meth:`attention_signature`: contexts that fill the
        same rows share one (immutable) record.
        """
        key = self.attention_signature(total_heads, dim_head, seq_len, dim_value)
        timing = self._attention_memo.get(key)
        if timing is None:
            caches, heads_per_bank, k_rows = key[:3]
            v_rows = key[6]
            total = schedule_attention_rows(
                self.config,
                kv_layout_for(self.config, dim_head, seq_len),
                k_rows,
                caches,
                "score",
            ) + schedule_attention_rows(
                self.config,
                kv_layout_for(self.config, dim_value or dim_head, seq_len),
                v_rows,
                caches,
                "attend",
            )
            timing = self._attention_memo[key] = PimTiming(
                seconds=total.bus_cycles / self.config.hbm.bus_frequency_hz,
                sweep=total,
                heads_per_bank=heads_per_bank,
            )
        return timing

    # -- capacity ------------------------------------------------------------

    def state_bytes(self, total_heads: int, dim_head: int, dim_state: int) -> int:
        """Device bytes holding all resident states in the storage format."""
        return self.format.bytes_for(total_heads * dim_head * dim_state)

    def kv_bytes(self, total_heads: int, dim_head: int, seq_len: int) -> int:
        """Device bytes holding all resident KV caches (K and V)."""
        return self.format.bytes_for(2 * total_heads * dim_head * seq_len)
