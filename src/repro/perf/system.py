"""Full serving-system models: GPU, GPU+Q, GPU+PIM, Pimba, NeuPIMs.

The Section 6.1 baselines, composed from the substrates:

* **GPU** — everything on the GPU roofline, fp16 state/KV.
* **GPU+Q** — same, with int8 state/KV (bitwidth-matched to Pimba).
* **GPU+PIM** — state update and attention offloaded to an HBM-PIM-style
  time-multiplexed fp16 PIM (no access interleaving, no Fig. 11 overlap).
* **Pimba** — state update and attention on the shared-SPU MX8 PIM.
* **NeuPIMs** — attention-only per-bank PIM (fp16 GEMV with dual row
  buffers); state updates stay on the GPU (Fig. 15's comparison).

GPU and PIM execute in a blocked, mutually exclusive fashion (Section 5.6),
so a step's latency is the sum over operator classes.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.core.accelerator import PimbaAccelerator
from repro.core.config import (
    PimbaConfig,
    hbm_pim_config,
    per_bank_pipelined_config,
    pimba_config,
)
from repro.models.config import ModelSpec
from repro.perf.gpu import GpuModel, GpuSpec, a100
from repro.perf.operators import (
    OpCost,
    OpKind,
    PrecisionConfig,
    attention_op,
    context_free_ops,
    generation_step_ops,
)
from repro.perf.parallelism import Interconnect, communication_seconds, nvlink3
from repro.quant import get_format


class SystemKind(enum.Enum):
    """The five evaluated serving systems."""

    GPU = "GPU"
    GPU_Q = "GPU+Q"
    GPU_PIM = "GPU+PIM"
    PIMBA = "Pimba"
    NEUPIMS = "NeuPIMs"


#: storage format (quant registry name) backing each system's state/KV cache
STATE_FORMATS = {
    SystemKind.GPU: "fp16",
    SystemKind.GPU_Q: "int8",  # int8 with a 16-bit scale per 32 elements
    SystemKind.GPU_PIM: "fp16",
    SystemKind.PIMBA: "mx8SR",
    SystemKind.NEUPIMS: "fp16",
}


def _state_bytes(kind: SystemKind) -> float:
    """State/KV bytes per value, from the quant format's true bit width."""
    return get_format(STATE_FORMATS[kind]).bits_per_value / 8.0


_PRECISIONS = {
    kind: PrecisionConfig(state_bytes=_state_bytes(kind), kv_bytes=_state_bytes(kind))
    for kind in SystemKind
}

_OFFLOADS = {
    SystemKind.GPU: frozenset(),
    SystemKind.GPU_Q: frozenset(),
    SystemKind.GPU_PIM: frozenset({OpKind.STATE_UPDATE, OpKind.ATTENTION}),
    SystemKind.PIMBA: frozenset({OpKind.STATE_UPDATE, OpKind.ATTENTION}),
    SystemKind.NEUPIMS: frozenset({OpKind.ATTENTION}),
}

#: blocked GPU->PIM dispatch cost per offloaded layer (Section 5.6: the two
#: engines alternate; each handoff drains the command queue)
_PIM_DISPATCH_S = 3e-6
#: extra per attention layer: the score results return to the GPU for the
#: softmax, then the attend phase is re-dispatched (two more boundaries
#: plus the softmax kernel itself)
_ATTENTION_ROUNDTRIP_S = 40e-6


def _pim_for(kind: SystemKind, gpu: GpuSpec) -> PimbaConfig | None:
    if kind is SystemKind.GPU_PIM:
        return hbm_pim_config(hbm=gpu.hbm)
    if kind is SystemKind.PIMBA:
        return pimba_config(hbm=gpu.hbm)
    if kind is SystemKind.NEUPIMS:
        # Per-bank fp16 GEMV units; dual row buffers make attention
        # streaming hazard-free, equivalent to the pipelined read path.
        return per_bank_pipelined_config(hbm=gpu.hbm)
    return None


@dataclasses.dataclass(frozen=True)
class StepBreakdown:
    """Latency of one generation step, split by operator class."""

    seconds_by_kind: dict[OpKind, float]
    placements: dict[OpKind, str]

    @property
    def total(self) -> float:
        return sum(self.seconds_by_kind.values())

    def fraction(self, kind: OpKind) -> float:
        if self.total == 0:
            return 0.0
        return self.seconds_by_kind.get(kind, 0.0) / self.total


@dataclasses.dataclass(frozen=True)
class GenerationMetrics:
    """Throughput/latency/memory of one serving configuration."""

    tokens_per_second: float  #: generation-phase throughput
    decode_seconds: float
    prefill_seconds: float
    step: StepBreakdown
    memory_bytes_per_device: float


class ServingSystem:
    """One of the paper's five systems, ready to price workloads."""

    def __init__(
        self,
        kind: SystemKind,
        gpu: GpuSpec | None = None,
        n_devices: int = 1,
        link: Interconnect | None = None,
    ):
        self.kind = kind
        self.gpu_spec = gpu or a100()
        self.gpu = GpuModel(self.gpu_spec)
        self.n_devices = n_devices
        self.link = link or nvlink3()
        self.precision = _PRECISIONS[kind]
        self.offloads = _OFFLOADS[kind]
        pim_cfg = _pim_for(kind, self.gpu_spec)
        self.pim = PimbaAccelerator(pim_cfg) if pim_cfg else None
        #: spec -> (decode, prefill, steps) price tables; see
        #: :meth:`price_tables`
        self._tables: dict[ModelSpec, tuple[dict, dict, dict | None]] = {}
        #: (spec, batch) -> seconds of the context-free ops before and after
        #: ATTENTION; see :meth:`step_seconds`
        self._step_terms: dict[
            tuple[ModelSpec, int], tuple[tuple[float, ...], tuple[float, ...]]
        ] = {}

    # -- one generation step ---------------------------------------------------

    def step_latency(self, spec: ModelSpec, batch: int, seq_len: int) -> StepBreakdown:
        """Latency of generating one token for a batch at context ``seq_len``."""
        ops = generation_step_ops(
            spec, batch, seq_len, self.precision, tp_degree=self.n_devices
        )
        seconds: dict[OpKind, float] = {}
        placements: dict[OpKind, str] = {}
        for op in ops:
            seconds[op.kind], placements[op.kind] = self._priced(
                op, spec, batch, seq_len
            )
        return StepBreakdown(seconds_by_kind=seconds, placements=placements)

    def step_seconds(self, spec: ModelSpec, batch: int, seq_len: int) -> float:
        """``step_latency(spec, batch, seq_len).total``, bit for bit.

        Only the ATTENTION term depends on ``seq_len``: the terms of
        :func:`~repro.perf.operators.context_free_ops` are priced once per
        ``(spec, batch)`` and kept, and ATTENTION is priced per call
        through the same per-op code :meth:`step_latency` runs (a PIM
        attention record is kept per :meth:`step_signature`).  The
        builtin ``sum`` then adds the same floats in the same order as
        :attr:`StepBreakdown.total`, so the result is the same float on
        every Python version (from 3.12 ``sum`` compensates float
        rounding, so a running ``+=`` total would not be).  On a system
        that runs attention on PIM, the serving cost model calls this
        once per distinct ``(batch, step_signature)`` of a spec, not once
        per context (see :meth:`price_tables`).
        """
        terms = self._step_terms.get((spec, batch))
        if terms is None:
            terms = self._step_terms[spec, batch] = tuple(
                tuple(self._priced(op, spec, batch, 0)[0] for op in ops)
                for ops in context_free_ops(
                    spec, batch, self.precision, tp_degree=self.n_devices
                )
            )
        before, after = terms
        attention = attention_op(
            spec, batch, seq_len, self.precision, tp_degree=self.n_devices
        )
        if attention is None:
            return sum((*before, *after))
        seconds = self._priced(attention, spec, batch, seq_len)[0]
        return sum((*before, seconds, *after))

    def step_signature(self, spec: ModelSpec, batch: int, seq_len: int) -> tuple | None:
        """All that :meth:`step_seconds` reads of ``seq_len``, when PIM
        runs attention.

        ``None`` when the step has no ATTENTION term (a model without
        attention layers, or an empty context: see
        :func:`~repro.perf.operators.attention_op`); otherwise the
        accelerator's
        :meth:`~repro.core.accelerator.PimbaAccelerator.attention_signature`
        at the step's heads.  The other terms depend on ``(spec, batch)``
        alone, so two contexts with one signature cost the same float at
        one batch.  Only for a system whose :attr:`attention_on_pim`
        holds.
        """
        if seq_len < 0:
            raise ValueError("seq_len must be >= 0")
        if not (seq_len and spec.attention_layers):
            return None
        return self.pim.attention_signature(
            self._pim_heads(spec, batch), spec.dim_head, seq_len, spec.dim_state
        )

    @property
    def attention_on_pim(self) -> bool:
        """Attention runs on PIM, whose price moves only at DRAM rows."""
        return OpKind.ATTENTION in self.offloads and self.pim is not None

    def price_tables(self, spec: ModelSpec) -> tuple[dict, dict, dict | None]:
        """The ``(decode, prefill, steps)`` price tables of ``spec``.

        ``decode`` maps ``(batch, seq_len)`` and ``prefill`` ``(batch,
        input_len)`` to seconds.  ``steps`` maps ``(batch,``
        :meth:`step_signature` ``)`` to the step total, so a decode point
        whose signature is known costs one lookup instead of a
        :meth:`step_seconds` call; it is ``None`` when attention runs on
        the GPU, whose cost changes with every context length.

        Every :class:`~repro.serving.costs.IterationCostModel` built on
        this system for an equal spec binds the same tables, so a point
        one replica priced is a hit for every other replica, router
        estimate and tier of its fleet.  They live on the system, not at
        module level: a freshly built system starts cold.  The system only
        keeps the dicts; the cost model keys and fills them.
        """
        tables = self._tables.get(spec)
        if tables is None:
            steps = {} if self.attention_on_pim else None
            tables = self._tables[spec] = ({}, {}, steps)
        return tables

    def _priced(
        self, op: OpCost, spec: ModelSpec, batch: int, seq_len: int
    ) -> tuple[float, str]:
        """(seconds, placement) of one operator of a generation step."""
        if op.kind is OpKind.COMMUNICATION:
            reduces = spec.n_layers * (2 if spec.ffn_mult else 1)
            seconds = communication_seconds(
                op.comm_bytes, reduces, self.n_devices, self.link
            )
            return seconds, self.link.name
        if op.kind in self.offloads and self.pim is not None:
            return self._pim_seconds(op, spec, batch, seq_len), "PIM"
        return self.gpu.op_seconds(op), self.gpu_spec.name

    def _pim_heads(self, spec: ModelSpec, batch: int) -> int:
        """Heads of a ``batch``-request step on one device (under TP)."""
        return max(1, round(batch * spec.n_heads / self.n_devices))

    def _pim_seconds(
        self, op: OpCost, spec: ModelSpec, batch: int, seq_len: int
    ) -> float:
        heads = self._pim_heads(spec, batch)
        if op.kind is OpKind.STATE_UPDATE:
            per_layer = self.pim.state_update_timing(
                heads, spec.dim_head, spec.dim_state
            ).seconds + _PIM_DISPATCH_S
            return per_layer * spec.state_update_layers
        per_layer = (
            self.pim.attention_timing(
                heads, spec.dim_head, seq_len, dim_value=spec.dim_state
            ).seconds
            + _PIM_DISPATCH_S
            + _ATTENTION_ROUNDTRIP_S
        )
        return per_layer * spec.attention_layers

    # -- end-to-end request batches ----------------------------------------------

    def prefill_latency(self, spec: ModelSpec, batch: int, input_len: int) -> float:
        """Compute-bound prefill estimate (runs on the GPU in every system)."""
        proj_flops = 2.0 * spec.param_count / self.n_devices * batch * input_len
        attn_flops = (
            spec.attention_layers * batch * spec.n_heads / self.n_devices
            * input_len**2 * (spec.dim_head + spec.dim_state)
        )
        return self.gpu.prefill_seconds(proj_flops + attn_flops)

    def generation_metrics(
        self,
        spec: ModelSpec,
        batch: int,
        input_len: int = 2048,
        output_len: int = 2048,
    ) -> GenerationMetrics:
        """Throughput over a full (input_len, output_len) batch.

        Generation-phase throughput is reported as in Fig. 12: tokens
        generated per second of decode time, with attention priced at the
        mid-generation context length (state updates are length-invariant).
        """
        mid_seq = input_len + output_len // 2
        step = self.step_latency(spec, batch, mid_seq)
        decode = step.total * output_len
        prefill = self.prefill_latency(spec, batch, input_len)
        throughput = batch * output_len / decode if decode else 0.0
        return GenerationMetrics(
            tokens_per_second=throughput,
            decode_seconds=decode,
            prefill_seconds=prefill,
            step=step,
            memory_bytes_per_device=self.memory_usage(
                spec, batch, input_len + output_len
            ),
        )

    @property
    def capacity_bytes(self) -> float:
        """Total HBM capacity across the cluster's devices."""
        return self.gpu_spec.hbm_capacity_bytes * self.n_devices

    def weights_bytes(self, spec: ModelSpec) -> float:
        """Cluster-wide weight bytes (sharded across devices under TP)."""
        return spec.param_count * self.precision.weight_bytes

    def state_bytes_per_request(self, spec: ModelSpec) -> float:
        """Cluster-wide recurrent-state bytes one request keeps resident
        (context-invariant), at this system's storage byte width."""
        return (
            spec.state_update_layers * spec.state_values_per_layer
            * self.precision.state_bytes
        )

    def kv_bytes_per_request(self, spec: ModelSpec, seq_len: int) -> float:
        """Cluster-wide KV-cache bytes of one request at context ``seq_len``."""
        return (
            spec.attention_layers * spec.n_heads * seq_len
            * (spec.dim_head + spec.dim_state) * self.precision.kv_bytes
        )

    def memory_usage(self, spec: ModelSpec, batch: int, seq_len: int) -> float:
        """Per-device bytes: weights + states + KV caches (Fig. 15 right)."""
        per_request = (
            self.state_bytes_per_request(spec)
            + self.kv_bytes_per_request(spec, seq_len)
        )
        return (self.weights_bytes(spec) + batch * per_request) / self.n_devices


def build_system(kind: SystemKind, scale: str = "small", gpu: GpuSpec | None = None,
                 link: Interconnect | None = None) -> ServingSystem:
    """Convenience constructor: small scale = 1 device, large = DGX (8)."""
    n_devices = 1 if scale == "small" else 8
    return ServingSystem(kind, gpu=gpu, n_devices=n_devices, link=link)
