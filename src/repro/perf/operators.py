"""Per-operation cost accounting for one generation step (Fig. 3's bars).

``generation_step_ops`` walks a :class:`~repro.models.config.ModelSpec` and
emits one :class:`OpCost` per operator class — FLOPs, memory traffic and
communication payload — for a single token-generation step of a batch,
*per device* under tensor parallelism.  The GPU roofline
(``repro.perf.gpu``) turns these into seconds; the system models
(``repro.perf.system``) re-route the state-update and attention entries to
PIM devices.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.models.config import Family, ModelSpec


class OpKind(enum.Enum):
    """Operator classes used in the paper's latency breakdowns (Fig. 3/13)."""

    GEMM = "GEMM"
    STATE_UPDATE = "State Update"
    ATTENTION = "Attention"
    DISCRETIZATION = "Discretization"
    CAUSAL_CONV = "Causal Conv"
    COMMUNICATION = "Communication"
    OTHER = "Others"


@dataclasses.dataclass(frozen=True)
class OpCost:
    """Work of one operator class in one generation step, per device."""

    kind: OpKind
    flops: float  #: floating-point operations
    bytes: float  #: DRAM traffic (reads + writes)
    comm_bytes: float = 0.0  #: inter-device payload (all-reduce input size)

    def scaled(self, factor: float) -> "OpCost":
        return OpCost(self.kind, self.flops * factor, self.bytes * factor,
                      self.comm_bytes * factor)


@dataclasses.dataclass(frozen=True)
class PrecisionConfig:
    """Bytes per value for each storage class."""

    weight_bytes: float = 2.0  #: model weights (fp16 everywhere)
    state_bytes: float = 2.0  #: SU-LLM state (2.0 fp16 / ~1.06 int8 / 1.0 MX8)
    kv_bytes: float = 2.0  #: transformer KV cache
    act_bytes: float = 2.0  #: activations


def generation_step_ops(
    spec: ModelSpec,
    batch: int,
    seq_len: int,
    precision: PrecisionConfig | None = None,
    tp_degree: int = 1,
) -> list[OpCost]:
    """Per-device op costs of generating one token for ``batch`` requests.

    Args:
        spec: model architecture.
        seq_len: current context length (drives attention cost).
        precision: storage precisions (GPU+Q halves state/kv bytes).
        tp_degree: tensor-parallel device count; weights, heads and
            per-layer all-reduces are sharded accordingly.
    """
    before, after = context_free_ops(spec, batch, precision, tp_degree)
    attention = attention_op(spec, batch, seq_len, precision, tp_degree)
    return before + ([] if attention is None else [attention]) + after


def context_free_ops(
    spec: ModelSpec,
    batch: int,
    precision: PrecisionConfig | None = None,
    tp_degree: int = 1,
) -> tuple[list[OpCost], list[OpCost]]:
    """The entries of :func:`generation_step_ops` that ignore ``seq_len``.

    Split as (the entries before ATTENTION, the entries after it), the
    two lists ``generation_step_ops`` puts around :func:`attention_op`:
    a caller that prices many contexts at one batch size can price these
    once and still add the terms in the step's operator order.
    """
    if batch <= 0 or tp_degree < 1:
        raise ValueError("batch must be positive, tp_degree >= 1")
    p = precision or PrecisionConfig()
    d = spec.d_model
    heads = spec.n_heads / tp_degree

    before: list[OpCost] = []
    after: list[OpCost] = []

    # ---- GEMM: projections, FFN, LM head -----------------------------------
    proj_params = (spec.param_count - spec.vocab_size * d) / tp_degree
    lm_head_params = spec.vocab_size * d / tp_degree
    gemm_params = proj_params + lm_head_params
    before.append(OpCost(
        OpKind.GEMM,
        flops=2.0 * batch * gemm_params,
        bytes=gemm_params * p.weight_bytes
        + batch * spec.n_layers * d * p.act_bytes * 4,
    ))

    # ---- state update (Eq. 2) ----------------------------------------------
    if spec.state_update_layers:
        state_values = heads * spec.dim_head * spec.dim_state
        per_layer_bytes = batch * state_values * p.state_bytes * 2  # R + W
        operand_bytes = batch * heads * (
            3 * spec.dim_head + spec.dim_state
        ) * p.act_bytes
        before.append(OpCost(
            OpKind.STATE_UPDATE,
            flops=spec.state_update_layers * batch * state_values * 6,
            bytes=spec.state_update_layers * (per_layer_bytes + operand_bytes),
        ))

    # ---- attention over the KV cache goes here: attention_op ---------------

    # ---- Mamba-2-family element-wise stages ---------------------------------
    if spec.family in (Family.MAMBA2, Family.ZAMBA2):
        su_layers = spec.state_update_layers
        inner = heads * spec.dim_state
        after.append(OpCost(
            OpKind.DISCRETIZATION,
            flops=su_layers * batch * heads * (d / tp_degree + 8),
            bytes=su_layers * batch * (inner + heads) * p.act_bytes * 2,
        ))
        after.append(OpCost(
            OpKind.CAUSAL_CONV,
            flops=su_layers * batch * inner * spec.conv_width * 2,
            bytes=su_layers * batch * inner * (spec.conv_width + 2) * p.act_bytes,
        ))

    # ---- residuals, norms, embedding lookup ---------------------------------
    after.append(OpCost(
        OpKind.OTHER,
        flops=spec.n_layers * batch * d * 8,
        bytes=spec.n_layers * batch * d * p.act_bytes * 6 + batch * d * p.weight_bytes,
    ))

    # ---- tensor-parallel all-reduces -----------------------------------------
    if tp_degree > 1:
        reduces_per_layer = 2 if spec.ffn_mult else 1
        payload = batch * d * p.act_bytes
        after.append(OpCost(
            OpKind.COMMUNICATION,
            flops=0.0,
            bytes=0.0,
            comm_bytes=spec.n_layers * reduces_per_layer * payload,
        ))

    return before, after


def attention_op(
    spec: ModelSpec,
    batch: int,
    seq_len: int,
    precision: PrecisionConfig | None = None,
    tp_degree: int = 1,
) -> OpCost | None:
    """The ATTENTION entry of :func:`generation_step_ops`, or ``None``.

    The only operator whose cost depends on ``seq_len``: a caller that
    prices many contexts at one batch size can price
    :func:`context_free_ops` once and only this one per context.  Absent
    for models without attention layers and for an empty context.
    """
    if batch <= 0 or seq_len < 0 or tp_degree < 1:
        raise ValueError("batch must be positive, seq_len >= 0, tp_degree >= 1")
    layers = spec.attention_layers
    if not (layers and seq_len > 0):
        return None
    p = precision or PrecisionConfig()
    heads = spec.n_heads / tp_degree
    kv_read = batch * heads * seq_len * (
        spec.dim_head + spec.dim_state
    ) * p.kv_bytes
    kv_append = batch * heads * (spec.dim_head + spec.dim_state) * p.kv_bytes
    return OpCost(
        OpKind.ATTENTION,
        flops=layers * batch * heads * seq_len
        * (spec.dim_head + spec.dim_state) * 2,
        bytes=layers * (kv_read + kv_append),
    )


def ops_by_kind(ops: list[OpCost]) -> dict[OpKind, OpCost]:
    """Merge a cost list into one entry per kind."""
    merged: dict[OpKind, OpCost] = {}
    for op in ops:
        if op.kind in merged:
            prev = merged[op.kind]
            merged[op.kind] = OpCost(
                op.kind, prev.flops + op.flops, prev.bytes + op.bytes,
                prev.comm_bytes + op.comm_bytes,
            )
        else:
            merged[op.kind] = op
    return merged


def arithmetic_intensity(op: OpCost) -> float:
    """FLOPs per byte — the roofline x-axis (Fig. 1b)."""
    if op.bytes == 0:
        return float("inf")
    return op.flops / op.bytes
