"""Model specifications for the six evaluated LLMs (Section 6.1).

The paper evaluates 2.7B-parameter SU-LLMs (RetNet, GLA, HGRN2, Mamba-2),
the 7B hybrid Zamba2, and the attention-based OPT 7B; for the large-scale
study all are scaled to ~70B following Kaplan-style proportional scaling of
layers and hidden dimensions while keeping the state-update head count
(Section 6.1).

Head geometries follow the published architectures:

* RetNet keeps few large heads with a doubled value dimension.
* GLA uses 4 heads with half-width keys and full-width values.
* HGRN2 expands the RNN state to ``dim_state = 128`` per head.
* Mamba-2 uses 64-wide heads with ``dim_state = 128`` and twice the
  layer count (it has no FFN sub-block).
* Zamba2 interleaves one attention layer per six Mamba-2 layers.
"""

from __future__ import annotations

import dataclasses
import enum


class Family(enum.Enum):
    """Algorithmic family of a model's sequence mixer."""

    RETNET = "retnet"
    GLA = "gla"
    HGRN2 = "hgrn2"
    MAMBA2 = "mamba2"
    ZAMBA2 = "zamba2"  # hybrid Mamba-2 + attention
    TRANSFORMER = "opt"  # pure softmax attention


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """Architecture hyper-parameters of one evaluated model."""

    name: str
    family: Family
    n_layers: int
    d_model: int
    n_heads: int  #: state-update (or attention) heads per layer
    dim_head: int  #: per-head key/query width
    dim_state: int  #: per-head value/state width
    vocab_size: int = 50_280
    ffn_mult: int = 4  #: FFN expansion (0 for Mamba-2-style blocks)
    conv_width: int = 4  #: causal-conv kernel (Mamba-2 family only)
    attn_every: int = 0  #: one attention layer per this many layers (hybrid)
    #: Mamba-2-style models share the B/C (k/q) projections across heads
    #: (n_groups = 1), so the q/k projections are only d_model x dim_head.
    shared_qk: bool = False

    def __post_init__(self) -> None:
        if self.n_layers <= 0 or self.d_model <= 0 or self.n_heads <= 0:
            raise ValueError("model dimensions must be positive")
        if self.family is Family.ZAMBA2 and self.attn_every <= 0:
            raise ValueError("hybrid models need attn_every > 0")

    # -- derived counts ------------------------------------------------------

    @property
    def attention_layers(self) -> int:
        """Layers whose mixer is softmax attention."""
        if self.family is Family.TRANSFORMER:
            return self.n_layers
        if self.family is Family.ZAMBA2:
            return self.n_layers // (self.attn_every + 1)
        return 0

    @property
    def state_update_layers(self) -> int:
        """Layers whose mixer is the generalized state update (Eq. 2)."""
        if self.family is Family.TRANSFORMER:
            return 0
        return self.n_layers - self.attention_layers

    @property
    def state_values_per_layer(self) -> int:
        """State-matrix elements per request per SU layer."""
        return self.n_heads * self.dim_head * self.dim_state

    @property
    def qk_width(self) -> int:
        """Output width of the q and k projections."""
        return self.dim_head if self.shared_qk else self.n_heads * self.dim_head

    @property
    def param_count(self) -> float:
        """Approximate parameter count (projections + FFN + embeddings)."""
        d = self.d_model
        qk = 2 * d * self.qk_width
        v_and_out = 2 * d * self.n_heads * self.dim_state
        if self.family in (Family.MAMBA2, Family.ZAMBA2):
            gate = d * self.n_heads * self.dim_state  # z output gate
        elif self.family in (Family.GLA, Family.HGRN2):
            gate = d * self.n_heads * self.dim_head  # decay/forget gate
        else:
            gate = 0  # RetNet: constant
        ffn = 3 * d * d * self.ffn_mult if self.ffn_mult else 0
        embed = self.vocab_size * d
        return self.n_layers * (qk + v_and_out + gate + ffn) + embed

    def scaled_to(self, target_params: float, name_suffix: str = "-70B") -> "ModelSpec":
        """Proportionally scale layers and width to ``target_params``.

        Head count stays fixed (increasing it degrades perplexity, per the
        paper citing GLA); ``dim_head``/``dim_state`` grow with the hidden
        dimension.
        """
        if target_params <= self.param_count:
            raise ValueError("can only scale up")
        # params ~ n_layers * d_model^2: split growth between both axes.
        growth = target_params / self.param_count
        width_growth = growth ** (1 / 3)
        depth_growth = growth / width_growth**2
        d_model = _round_to(self.d_model * width_growth, 128)
        return dataclasses.replace(
            self,
            name=self.name + name_suffix,
            n_layers=max(1, round(self.n_layers * depth_growth)),
            d_model=d_model,
            dim_head=_round_to(self.dim_head * width_growth, 16),
            dim_state=_round_to(self.dim_state * width_growth, 16),
        )


def _round_to(value: float, multiple: int) -> int:
    return max(multiple, int(round(value / multiple)) * multiple)


# -- the paper's evaluated configurations (small scale) ----------------------

def retnet_2p7b() -> ModelSpec:
    return ModelSpec("RetNet", Family.RETNET, n_layers=32, d_model=2560,
                     n_heads=10, dim_head=256, dim_state=512)


def gla_2p7b() -> ModelSpec:
    return ModelSpec("GLA", Family.GLA, n_layers=32, d_model=2560,
                     n_heads=4, dim_head=320, dim_state=640)


def hgrn2_2p7b() -> ModelSpec:
    return ModelSpec("HGRN2", Family.HGRN2, n_layers=32, d_model=2560,
                     n_heads=20, dim_head=128, dim_state=128)


def mamba2_2p7b() -> ModelSpec:
    # dim_head maps to the SSM d_state (q = C, k = B, both shared across
    # heads); dim_state is the 64-wide head of the 2x-expanded inner stream.
    return ModelSpec("Mamba-2", Family.MAMBA2, n_layers=64, d_model=2560,
                     n_heads=80, dim_head=128, dim_state=64, ffn_mult=0,
                     shared_qk=True)


def zamba2_7b() -> ModelSpec:
    return ModelSpec("Zamba2", Family.ZAMBA2, n_layers=56, d_model=3712,
                     n_heads=58, dim_head=128, dim_state=128, ffn_mult=0,
                     attn_every=6, shared_qk=True)


def opt_7b() -> ModelSpec:
    return ModelSpec("OPT", Family.TRANSFORMER, n_layers=32, d_model=4096,
                     n_heads=32, dim_head=128, dim_state=128)


SMALL_SCALE_SPECS = (
    retnet_2p7b, gla_2p7b, hgrn2_2p7b, mamba2_2p7b, zamba2_7b, opt_7b,
)


def large_scale_specs() -> tuple[ModelSpec, ...]:
    """All six models scaled to ~70B parameters (Fig. 12 right half)."""
    return tuple(spec().scaled_to(70e9) for spec in SMALL_SCALE_SPECS)


def accuracy_spec(family: Family, name: str | None = None) -> ModelSpec:
    """The spec used by the Fig. 4 / Table 2 accuracy harness.

    Head widths stay realistic (dim_head = 64) because the SPE's output
    GEMV averages stochastic-rounding noise over the head dimension —
    shrinking it would overstate SR noise and understate its rescue.
    """
    return ModelSpec(
        name=name or f"accuracy-{family.value}",
        family=family,
        n_layers=2,
        d_model=96,
        n_heads=2,
        dim_head=64,
        dim_state=32,
        vocab_size=512,
        ffn_mult=2,
        attn_every=6 if family is Family.ZAMBA2 else 0,
    )


def tiny_spec(family: Family, name: str | None = None) -> ModelSpec:
    """A laptop-scale spec for functional tests and the accuracy harness."""
    return ModelSpec(
        name=name or f"tiny-{family.value}",
        family=family,
        n_layers=2,
        d_model=64,
        n_heads=2,
        dim_head=16,
        dim_state=16,
        vocab_size=256,
        ffn_mult=2,
        attn_every=6 if family is Family.ZAMBA2 else 0,
    )
