"""Functional post-transformer and transformer models (Section 2 / Fig. 2).

All SU-LLMs route their sequence mixing through the one generalized
state-update operation of Eq. 2 (``repro.models.state_update``), which is
the paper's central observation and what Pimba accelerates.
"""

from repro.models.base import BaseLlm
from repro.models.config import (
    Family,
    ModelSpec,
    gla_2p7b,
    hgrn2_2p7b,
    mamba2_2p7b,
    opt_7b,
    retnet_2p7b,
    tiny_spec,
    zamba2_7b,
)
from repro.models.gla import Gla
from repro.models.hgrn2 import Hgrn2
from repro.models.mamba2 import Mamba2
from repro.models.opt import OptTransformer
from repro.models.registry import MODEL_NAMES, build_model, build_tiny, spec_for
from repro.models.retnet import RetNet
from repro.models.state_update import StateUpdateOp, state_update_step
from repro.models.zamba2 import Zamba2

__all__ = [
    "BaseLlm",
    "Family",
    "ModelSpec",
    "gla_2p7b",
    "hgrn2_2p7b",
    "mamba2_2p7b",
    "opt_7b",
    "retnet_2p7b",
    "tiny_spec",
    "zamba2_7b",
    "Gla",
    "Hgrn2",
    "Mamba2",
    "OptTransformer",
    "MODEL_NAMES",
    "build_model",
    "build_tiny",
    "spec_for",
    "RetNet",
    "StateUpdateOp",
    "state_update_step",
    "Zamba2",
]
