"""Perplexity evaluation under state quantization (Figs. 4 and 6)."""

from __future__ import annotations

import numpy as np

from repro.accuracy.synthetic_lm import TEMPERATURE, SyntheticLm, log_softmax
from repro.models.base import BaseLlm
from repro.models.config import Family

#: number of warm-up positions excluded from the NLL average: quantization
#: damage accumulates over the state's time constant, as it does over a
#: long WikiText-2 document
DEFAULT_SKIP = 128


def evaluate_perplexity(
    model: BaseLlm,
    tokens: np.ndarray,
    temperature: float = TEMPERATURE,
    skip: int = DEFAULT_SKIP,
) -> float:
    """Teacher-forced perplexity of ``model`` on (batch, seq+1) tokens."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] < skip + 2:
        raise ValueError("tokens must be (batch, seq+1) with seq > skip")
    logits = model.forward(tokens[:, :-1])
    logp = log_softmax(logits, temperature)
    nll = -np.take_along_axis(logp, tokens[:, 1:, None], axis=2)
    return float(np.exp(nll[:, skip:].mean()))


def quantization_sweep(
    family: Family,
    formats: tuple[str, ...],
    batch: int = 4,
    seq_len: int = 384,
    seed: int = 1,
    data_seed: int = 0,
) -> dict[str, float]:
    """Perplexity of every storage format on one model family (one Fig. 4
    group of bars).  ``"fp64"`` is the exact-reference key."""
    lm = SyntheticLm(family, seed=seed)
    rng = np.random.default_rng(data_seed)
    tokens = lm.sample_stream(batch, seq_len, rng)
    results = {"fp64": evaluate_perplexity(lm.teacher, tokens, lm.temperature)}
    for name in formats:
        student = lm.build_student(name)
        results[name] = evaluate_perplexity(student, tokens, lm.temperature)
    return results
