"""Seeded arrival processes and length distributions for serving traces.

Production traffic is neither fixed-shape nor synchronized: requests
arrive as a point process and carry their own prompt/answer lengths.  This
module builds :class:`~repro.workloads.requests.Trace` objects from

* **Poisson** arrivals (exponential gaps — the memoryless baseline),
* **Gamma** arrivals with a coefficient of variation (``cv > 1`` models
  bursty traffic, ``cv = 1`` degenerates to Poisson),
* **multi-turn chat** sessions (:func:`multiturn_chat_trace`): Poisson
  session arrivals whose turns re-send the growing conversation as the
  prompt — the shared-prefix workload a prefix cache exists for,
* length samplers: fixed (the paper's evaluation shape), lognormal
  (the long-tailed shape of real chat traces), or empirical pairs,

plus JSON save/load so measured traces can be replayed bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
from collections.abc import Callable, Sequence

import numpy as np

from repro.workloads.requests import Batch, Trace

#: draws one (input_len, output_len) pair
LengthSampler = Callable[[np.random.Generator], tuple[int, int]]


# ---------------------------------------------------------------------------
# parameter checks
# ---------------------------------------------------------------------------


def _check_positive(**values: float) -> None:
    """Refuse a rate or a scale unless ``0 < value < inf``.

    NaN fails every comparison, so the chained test refuses it too: a
    NaN or infinite parameter would otherwise draw NaN or zero gaps.
    """
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_counts(**values: int) -> None:
    """Refuse a count or a token length below one."""
    for name, value in values.items():
        if not value >= 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")


# ---------------------------------------------------------------------------
# length distributions
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _FixedLengths:
    """The fixed sampler: it draws nothing, so a trace fills its length
    columns without calling it once per request."""

    input_len: int
    output_len: int

    def __call__(self, rng: np.random.Generator) -> tuple[int, int]:
        del rng
        return self.input_len, self.output_len


def fixed_lengths(input_len: int = 1024, output_len: int = 256) -> LengthSampler:
    """Every request has the same shape (the paper's static evaluation)."""
    _check_counts(input_len=input_len, output_len=output_len)
    return _FixedLengths(input_len, output_len)


def lognormal_lengths(
    median_input: int = 1024,
    median_output: int = 256,
    sigma: float = 0.5,
    max_input: int = 8192,
    max_output: int = 4096,
) -> LengthSampler:
    """Long-tailed lengths: lognormal around the medians, clipped."""
    _check_counts(
        median_input=median_input,
        median_output=median_output,
        max_input=max_input,
        max_output=max_output,
    )
    _check_positive(sigma=sigma)

    def sample(rng: np.random.Generator) -> tuple[int, int]:
        inp = int(np.clip(round(median_input * np.exp(rng.normal(0, sigma))),
                          1, max_input))
        out = int(np.clip(round(median_output * np.exp(rng.normal(0, sigma))),
                          1, max_output))
        return inp, out

    return sample


def empirical_lengths(pairs: Sequence[tuple[int, int]]) -> LengthSampler:
    """Resample (input, output) pairs measured from a real trace."""
    if not pairs:
        raise ValueError("need at least one length pair")
    frozen = tuple((int(i), int(o)) for i, o in pairs)
    for k, (inp, out) in enumerate(frozen):
        if inp < 1 or out < 1:
            raise ValueError(
                f"pairs[{k}] is ({inp}, {out}): both lengths must be at least 1"
            )

    def sample(rng: np.random.Generator) -> tuple[int, int]:
        return frozen[int(rng.integers(len(frozen)))]

    return sample


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------


def _trace_from_gaps(
    gaps: np.ndarray, lengths: LengthSampler, rng: np.random.Generator
) -> Trace:
    """Arrivals at the running sum of ``gaps``, lengths from ``lengths``.

    A sampler that draws is called once per request, in arrival order,
    after the gaps: the order the per-request loop drew in.
    """
    arrivals = np.cumsum(gaps).tolist()
    n = len(arrivals)
    if isinstance(lengths, _FixedLengths):
        input_len = [lengths.input_len] * n
        output_len = [lengths.output_len] * n
    else:
        pairs = [lengths(rng) for _ in range(n)]
        input_len = [inp for inp, _ in pairs]
        output_len = [out for _, out in pairs]
    return Trace.from_columns(list(range(n)), arrivals, input_len, output_len)


def poisson_trace(
    qps: float,
    n_requests: int,
    lengths: LengthSampler | None = None,
    seed: int = 0,
) -> Trace:
    """A Poisson arrival process at ``qps`` requests per second."""
    _check_positive(qps=qps)
    _check_counts(n_requests=n_requests)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / qps, size=n_requests)
    return _trace_from_gaps(gaps, lengths or fixed_lengths(), rng)


def gamma_trace(
    qps: float,
    n_requests: int,
    cv: float = 2.0,
    lengths: LengthSampler | None = None,
    seed: int = 0,
) -> Trace:
    """Gamma-gap arrivals with coefficient of variation ``cv``.

    Mean gap is ``1/qps``; ``cv > 1`` produces bursts separated by lulls
    (shape ``1/cv**2 < 1``), the regime where tail latencies blow up first.
    ``cv = 1`` is exactly Poisson.
    """
    _check_positive(qps=qps, cv=cv)
    _check_counts(n_requests=n_requests)
    rng = np.random.default_rng(seed)
    shape = 1.0 / cv**2
    gaps = rng.gamma(shape, scale=cv**2 / qps, size=n_requests)
    return _trace_from_gaps(gaps, lengths or fixed_lengths(), rng)


def static_trace(batch: Batch) -> Trace:
    """All requests of ``batch`` arrive at t=0 (static-batching parity)."""
    return Trace.from_batch(batch)


def multiturn_chat_trace(
    session_qps: float,
    n_sessions: int,
    turns: int = 4,
    *,
    first_input: int = 128,
    user_tokens: int = 32,
    output_len: int = 48,
    think_s: float = 4.0,
    seed: int = 0,
) -> Trace:
    """Multi-turn chat sessions whose turns share a growing token prefix.

    Sessions open as a Poisson process at ``session_qps``.  Each session
    runs ``turns`` turns: turn 0 sends ``first_input`` prompt tokens, and
    every later turn re-sends the whole conversation so far — previous
    prompt, the model's answer, plus fresh user tokens (uniform in
    ``[1, 2 * user_tokens)``) — as its prompt.  Answer lengths are uniform
    in ``[ceil(output_len / 2), 2 * output_len)``.  Turns within a session
    are separated by exponential think-time gaps with mean ``think_s``.

    Every turn of session ``s`` carries ``session_id=s``, so a
    prefix-caching scheduler can reuse the blocks of turn ``j`` when turn
    ``j + 1`` arrives.  Requests are re-numbered 0..n-1 in arrival order
    (arrivals interleave across sessions).
    """
    _check_positive(session_qps=session_qps, think_s=think_s)
    _check_counts(
        n_sessions=n_sessions,
        turns=turns,
        first_input=first_input,
        user_tokens=user_tokens,
        output_len=output_len,
    )
    rng = np.random.default_rng(seed)
    openings = np.cumsum(rng.exponential(1.0 / session_qps, size=n_sessions))
    rows: list[tuple[float, int, int, int]] = []
    for session, opening in enumerate(openings):
        arrival = float(opening)
        history = 0
        for turn in range(turns):
            fresh = (
                first_input if turn == 0
                else int(rng.integers(1, 2 * user_tokens))
            )
            inp = history + fresh
            out = int(rng.integers((output_len + 1) // 2, 2 * output_len))
            rows.append((arrival, session, inp, out))
            history = inp + out
            arrival += float(rng.exponential(think_s))
    rows.sort(key=lambda row: row[0])
    arrivals, sessions, inputs, outputs = map(list, zip(*rows))
    return Trace.from_columns(
        list(range(len(rows))), arrivals, inputs, outputs, session_id=sessions
    )


# ---------------------------------------------------------------------------
# replay files
# ---------------------------------------------------------------------------


def save_trace(trace: Trace, path: pathlib.Path | str) -> pathlib.Path:
    """Write a trace as a JSON replay file."""
    path = pathlib.Path(path)
    path.write_text(json.dumps({"requests": trace.to_payload()}, indent=1))
    return path


def load_trace(path: pathlib.Path | str) -> Trace:
    """Reload a trace written by :func:`save_trace` (or hand-authored)."""
    payload = json.loads(pathlib.Path(path).read_text())
    if not isinstance(payload, dict) or "requests" not in payload:
        raise ValueError(f"{path}: a trace file is an object with a 'requests' list")
    return Trace.from_payload(payload["requests"])
