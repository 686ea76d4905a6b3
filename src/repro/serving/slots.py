"""Slot-array batch state: the running set as numpy arrays.

The engine's hot path coalesces long stretches of decode iterations whose
batch composition cannot change (no finish, no admission, no arrival the
scheduler would admit, no KV block claim).  Inside such a run, per-request
Python objects are pure overhead — what the pricing math needs is the
*columns* of the running set.  A :class:`SlotView` is exactly that: one
array per
:class:`~repro.serving.schedulers.RunningRequest` field that pricing
reads, built in one pass whenever the batch re-forms and handed to
:meth:`~repro.serving.schedulers.Scheduler.decode_run` so a scheduler can
price a whole run of iterations with vectorized arithmetic instead of
O(batch) attribute walks per step.

The view is a snapshot, not a live mirror: the engine folds the run's
outcome (tokens generated, finishers) back into the ``RunningRequest``
objects afterwards, which stay the single source of truth for every
non-coalesced event (admission, chunking, preemption, restore).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.serving.schedulers import RunningRequest


@dataclasses.dataclass(frozen=True)
class SlotView:
    """Columnar snapshot of the running set at one batch composition."""

    requests: tuple[RunningRequest, ...]  #: slot index -> request
    input_len: np.ndarray  #: int64, prompt tokens per slot
    output_len: np.ndarray  #: int64, requested output tokens per slot
    generated: np.ndarray  #: int64, tokens decoded so far per slot
    stride: np.ndarray  #: int64, per-slot pricing-anchor stride
    done: np.ndarray  #: bool, finished slots (static batching keeps them)

    @classmethod
    def from_requests(cls, running: Sequence[RunningRequest]) -> "SlotView":
        input_len = np.fromiter(
            (r.input_len for r in running), np.int64, len(running)
        )
        output_len = np.fromiter(
            (r.output_len for r in running), np.int64, len(running)
        )
        generated = np.fromiter(
            (r.generated for r in running), np.int64, len(running)
        )
        stride = np.fromiter(
            (r.stride for r in running), np.int64, len(running)
        )
        return cls(
            requests=tuple(running),
            input_len=input_len,
            output_len=output_len,
            generated=generated,
            stride=stride,
            done=generated >= output_len,
        )

    @property
    def n_slots(self) -> int:
        return len(self.requests)

    @property
    def n_active(self) -> int:
        """Slots still decoding (a token per iteration comes from each)."""
        return int((~self.done).sum())

    def max_coalesced_steps(self) -> int:
        """Iterations until the *earliest* active slot finishes.

        That finish changes the batch composition, so it bounds how far a
        decode run may be priced ahead; every active slot has at least
        one token left, so the bound is always >= 1.
        """
        remaining = (self.output_len - self.generated)[~self.done]
        return int(remaining.min())
