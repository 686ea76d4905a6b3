"""Slot snapshot of the running set: what a coalesced decode run prices.

The engine's hot path coalesces long stretches of decode iterations whose
batch composition cannot change (no finish, no admission, no arrival the
scheduler would admit, no KV block claim that does not fit).  Inside such
a run the pricing math needs only a few fields of each
:class:`~repro.serving.schedulers.RunningRequest`.  A :class:`SlotView`
holds exactly those, as one tuple of plain Python ints per field, built
in one pass whenever the batch re-forms and handed to
:meth:`~repro.serving.schedulers.Scheduler.decode_run`.  The scheduler
walks the run by stride segment, so a run costs in proportion to the
pricing points that change, not to batch × steps, and all of it is
exact integer arithmetic.

The view is a snapshot, not a live mirror: the engine folds the run's
outcome (tokens generated, finishers) back into the ``RunningRequest``
objects afterwards, which stay the single source of truth for every
non-coalesced event (admission, chunking, preemption, restore).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.serving.schedulers import RunningRequest


@dataclasses.dataclass(frozen=True)
class SlotView:
    """Snapshot of the running set at one batch composition."""

    requests: tuple[RunningRequest, ...]  #: slot index -> request
    input_len: tuple[int, ...]  #: prompt tokens per slot
    output_len: tuple[int, ...]  #: requested output tokens per slot
    generated: tuple[int, ...]  #: tokens decoded so far per slot
    stride: tuple[int, ...]  #: per-slot pricing-anchor stride
    done: tuple[bool, ...]  #: finished slots (static batching keeps them)

    @classmethod
    def from_requests(cls, running: Sequence[RunningRequest]) -> "SlotView":
        requests = tuple(running)
        output_len = tuple([r.output_len for r in requests])
        generated = tuple([r.generated for r in requests])
        # positional: keyword arguments nearly double the cost of this call
        return cls(
            requests,
            tuple([r.input_len for r in requests]),
            output_len,
            generated,
            tuple([r.stride for r in requests]),
            tuple([g >= o for g, o in zip(generated, output_len)]),
        )

    @property
    def n_slots(self) -> int:
        return len(self.requests)

    def max_coalesced_steps(self) -> int:
        """Iterations until the *earliest* active slot finishes.

        That finish changes the batch composition, so it bounds how far a
        decode run may be priced ahead; every active slot has at least
        one token left, so the bound is always >= 1.
        """
        return min(
            o - g
            for o, g, d in zip(self.output_len, self.generated, self.done)
            if not d
        )
