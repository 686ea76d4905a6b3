"""Batching policies for the request-level serving engine.

Seven policies on five classes, in increasing order of sophistication
(:data:`SCHEDULER_NAMES`; :func:`build_scheduler` builds each by name):

* ``static`` — :class:`StaticBatchScheduler`: wait for a full batch, run
  it to completion, repeat.  Parity with the paper's evaluation shape
  (and with :class:`~repro.workloads.serving.ServingSimulator`, exactly
  — the equivalence is tested).
* ``fcfs`` — :class:`FcfsContinuousScheduler`: Orca/vLLM-style
  iteration-level scheduling: finished requests free their slot
  immediately and waiting requests join at any decode-iteration
  boundary, bounded only by a slot count.
* ``memory`` — :class:`MemoryAwareScheduler`: iteration-level scheduling
  bounded by HBM *capacity* as well as slots: each admission reserves the
  request's full state + KV footprint, priced with the true per-value byte
  widths of the system's storage format (``repro.quant`` bit widths via
  the system precision).  Quantized systems (GPU+Q, Pimba) fit more
  concurrent requests in the same HBM, which is exactly the Fig. 15
  capacity argument at request level.
* ``chunked`` — ``fcfs`` (or ``memory``, given a capacity) with a
  ``chunk_budget``: Sarathi-style prefill shaping on top of continuous
  batching.  Each admitted cohort's prompt is processed in
  fixed-token-budget chunks, and the running decode batch piggybacks into
  the same priced iteration instead of stalling for a monolithic prefill
  (the paper's Section 5.6 blocked execution).
* ``overlap`` — the same with ``overlap_decode``: NeuPIMs-style sub-batch
  overlap.  The prefill chunk and the decode batch execute *concurrently*
  (prefill on the compute units, decode on the PIM/memory side), so the
  iteration is priced at the max of the two instead of their sum.
* ``paged`` — :class:`PagedScheduler`: vLLM-style paged KV on top of the
  capacity bound: admission reserves only the *prompt's* blocks from a
  :class:`~repro.serving.memory.BlockPool`, decode claims one block per
  ``block_size`` generated tokens, and on pool exhaustion the youngest
  running request is preempted (its blocks freed, the request re-queued
  for a recompute-style restore whose re-prefill is priced like any
  other prefill — preemption has a visible latency cost).  A claim step
  touches only the residents whose next token crosses their blocks, and
  lands all of their claims in one pass whenever they fit together, in
  the middle of a coalesced decode run.
* ``prefix`` — :class:`PrefixCachingScheduler`: SGLang-style radix prefix
  reuse on top of the paged pool: completed requests publish their session's
  whole KV blocks to a refcounted
  :class:`~repro.serving.memory.PrefixCache`, later turns of the same
  chat pin the shared prefix instead of recomputing it, and only the
  uncached suffix is charged — and priced.  Unreferenced cached blocks
  are evicted LRU-first the moment live KV wants the space.

Every policy takes ``max_batch`` and ``step_stride``;
:data:`POLICY_KNOBS` declares which of ``capacity_bytes``,
``chunk_budget`` and ``block_size`` each one takes, and
:func:`build_scheduler` refuses any other that is set
(:func:`check_policy_knobs`, which the serving trials also call on
their own spelling of the knobs before any trial runs).

A scheduler also owns the *pricing shape* of a decode iteration — which
(batch, context) point the cost model is asked for — because that shape is
what distinguishes padded static batching from continuous batching.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.models.config import ModelSpec
from repro.perf.system import ServingSystem
from repro.serving.memory import (
    BlockPool,
    MemoryModel,
    PrefixBlockPool,
    validate_capacity,
)
from repro.serving.metrics import RequestTiming
from repro.workloads.requests import Trace
from repro.workloads.serving import clamped_stride

if TYPE_CHECKING:
    from repro.serving.slots import SlotView

#: prompt tokens per chunk of ``chunked`` and ``overlap`` when
#: ``chunk_budget`` is unset
DEFAULT_CHUNK_BUDGET = 256
#: tokens per KV block of ``paged`` and ``prefix`` when ``block_size`` is
#: unset
DEFAULT_BLOCK_SIZE = 64


@dataclasses.dataclass
class RunningRequest:
    """One request's mutable in-flight state inside the engine.

    The engine builds one at admission from its trace row's values (the
    ledger and the decode loop read them on every event, and a report
    folds a finisher from them), never one per queued request.
    """

    request_id: int
    input_len: int
    output_len: int
    arrival_s: float
    admitted_s: float
    stride: int  #: pricing-anchor stride (clamped per request)
    session_id: int | None = None
    generated: int = 0
    first_token_s: float | None = None
    finished_s: float | None = None
    #: prompt fully processed — False while a chunking scheduler is still
    #: streaming this request's prefill, or after a paged preemption
    #: evicted its KV (it cannot decode until restored by a re-prefill)
    prefilled: bool = True
    #: times this request was preempted (blocks freed, re-queued for a
    #: recompute-style restore) by a preemptive scheduler
    preemptions: int = 0
    #: lifetime prefill tokens served from the prefix cache instead of
    #: being recomputed (admissions + restores; 0 without a cache)
    cached_tokens: int = 0
    #: prefix-cache hit of the *latest* allocation — what the engine
    #: subtracts from the prefill it is about to price (reset per
    #: admission/restore by the caching scheduler; 0 for everyone else)
    cache_hit_last: int = 0
    #: lifetime prefix tokens pulled from *another replica* through the
    #: shared tier (a subset of :attr:`cached_tokens`; 0 without a tier)
    remote_tokens: int = 0
    #: wire seconds the latest allocation's remote pull costs — the
    #: engine serializes this ahead of the prefill it prices (reset per
    #: admission/restore; 0.0 whenever nothing moved)
    transfer_s_last: float = 0.0

    @property
    def done(self) -> bool:
        return self.generated >= self.output_len

    @property
    def priced_context(self) -> int:
        """Current context, anchored to the stride grid for pricing."""
        return self.input_len + (self.generated // self.stride) * self.stride

    def timing(self) -> RequestTiming:
        """The finished request's lifecycle record."""
        return RequestTiming(
            request_id=self.request_id,
            input_len=self.input_len,
            output_len=self.output_len,
            arrival_s=self.arrival_s,
            admitted_s=self.admitted_s,
            first_token_s=self.first_token_s,
            finished_s=self.finished_s,
            preemptions=self.preemptions,
            cached_tokens=self.cached_tokens,
            remote_tokens=self.remote_tokens,
        )


class QueuedRows:
    """The engine's waiting queue: rows ``[head, tail)`` of its trace.

    Rows before ``head`` were admitted and rows from ``tail`` on have not
    arrived yet, so an arrival or an admission moves one index and no
    queued request is copied or built.  :meth:`Scheduler.admit` reads
    ``len`` and :meth:`lengths`.
    """

    __slots__ = ("input_len", "output_len", "head", "tail")

    def __init__(self, trace: Trace):
        self.input_len = trace.input_len
        self.output_len = trace.output_len
        self.head = self.tail = 0

    def __len__(self) -> int:
        return self.tail - self.head

    def lengths(self, n: int) -> Iterable[tuple[int, int]]:
        """``(input_len, output_len)`` of the ``n`` oldest waiting rows,
        read lazily: an admission that stops early reads no further."""
        rows = range(self.head, min(self.head + n, self.tail))
        return zip(
            map(self.input_len.__getitem__, rows),
            map(self.output_len.__getitem__, rows),
        )


class QueuedRequests(list):
    """A waiting queue held as a list of requests, oldest first.

    The scalar reference's queue: the same ``len`` and :meth:`lengths`
    as :class:`QueuedRows`, read from request objects.
    """

    def lengths(self, n: int) -> Iterable[tuple[int, int]]:
        """``(input_len, output_len)`` of the ``n`` oldest waiting requests."""
        return [(r.input_len, r.output_len) for r in self[:n]]


#: what :meth:`Scheduler.admit` reads its waiting queue through
Queued = QueuedRows | QueuedRequests


class Scheduler(abc.ABC):
    """Admission + pricing policy for the discrete-event engine.

    The engine owns the clock and the request lifecycle; the scheduler
    owns every *decision*.  The contract, in the order the engine calls
    it each loop iteration:

    * :meth:`admit` — how many queued requests join now, read from the
      queue's ``len`` and the :meth:`~QueuedRows.lengths` of its oldest
      requests.  Must be pure
      (no state mutation): the engine may call it and then admit exactly
      that many requests, after which :meth:`on_admit` fires once with
      the new residents.  An admission implies the request's whole
      reservation (slots, HBM, blocks) fits *right now* — an admitted
      request is never silently dropped, only (for preemptive policies)
      explicitly preempted later.
    * :meth:`prepare_iteration` — claim whatever the next decode
      iteration needs (paged policies grow each resident's KV by one
      token here) and return the requests that had to be *preempted* to
      make room, youngest first.  Non-preemptive policies return ``[]``.
    * ``land_claims(running, offset)`` — a policy that claims per token
      (a finite :meth:`steps_before_claim`) also lands, inside a
      coalesced run, what the iteration ``offset`` steps in needs: all
      of it or nothing, evicting nobody, and ``False`` when it does not
      fit (:meth:`PagedScheduler.land_claims`).
    * :meth:`iteration_shape` — the (batch, context) point the cost
      model prices the iteration at.  Must depend only on the running
      set passed in, so identical engine states always price
      identically (the bit-exactness equivalences rest on this).
    * :meth:`can_restore` / :meth:`on_restore` — gate and record the
      re-admission of a previously preempted request (the engine prices
      its recompute-style re-prefill).
    * :meth:`release` — a resident request completed or was preempted;
      return its reservation.  Called exactly once per completion.

    **Coalescing contract.**  Between two batch-composition events
    (admission, finish, an arrival the scheduler would admit, a block
    claim that does not fit) a stretch of decode iterations is fully
    predictable: for the
    :meth:`steps_before_claim` iterations it allows,
    :meth:`prepare_iteration` claims nothing and evicts nobody,
    :meth:`admit` depends only on the queue, the running *composition*
    and state those iterations leave alone (never on residents' decode
    progress), and :meth:`decode_run` returns the run as run-length
    ``(seq, count)`` segments whose expansion is exactly the ``(batch,
    seq)`` points that calling :meth:`iteration_shape` once per step
    would give — so the engine may price the whole run from a
    :class:`~repro.serving.slots.SlotView` without touching per-request
    state, with one cost lookup per segment.  The points change only
    where a slot crosses its pricing stride, so a run has few segments.
    When an arrival lands mid-run, the engine queues it and
    calls :meth:`admit` right there, with residents' ``generated``
    counts still at the run's start; the run ends only if that call
    admits.  This is exact only because :meth:`admit` is pure and
    independent of decode progress — it returns what the scalar loop's
    call at that clock would.  Paged growth does not end a run either:
    a run goes through every iteration that claims a block, and at
    each one, ``offset`` steps in, the engine calls ``land_claims``
    before that iteration and before any later :meth:`admit`, then asks
    :meth:`steps_before_claim` (from the same ``offset``) for the next
    claim.  A claim that does not fit ends the run just before its
    iteration.  The next pass then calls :meth:`prepare_iteration`, as
    it does for a claim at a run's first step; one that preempts runs
    alone and is priced at :meth:`iteration_shape`.  So both pricing
    methods are live, and a class that overrides one without the other
    fails at definition: the two can never silently disagree.
    """

    #: static batching keeps finished requests in their (padded) slots
    keep_finished: bool = False
    #: the prefill shape both engines read (only
    #: :class:`FcfsContinuousScheduler` and its subclass set it): prompt
    #: tokens per prefill chunk, ``None`` for monolithic prefill (the
    #: engine blocks the whole cluster for each admission, Section 5.6)
    chunk_budget: int | None = None
    #: chunk iterations run concurrently with the decode batch and are
    #: priced at max(chunk, decode) instead of their sum (NeuPIMs overlap)
    overlap_decode: bool = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        pricing = ("iteration_shape", "decode_run")
        overridden = [name for name in pricing if name in vars(cls)]
        if len(overridden) == 1:
            raise TypeError(
                f"{cls.__name__} overrides {overridden[0]} alone: "
                "iteration_shape and decode_run price the same decode "
                "iterations, so they must be overridden together"
            )

    def __init__(self, step_stride: int = 32):
        if step_stride < 1:
            raise ValueError("step_stride must be positive")
        self.step_stride = step_stride

    def request_stride(self, output_len: int) -> int:
        """Per-request pricing stride (clamped like the static simulator)."""
        return clamped_stride(self.step_stride, output_len)

    @abc.abstractmethod
    def admit(
        self,
        queue: Queued,
        running: Sequence[RunningRequest],
        more_arrivals: bool,
    ) -> int:
        """How many requests to admit from the front of ``queue`` now.

        Pure: must not mutate scheduler state (the engine follows up
        with :meth:`on_admit` for exactly the returned prefix).
        ``more_arrivals`` distinguishes a momentarily empty queue from a
        drained trace, which is what lets static batching flush its
        final partial batch.
        """

    def on_admit(self, admitted: Sequence[RunningRequest]) -> None:
        """The engine just admitted these requests (claim reservations)."""

    def prepare_iteration(
        self, running: Sequence[RunningRequest]
    ) -> list[RunningRequest]:
        """Reserve what the next decode iteration needs; return victims.

        Preemptive policies grow each resident request's KV here and, on
        exhaustion, evict the youngest residents until the survivors
        fit; the engine removes the returned victims from the running
        set and re-queues them for restore.  The default (every
        non-preemptive policy) reserves nothing and evicts nobody.
        """
        del running
        return []

    def steps_before_claim(
        self, running: Sequence[RunningRequest], offset: int = 0
    ) -> int | float:
        """Decode iterations the batch can take, from ``offset`` steps
        into a run, before one claims KV.

        That many iterations in a row would claim nothing (so evict
        nobody); the next one may.  The engine reads it at a run's
        start, where 0 means the first iteration claims, and again after
        each claim ``land_claims`` lands mid-run.  ``math.inf`` when no
        iteration will ever claim — every policy that reserves nothing
        per token, which needs no ``land_claims``.
        """
        del running, offset
        return math.inf

    def can_restore(
        self,
        request: RunningRequest,
        running: Sequence[RunningRequest],
    ) -> bool:
        """May this preempted request re-enter the running set now?"""
        del request, running
        return True

    def on_restore(self, request: RunningRequest) -> None:
        """The engine is re-admitting a preempted request (re-reserve)."""

    def release(self, request: RunningRequest) -> None:
        """A resident request completed — return its reservation."""

    @property
    def blocks_in_use(self) -> int:
        """KV blocks currently claimed (0 for non-paged policies).

        Read by the telemetry gauge stream; policies without a
        :class:`~repro.serving.memory.BlockPool` report zero so the
        counter track renders flat rather than missing.
        """
        return 0

    def reset(self) -> None:
        """Forget the previous run: the engine calls this as each serve
        starts, so a reused scheduler decides like a fresh one."""

    def counters(self) -> dict[str, float]:
        """The run's :class:`~repro.serving.metrics.EngineCounters` this
        policy produces, by field name, cumulative since :meth:`reset`.

        Read by the engine for telemetry gauges and the run record.
        Empty for every policy without a prefix cache, so the fields
        keep their zero defaults and traces stay comparable across
        policies.
        """
        return {}

    def iteration_shape(
        self, running: Sequence[RunningRequest]
    ) -> tuple[int, int]:
        """The (batch, context) point one decode iteration is priced at.

        Continuous batching prices the iteration at the running batch size
        and the *mean* anchored context: per-request decode cost is linear
        in context length for every memory-bound operator, so the batch at
        the mean context costs the same as the sum of the true per-request
        costs.
        """
        contexts = [r.priced_context for r in running]
        return len(running), int(round(sum(contexts) / len(contexts)))

    def decode_run(
        self, slots: SlotView, steps: int
    ) -> tuple[int, list[tuple[int, int]]]:
        """Pricing points for ``steps`` consecutive decode iterations.

        The run-length counterpart of :meth:`iteration_shape`: the batch
        and a list of ``(seq, count)`` segments, counts positive and
        summing to ``steps``.  Expanded, the segments must equal the
        scalar shape after ``j`` tokens of progress on every slot, for
        every ``j`` (the differential tests enforce this).

        The mean anchored context changes only where some slot crosses
        its stride: slot ``i`` re-anchors ``s_i - g_i % s_i`` steps in,
        then every ``s_i`` steps, each time by ``s_i``.  Slots sharing a
        stride and a phase cross together, so they add one jump: a run
        costs one pass over the slots plus one update per crossing of
        each (stride, phase) group, so stride 1 takes ``steps`` updates
        whatever the batch.  Each segment's point is ``round(total /
        n)`` on the exact integer total, the arithmetic
        :meth:`iteration_shape` performs, so every point is the same
        int.  Adjacent segments at one point merge.
        """
        n = slots.n_slots
        total = 0
        # (stride, first crossing) -> context added at each crossing
        jumps: dict[tuple[int, int], int] = {}
        for input_len, g, s in zip(slots.input_len, slots.generated, slots.stride):
            total += input_len + g // s * s
            first = s - g % s
            if first < steps:
                jumps[s, first] = jumps.get((s, first), 0) + s
        seq = round(total / n)
        added: dict[int, int] = {}
        for (s, first), jump in jumps.items():
            for j in range(first, steps, s):
                added[j] = added.get(j, 0) + jump
        segments = []
        start = 0
        for j in sorted(added):
            total += added[j]
            point = round(total / n)
            if point != seq:
                segments.append((seq, j - start))
                seq, start = point, j
        segments.append((seq, steps - start))
        return n, segments


class StaticBatchScheduler(Scheduler):
    """Fixed-size batches run to completion (the paper's serving shape)."""

    keep_finished = True

    def __init__(self, batch_size: int, step_stride: int = 32):
        super().__init__(step_stride)
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.batch_size = batch_size

    def admit(
        self,
        queue: Queued,
        running: Sequence[RunningRequest],
        more_arrivals: bool,
    ) -> int:
        if running:
            return 0
        if len(queue) >= self.batch_size:
            return self.batch_size
        if queue and not more_arrivals:
            return len(queue)  # flush the final partial batch
        return 0

    def iteration_shape(
        self, running: Sequence[RunningRequest]
    ) -> tuple[int, int]:
        """Padded-cohort pricing, identical to ``ServingSimulator.run``:
        the whole cohort decodes at its max input length and shared decode
        position, finished requests still occupying their slots."""
        input_len = max(r.input_len for r in running)
        stride = clamped_stride(
            self.step_stride, max(r.output_len for r in running)
        )
        position = max(r.generated for r in running)
        return len(running), input_len + (position // stride) * stride

    def decode_run(
        self, slots: SlotView, steps: int
    ) -> tuple[int, list[tuple[int, int]]]:
        """Padded-cohort pricing over a whole run: batch counts every
        slot (finished ones still hold theirs), and the shared decode
        position ``max(frozen, advancing + j)`` is the max over frozen
        finished slots and the advancing active ones.  Its anchor moves
        once the advancing position reaches the next stride multiple,
        so each segment runs up to there."""
        input_len = max(slots.input_len)
        stride = clamped_stride(self.step_stride, max(slots.output_len))
        progress = list(zip(slots.generated, slots.done))
        frozen = max((g for g, done in progress if done), default=0)
        advancing = max(g for g, done in progress if not done)
        segments = []
        j = 0
        while j < steps:
            anchor = max(frozen, advancing + j) // stride * stride
            end = min(steps, anchor + stride - advancing)
            segments.append((input_len + anchor, end - j))
            j = end
        return slots.n_slots, segments


class FcfsContinuousScheduler(Scheduler):
    """First-come-first-served continuous batching with a slot bound.

    It also owns the prefill shape the engines read.  With a
    ``chunk_budget`` (the ``chunked`` policy) each admitted cohort's
    prompt is processed in chunks of at most that many tokens,
    Sarathi-style.  A cohort's *first* chunk runs alone — the engine
    re-forms the fused batch at the admission boundary, exactly the
    blocked execution the monolithic engine models — and every later
    chunk piggybacks the running decode batch into the same priced
    iteration, so decode stalls for one chunk instead of one whole
    prefill.  ``overlap_decode`` (the ``overlap`` policy) runs the chunk
    and the decode batch *concurrently*, NeuPIMs-style — prefill is
    compute-bound (GPU side), decode is memory-bound (PIM side) — so
    every chunk iteration is priced at ``max(chunk, decode)`` instead of
    their sum, and decode piggybacks from the very first chunk.

    Without overlap, a ``chunk_budget`` >= the longest prompt degenerates
    to monolithic prefill *iteration for iteration* (under the slot
    bound and under :class:`MemoryAwareScheduler`'s capacity bound
    alike): one chunk covers the whole cohort
    prompt, runs alone, and is priced identically to the monolithic
    prefill (the chunk cost telescopes — see
    :meth:`~repro.serving.costs.IterationCostModel.chunk_prefill_seconds`).
    Shrinking the budget trades that blocked time for fused iterations:
    TTFT tails fall (slots recycle faster, admissions stall less) while
    TPOT rises (decode tokens now share iterations with chunk work).
    """

    def __init__(
        self,
        max_batch: int = 32,
        step_stride: int = 32,
        chunk_budget: int | None = None,
        overlap_decode: bool = False,
    ):
        super().__init__(step_stride)
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if chunk_budget is not None and chunk_budget < 1:
            raise ValueError("chunk_budget must be positive")
        if overlap_decode and chunk_budget is None:
            raise ValueError(
                "overlap_decode needs a chunk_budget: only prefill chunks "
                "overlap the decode batch"
            )
        self.max_batch = max_batch
        self.chunk_budget = chunk_budget
        self.overlap_decode = overlap_decode

    def admit(
        self,
        queue: Queued,
        running: Sequence[RunningRequest],
        more_arrivals: bool,
    ) -> int:
        return min(len(queue), self.max_batch - len(running))


class MemoryAwareScheduler(FcfsContinuousScheduler):
    """Continuous batching bounded by HBM state+KV capacity.

    Admits the longest FCFS prefix of what the slot bound allows whose
    reserved footprint (weights plus every resident request at its full
    final context) fits in ``capacity_bytes``.  Still-prefilling
    requests hold their full reservation too, so a chunked prefill shape
    can never overcommit HBM.
    """

    def __init__(
        self,
        memory: MemoryModel,
        capacity_bytes: float,
        max_batch: int = 512,
        step_stride: int = 32,
        chunk_budget: int | None = None,
        overlap_decode: bool = False,
    ):
        super().__init__(max_batch, step_stride, chunk_budget, overlap_decode)
        validate_capacity(memory, capacity_bytes)
        self.memory = memory
        self.capacity_bytes = capacity_bytes

    def admit(
        self,
        queue: Queued,
        running: Sequence[RunningRequest],
        more_arrivals: bool,
    ) -> int:
        """The Fig. 15 capacity semantics: weights plus every resident
        request's full-final-context state+KV footprint are already
        reserved, and each admission reserves the candidate's own."""
        limit = super().admit(queue, running, more_arrivals)
        if limit <= 0:
            return 0
        memory = self.memory
        free = self.capacity_bytes - memory.weights_bytes - sum(
            memory.request_bytes(r.input_len, r.output_len) for r in running
        )
        n = 0
        for input_len, output_len in queue.lengths(limit):
            need = memory.request_bytes(input_len, output_len)
            if need > free:
                break
            free -= need
            n += 1
        return n


class PagedScheduler(Scheduler):
    """Block-granular (paged) KV reservation with preempt/restore.

    The vLLM allocation model on top of the engine's capacity semantics:
    admission charges a :class:`~repro.serving.memory.BlockPool` for the
    *prompt's* KV blocks only (plus the context-invariant state), and
    decode claims one more block every ``block_size`` generated tokens
    via :meth:`prepare_iteration`, or :meth:`land_claims` inside a
    coalesced run.  Admission therefore packs against
    *current* block usage instead of every resident's full-final-context
    footprint — far more requests fit the same HBM — at the price of
    possible exhaustion mid-decode: when a growth claim fails, the
    youngest running request is preempted (all its blocks freed) and
    re-queued for a recompute-style restore, whose re-prefill over
    prompt + already-generated tokens the engine prices like any other
    prefill.  Preemption is visible in the clock, the report
    (``n_preemptions``), and the token accounting.

    Growth still coalesces.  A resident claims only when its context
    crosses the tokens its holding covers, so
    :meth:`steps_before_claim` knows how many decode iterations the
    batch takes before the next claim.  A claiming iteration extends
    only the crossing residents, and when their claims fit the free
    pool together it lands them in one
    :meth:`~repro.serving.memory.BlockPool.extend_all` pass
    (:meth:`land_claims`).  So the engine's run goes through every
    claim that fits, and ends only before one that does not; the
    one-claim-at-a-time loop of :meth:`prepare_iteration` that preempts
    runs only then.

    A ``block_size`` at least every request's final context is the
    degenerate, thrash-free configuration: the prompt's one block,
    trimmed to the final context, already holds the full
    :meth:`MemoryModel.request_bytes` footprint that
    :class:`MemoryAwareScheduler` reserves, so nothing ever claims or
    preempts and the two engines are bit-exact, event for event
    (tested, bare and clustered).
    """

    def __init__(
        self,
        memory: MemoryModel,
        capacity_bytes: float,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_batch: int = 512,
        step_stride: int = 32,
    ):
        super().__init__(step_stride)
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.memory = memory
        self.capacity_bytes = capacity_bytes
        self.pool = BlockPool(memory, capacity_bytes, block_size)
        self.block_size = block_size
        self.max_batch = max_batch

    def admit(
        self,
        queue: Queued,
        running: Sequence[RunningRequest],
        more_arrivals: bool,
    ) -> int:
        limit = min(len(queue), self.max_batch - len(running))
        if limit <= 0:
            return 0
        return self.pool.admissible(queue.lengths(limit))

    def on_admit(self, admitted: Sequence[RunningRequest]) -> None:
        for r in admitted:
            self.pool.allocate(
                r.request_id, r.input_len, r.input_len + r.output_len
            )

    def prepare_iteration(
        self, running: Sequence[RunningRequest]
    ) -> list[RunningRequest]:
        """Grow every resident by one token's KV; evict youngest on ENOSPC.

        Residents grow oldest-first (admission order), and every failed
        claim evicts the *youngest* resident — vLLM's preemption order,
        which protects the request closest to completion.  A resident may
        evict itself when it is the youngest; the head resident never
        can, because admission feasibility guarantees it fits alone.

        When the claims fit the free pool together, :meth:`land_claims`
        lands them and nobody is evicted.  Only when they do not is the
        pool grown one claim at a time in age order, evicting as above.
        """
        if self.land_claims(running, 0):
            return []
        covered = self.pool.covered
        crossing = {
            r.request_id
            for r in running
            if r.input_len + r.generated >= covered(r.request_id)
        }
        victims: list[RunningRequest] = []
        # Age order by *original* admission (restores keep their first
        # admission stamp), not list position: a restored request is the
        # oldest resident and must be the last evicted, never the first
        # — else a full pool re-evicts it before it decodes a token and
        # every restore re-prefill is pure waste.
        alive = sorted(running, key=lambda r: (r.admitted_s, r.request_id))
        i = 0
        while i < len(alive):
            r = alive[i]
            if r.request_id not in crossing:
                i += 1
                continue
            final = r.input_len + r.output_len
            self_evicted = False
            while not self.pool.extend(
                r.request_id, r.input_len + r.generated + 1, final
            ):
                if len(alive) == 1:
                    # Nothing else to evict and self-eviction would just
                    # restore into the same exhausted pool (a livelock);
                    # admission feasibility makes this unreachable.
                    raise RuntimeError(
                        "paged pool exhausted growing request "
                        f"{r.request_id} with no victim to preempt"
                    )
                victim = alive.pop()
                self.pool.release(victim.request_id)
                victims.append(victim)
                if victim is r:
                    self_evicted = True
                    break
            if not self_evicted:
                i += 1
        return victims

    def land_claims(self, running: Sequence[RunningRequest], offset: int) -> bool:
        """Land the claims of the iteration ``offset`` steps into a run
        in one :meth:`BlockPool.extend_all` pass, or none of them.

        Only the residents whose context then reaches their coverage
        claim; for the rest an extend changes nothing and cannot fail,
        so none is made.  When the crossers' claims fit together, in
        sequence each would have fitted, and nobody is evicted.
        """
        covered = self.pool.covered
        claims = [
            (r.request_id, context + 1, r.input_len + r.output_len)
            for r in running
            if (context := r.input_len + r.generated + offset) >= covered(r.request_id)
        ]
        return not claims or self.pool.extend_all(claims)

    def steps_before_claim(
        self, running: Sequence[RunningRequest], offset: int = 0
    ) -> int | float:
        """Iterations before some resident's context outgrows its blocks.

        A holding covers its claimed KV plus any shared prefix; decode
        step ``j`` of a run grows a resident to ``input_len + generated
        + j + 1`` tokens, which claims only past that coverage, so from
        ``offset`` steps in a resident has ``covered - input_len -
        generated - offset`` free steps.  A holding that already covers
        the final context never claims again.  Coverage never trails
        the context, so the first resident due to claim now ends the
        scan.
        """
        covered = self.pool.covered
        horizon = math.inf
        for r in running:
            tokens = covered(r.request_id)
            if tokens < r.input_len + r.output_len:
                steps = tokens - r.input_len - r.generated - offset
                if steps < horizon:
                    if not steps:
                        return 0
                    horizon = steps
        return horizon

    def can_restore(
        self,
        request: RunningRequest,
        running: Sequence[RunningRequest],
    ) -> bool:
        if len(running) >= self.max_batch:
            return False
        # +1: headroom for the token the next decode iteration writes,
        # so a restored request always makes progress before any further
        # exhaustion can evict anything (it grows first — it is oldest).
        return self.pool.fits(
            request.input_len + request.generated + 1,
            request.input_len + request.output_len,
        )

    def on_restore(self, request: RunningRequest) -> None:
        self.pool.allocate(
            request.request_id,
            request.input_len + request.generated,
            request.input_len + request.output_len,
        )

    def release(self, request: RunningRequest) -> None:
        self.pool.release(request.request_id)

    @property
    def blocks_in_use(self) -> int:
        return self.pool.blocks_in_use


class PrefixCachingScheduler(PagedScheduler):
    """Paged KV with SGLang-style radix prefix reuse across a session.

    Identical decision machinery to :class:`PagedScheduler` — same
    admission packing, same growth, same youngest-first preemption — on
    top of a :class:`~repro.serving.memory.PrefixBlockPool`:

    * **Allocation reuses.**  An admitted (or restored) request whose
      :attr:`~repro.workloads.requests.Request.session_id` has published
      prefix blocks pins them instead of claiming private ones, and only
      the uncached suffix is charged to the pool.  The engine then
      prices only that suffix
      (:meth:`~repro.serving.costs.IterationCostModel.chunk_prefill_seconds`
      from the hit boundary, so chunk costs telescope exactly).
    * **Completion publishes.**  A finished request's prompt + generated
      tokens extend its session's shared history; every full block
      becomes reusable by later turns.  Preemption publishes nothing —
      its restore recomputes, like the base policy.
    * **Cached blocks lose to live KV.**  Unreferenced cached blocks
      never gate admission or growth; they are reclaimed LRU-first the
      moment live KV wants the bytes, so eviction always precedes (and
      usually prevents nothing about) preemption — shared pinned blocks
      are never evicted at all.

    A trace without session ids makes every decision, every float, and
    every counter identical to :class:`PagedScheduler`: the equivalence
    tests pin this bit for bit.
    """

    def __init__(
        self,
        memory: MemoryModel,
        capacity_bytes: float,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_batch: int = 512,
        step_stride: int = 32,
    ):
        super().__init__(memory, capacity_bytes, block_size, max_batch, step_stride)
        self.pool = PrefixBlockPool(memory, capacity_bytes, block_size)

    def _allocate(self, r: RunningRequest, prefill_tokens: int) -> None:
        """Allocate for an admission/restore, reusing cached blocks.

        ``prefill_tokens`` is what the engine is about to price (the
        prompt at admission, prompt + generated at restore); the
        recorded hit shortens exactly that prefill.
        """
        context = r.input_len + r.generated
        final = r.input_len + r.output_len
        if r.session_id is None:
            # Nothing to reuse: the cache fields keep their zero defaults.
            self.pool.allocate(r.request_id, context, final)
            return
        # The admission clock doubles as the tier-lookup clock: a restore
        # reuses the original admission time, which can only hide (never
        # invent) remote publishes — deterministic and conservative.
        hit, remote, transfer_s = self.pool.allocate_reusing(
            r.request_id,
            r.session_id,
            context,
            final,
            prefill_tokens,
            now=r.admitted_s,
        )
        r.cache_hit_last = hit
        r.cached_tokens += hit
        r.remote_tokens += remote
        r.transfer_s_last = transfer_s

    def on_admit(self, admitted: Sequence[RunningRequest]) -> None:
        for r in admitted:
            self._allocate(r, r.input_len)

    def on_restore(self, request: RunningRequest) -> None:
        self._allocate(request, request.input_len + request.generated)

    def release(self, request: RunningRequest) -> None:
        if request.session_id is not None and request.done:
            self.pool.publish(
                request.session_id,
                request.input_len + request.generated,
                at=request.finished_s,
            )
        self.pool.release(request.request_id)

    def reset(self) -> None:
        self.pool.reset()

    def counters(self) -> dict[str, float]:
        pool, cache = self.pool, self.pool.cache
        return {
            "cache_hit_tokens": cache.hit_tokens,
            "cache_miss_tokens": cache.miss_tokens,
            "cache_evictions": cache.evictions,
            "remote_hit_tokens": pool.remote_hit_tokens,
            "transferred_bytes": pool.transferred_bytes,
            "kv_transfers": pool.kv_transfers,
        }


#: the policy-specific knobs each scheduler name takes, beyond the
#: ``max_batch`` and ``step_stride`` every policy takes; names in
#: increasing order of sophistication (``--set scheduler=...`` on the
#: CLI).  :func:`build_scheduler` refuses any other policy knob that is
#: set, and the docs checker holds ARCHITECTURE's scheduler table to it.
POLICY_KNOBS: dict[str, tuple[str, ...]] = {
    "static": (),
    "fcfs": (),
    "memory": ("capacity_bytes",),
    "chunked": ("capacity_bytes", "chunk_budget"),
    "overlap": ("capacity_bytes", "chunk_budget"),
    "paged": ("capacity_bytes", "block_size"),
    "prefix": ("capacity_bytes", "block_size"),
}

#: scheduler names :func:`build_scheduler` builds
SCHEDULER_NAMES = tuple(POLICY_KNOBS)


def check_policy_knobs(
    name: str,
    knobs: Mapping[str, object],
    spelling: Mapping[str, str] | None = None,
) -> None:
    """Refuse an unknown policy ``name``, or a set knob it does not take.

    ``knobs`` maps policy knobs to values, ``None`` meaning unset.  A
    caller that spells a knob its own way maps its spelling to the
    :data:`POLICY_KNOBS` name in ``spelling``, and the error then names
    knobs the caller's way: a serving trial's ``capacity_gib`` stands for
    ``capacity_bytes``.
    """
    if name not in POLICY_KNOBS:
        raise KeyError(
            f"unknown scheduler {name!r}; available: {', '.join(SCHEDULER_NAMES)}"
        )
    spelling = spelling or {}
    takes = POLICY_KNOBS[name]
    for knob, value in knobs.items():
        if value is not None and spelling.get(knob, knob) not in takes:
            said = {policy: own for own, policy in spelling.items()}
            taken = [said.get(k, k) for k in takes]
            raise ValueError(
                f"scheduler {name!r} cannot use {knob}={value!r}: it takes "
                f"{', '.join(('max_batch', 'step_stride', *taken))}"
            )


def build_scheduler(
    name: str,
    system: ServingSystem,
    spec: ModelSpec,
    max_batch: int = 32,
    step_stride: int = 32,
    capacity_bytes: float | None = None,
    chunk_budget: int | None = None,
    block_size: int | None = None,
) -> Scheduler:
    """Construct a scheduler by registry name.

    ``static`` uses ``max_batch`` as its fixed batch size; ``memory``,
    ``paged`` and ``prefix`` default ``capacity_bytes`` to the system's
    aggregate HBM capacity.  ``chunked``/``overlap`` split prefills into
    ``chunk_budget``-token chunks (:data:`DEFAULT_CHUNK_BUDGET` when
    unset) and are ``memory`` instead of ``fcfs`` when ``capacity_bytes``
    is given.  ``paged`` and ``prefix`` reserve KV in ``block_size``-token
    blocks (:data:`DEFAULT_BLOCK_SIZE` when unset) as decode progresses
    and preempt on exhaustion; ``prefix`` also reuses the blocks a
    session's earlier turns published.  ``None`` means unset: a policy
    knob the policy does not take (:data:`POLICY_KNOBS`) raises
    ``ValueError`` instead of being ignored.

    This signature is the one declaration of the scheduler knobs:
    :func:`~repro.serving.cluster.build_cluster` and the serving trials
    forward them here.
    """
    check_policy_knobs(
        name,
        dict(
            capacity_bytes=capacity_bytes,
            chunk_budget=chunk_budget,
            block_size=block_size,
        ),
    )
    if name == "static":
        return StaticBatchScheduler(max_batch, step_stride)
    if name in ("paged", "prefix"):
        cls = PagedScheduler if name == "paged" else PrefixCachingScheduler
        return cls(
            MemoryModel.for_system(system, spec),
            system.capacity_bytes if capacity_bytes is None else capacity_bytes,
            block_size=DEFAULT_BLOCK_SIZE if block_size is None else block_size,
            max_batch=max_batch,
            step_stride=step_stride,
        )
    shape = {}
    if name in ("chunked", "overlap"):
        shape = dict(
            chunk_budget=DEFAULT_CHUNK_BUDGET if chunk_budget is None else chunk_budget,
            overlap_decode=name == "overlap",
        )
    elif name == "memory" and capacity_bytes is None:
        capacity_bytes = system.capacity_bytes
    if capacity_bytes is None:
        return FcfsContinuousScheduler(max_batch, step_stride, **shape)
    memory = MemoryModel.for_system(system, spec)
    return MemoryAwareScheduler(memory, capacity_bytes, max_batch, step_stride, **shape)
