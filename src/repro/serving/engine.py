"""Discrete-event, request-level serving engine (coalesced hot path).

Advances a :class:`~repro.perf.system.ServingSystem` through a
:class:`~repro.workloads.requests.Trace` one event at a time.  Four event
kinds move the clock:

* **arrival idle** — nothing resident: jump to the next arrival;
* **prefill** — the scheduler admits waiting requests; under a monolithic
  scheduler their prompts are processed in one compute-bound prefill that
  blocks the whole cluster (GPU and PIM execute in a blocked fashion,
  Section 5.6);
* **prefill chunk** — under a scheduler with a ``chunk_budget`` (the
  ``chunked`` and ``overlap`` policies of
  :class:`~repro.serving.schedulers.FcfsContinuousScheduler` and its
  capacity-bound subclass) each admitted cohort's prompt is instead
  streamed in budget-bounded chunks; the
  running decode batch piggybacks into the same priced iteration
  (Sarathi-style, cost = chunk + decode) or overlaps it entirely
  (NeuPIMs-style, cost = max(chunk, decode));
* **decode iteration** — every fully-prefilled resident request generates
  one token; the iteration is priced by ``perf.system`` at the
  scheduler-chosen (batch, context) point.  Under a preemptive scheduler
  (:class:`~repro.serving.schedulers.PagedScheduler`) an iteration that
  crosses a block boundary first claims the next block, which may
  *preempt* the youngest residents — their blocks are freed and they
  re-queue for restore;
* **restore prefill** — a previously preempted request re-enters by
  recomputing its KV: a solo prefill over prompt + already-generated
  tokens, priced like any other prefill, so preemption's cost is visible
  in the clock and the token accounting.

**The hot path is coalesced.**  Between two batch-composition events —
a finish, an admission, an arrival the scheduler would admit, a KV
block claim — nothing about the decode batch can change, so the engine
prices the whole stretch at once: it snapshots the running set into a
:class:`~repro.serving.slots.SlotView` (tuples of ints), asks the
scheduler's :meth:`~repro.serving.schedulers.Scheduler.decode_run` for
the run's pricing points as run-length ``(seq, count)`` stride segments,
prices each segment with one lookup in the memoized cost model, and
replays only the clock/queue-depth accumulation as a tight scalar loop
(float addition is order-sensitive, so that part *must* stay sequential
to remain bit-exact).  A run costs in proportion to the pricing points
that change, not to batch × steps, and every point is computed with
the integer arithmetic the scalar shape uses.  An arrival
that lands mid-run joins the queue inside that loop, and the run ends
there only if the scheduler's pure ``admit`` would take a request at
that clock — under overload, a full batch absorbs arrivals until its
earliest finish.  Per-request
Python work happens once per run instead of once per iteration — the
difference between O(batch) and O(1) bookkeeping per decode step, and the
source of the wall-clock speedup the ``wallclock`` benchmark gates.
Paged KV growth ends a run instead of opting out of coalescing: the
scheduler's
:meth:`~repro.serving.schedulers.Scheduler.steps_before_claim` caps each
run at the next block claim, and the claiming iteration runs
:meth:`~repro.serving.schedulers.Scheduler.prepare_iteration` first.
A claim that evicts nobody opens the next run: the horizon is read
again after the claims land, and the claim iteration is that run's
first step (the loop top in between could change nothing, because the
claims only shrank the free pool).  Only a claim that preempts is
priced alone, at the scheduler's scalar
:meth:`~repro.serving.schedulers.Scheduler.iteration_shape`, and then
keeps the same books as a one-step run.  The per-iteration loop lives
on only in the reference implementation
(:mod:`repro.serving._reference` — the specification the engine is
differentially tested against).

The engine records per-request lifecycle timestamps (arrival, admission,
first token, completion).  :meth:`ServingEngine.serve` keeps every event
(an :class:`EngineTrace`, what the bit-exactness tests compare);
:meth:`ServingEngine.serve_stats` streams them instead into an
O(1)-memory :class:`~repro.serving.metrics.EngineStats`, which is how a
million-request trace stays in interactive reach.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.models.config import ModelSpec
from repro.perf.system import ServingSystem
from repro.serving.costs import IterationCostModel
from repro.serving.metrics import (
    DepthSketch,
    EngineCounters,
    EngineStats,
    RequestStats,
    RequestTiming,
    ServingReport,
)
from repro.serving.schedulers import QueuedRows, RunningRequest, Scheduler
from repro.serving.slots import SlotView
from repro.workloads.requests import Trace

if TYPE_CHECKING:  # telemetry is optional at runtime; never imported here
    from repro.serving.telemetry import Collector


@dataclasses.dataclass(frozen=True)
class EngineTrace(EngineCounters):
    """Raw outcome of one engine run (before metric aggregation)."""

    timings: tuple[RequestTiming, ...]
    iteration_seconds: tuple[float, ...]  #: every iteration that decoded
    decode_tokens: tuple[int, ...]  #: tokens generated per such iteration
    prefill_seconds: tuple[float, ...]  #: every priced prefill event
    prefill_tokens: tuple[int, ...]  #: prompt tokens per prefill event
    start_s: float  #: first arrival
    end_s: float  #: last completion
    mean_queue_depth: float
    max_queue_depth: int
    preemptions: int = 0  #: paged evictions (each implies one restore)
    #: time-weighted queue-depth sketch (p50/p99); optional so that
    #: hand-built traces in tests stay valid without one
    depth: DepthSketch | None = None

    @classmethod
    def empty(cls) -> "EngineTrace":
        """The record of a run that served nothing.

        Zero span, no events, a fresh depth sketch: what the engine
        serves for an empty trace, so a cluster that routed nothing
        folds to the bare engine's record.
        """
        return cls(
            timings=(),
            iteration_seconds=(),
            decode_tokens=(),
            prefill_seconds=(),
            prefill_tokens=(),
            start_s=0.0,
            end_s=0.0,
            mean_queue_depth=0.0,
            max_queue_depth=0,
            depth=DepthSketch(),
        )

    @property
    def makespan_s(self) -> float:
        return self.end_s - self.start_s

    def stats(self) -> EngineStats:
        """Fold the per-event record into its streaming equivalent."""
        requests = RequestStats()
        for timing in self.timings:
            requests.observe(timing)
        return EngineStats(
            requests=requests,
            start_s=self.start_s,
            end_s=self.end_s,
            mean_queue_depth=self.mean_queue_depth,
            max_queue_depth=self.max_queue_depth,
            n_iterations=len(self.iteration_seconds),
            n_prefills=len(self.prefill_seconds),
            preemptions=self.preemptions,
            depth=self.depth,
            **self.counters(),
        )

    def report(self) -> ServingReport:
        return self.stats().report()


@dataclasses.dataclass
class _PrefillCohort:
    """One admission's prompts, streamed chunk by chunk (padded cohort).

    Mirrors the monolithic engine's padded-prefill semantics: the cohort
    is priced at its batch size and *max* input length, and every member
    becomes decodable only when the whole cohort finishes — so a single
    full-prompt chunk reproduces blocked FCFS exactly.
    """

    members: list[RunningRequest]
    max_input: int
    done: int = 0  #: prompt tokens already processed
    chunks: int = 0  #: chunk iterations taken so far

    @property
    def remaining(self) -> int:
        return self.max_input - self.done


class _TraceRecorder:
    """Keeps every event — what :meth:`ServingEngine.serve` returns."""

    __slots__ = (
        "iterations", "decode_tokens", "prefills", "prefill_tokens",
        "finished",
    )

    def __init__(self):
        self.iterations: list[float] = []
        self.decode_tokens: list[int] = []
        self.prefills: list[float] = []
        self.prefill_tokens: list[int] = []
        self.finished: list[RunningRequest] = []

    def prefill(self, dt: float, tokens: int) -> None:
        self.prefills.append(dt)
        self.prefill_tokens.append(tokens)

    def decode_run(self, dts: list[float], tokens_each: int) -> None:
        self.iterations.extend(dts)
        self.decode_tokens.extend([tokens_each] * len(dts))

    def finish(self, request: RunningRequest) -> None:
        self.finished.append(request)


class _StatsRecorder:
    """Streams events into counters + a :class:`RequestStats` (O(1) mem)."""

    __slots__ = ("requests", "n_iterations", "n_prefills")

    def __init__(self):
        self.requests = RequestStats()
        self.n_iterations = 0
        self.n_prefills = 0

    def prefill(self, dt: float, tokens: int) -> None:
        self.n_prefills += 1

    def decode_run(self, dts: list[float], tokens_each: int) -> None:
        self.n_iterations += len(dts)

    def finish(self, request: RunningRequest) -> None:
        self.requests.observe(request)


class ServingEngine:
    """Serves request traces on one system under one scheduling policy.

    The engine is the *mechanism*: it owns the clock, the waiting queue,
    the running set, and every per-request timestamp, and it prices each
    event through an :class:`~repro.serving.costs.IterationCostModel`.
    All *policy* — admission, iteration pricing shape, paged-KV growth,
    preemption — is delegated to the
    :class:`~repro.serving.schedulers.Scheduler`, whose lifecycle hooks
    (``on_admit``/``prepare_iteration``/``can_restore``/``on_restore``/
    ``release``) the engine calls in a fixed order each loop iteration.
    One engine serves one trace at a time; :meth:`serve` returns the raw
    :class:`EngineTrace` (what equivalence tests compare bit for bit),
    :meth:`serve_stats` the O(1)-memory streaming
    :class:`~repro.serving.metrics.EngineStats`, and :meth:`run` the
    aggregated :class:`~repro.serving.metrics.ServingReport`.
    """

    def __init__(
        self,
        system: ServingSystem,
        spec: ModelSpec,
        scheduler: Scheduler,
    ):
        self.system = system
        self.spec = spec
        self.scheduler = scheduler
        self.cost = IterationCostModel(system, spec)

    def serve(
        self, trace: Trace, collector: "Collector | None" = None
    ) -> EngineTrace:
        """Run ``trace`` to completion and return the raw event record.

        ``collector`` optionally taps the run's span/gauge stream (see
        :mod:`repro.serving.telemetry`); the simulation itself — every
        priced event, every timestamp — is identical with or without one.
        """
        recorder = _TraceRecorder()
        run = self._serve(trace, recorder, collector)
        return EngineTrace(
            timings=tuple(
                r.timing()
                for r in sorted(
                    recorder.finished, key=lambda r: r.request_id
                )
            ),
            iteration_seconds=tuple(recorder.iterations),
            decode_tokens=tuple(recorder.decode_tokens),
            prefill_seconds=tuple(recorder.prefills),
            prefill_tokens=tuple(recorder.prefill_tokens),
            **run,
        )

    def serve_stats(
        self, trace: Trace, collector: "Collector | None" = None
    ) -> EngineStats:
        """Serve ``trace`` keeping O(1) memory: stream, don't record.

        Identical simulation to :meth:`serve` — same clock, same
        timestamps — but per-request outcomes fold straight into a
        :class:`~repro.serving.metrics.RequestStats` reservoir instead
        of accumulating event lists, so memory does not grow with the
        trace.  Below
        :data:`~repro.serving.metrics.DEFAULT_SKETCH_CAPACITY` completed
        requests the resulting report is bit-identical to
        ``serve(trace).report()``; above it, latency percentiles come
        from the seeded sample.
        """
        recorder = _StatsRecorder()
        run = self._serve(trace, recorder, collector)
        return EngineStats(
            requests=recorder.requests,
            n_iterations=recorder.n_iterations,
            n_prefills=recorder.n_prefills,
            **run,
        )

    def run(
        self, trace: Trace, collector: "Collector | None" = None
    ) -> ServingReport:
        """Serve ``trace`` (streaming) and return the aggregated report."""
        return self.serve_stats(trace, collector=collector).report()

    def _price_prefill(
        self, members: Sequence[RunningRequest], context: int
    ) -> tuple[float, int]:
        """One padded prefill of ``members`` over ``context`` tokens: its
        seconds, and the prompt tokens it computes.

        Padded-cohort pricing reuses only what *every* member has cached
        (``on_admit``/``on_restore`` just pinned it): the batch runs as
        one fused prefill, so the min hit is the longest prefix all of
        it can skip, and only the uncached suffix is priced — chunk
        costs telescope, so the split is exact.  Remote prefix pulls
        serialize on the link ahead of the prefill; each member's wire
        time adds up.
        """
        cached = min(m.cache_hit_last for m in members)
        seconds = self.cost.chunk_prefill_seconds(len(members), cached, context)
        return seconds + sum(m.transfer_s_last for m in members), context - cached

    def _serve(
        self, trace: Trace, rec, col: "Collector | None" = None
    ) -> dict:
        """The event loop: emits events through ``rec`` and returns, by
        name, the run fields :class:`EngineTrace` and
        :class:`~repro.serving.metrics.EngineStats` share."""
        # A reused engine must serve like a fresh one: drop the previous
        # run's cached prefixes and counters.
        self.scheduler.reset()
        budget = self.scheduler.chunk_budget
        #: one bool gates every telemetry touch on the hot path
        tel = col is not None and col.enabled
        # The waiting queue is the rows [head, tail) of the trace: rows
        # before head were admitted, rows from tail on have not arrived.
        # Arrivals move tail and admissions move head, so no queued
        # request is copied or built; `waiting` shows the range to admit.
        ids, arrival = trace.request_id, trace.arrival_s
        input_len, output_len = trace.input_len, trace.output_len
        session_id, prefilled_tokens = trace.session_id, trace.prefilled_tokens
        n_rows = len(arrival)
        head = tail = 0
        waiting = QueuedRows(trace)
        #: whether any row is a disaggregated continuation (handoff)
        continuations = any(prefilled_tokens)
        running: list[RunningRequest] = []
        preempted: list[RunningRequest] = []
        cohorts: collections.deque[_PrefillCohort] = collections.deque()
        preemptions = 0
        handoffs = 0
        handoff_bytes = 0.0
        idle_s = 0.0

        # An empty trace skips the loop and serves to the empty record
        # (zero span, no events): what one replica of a cluster that
        # routed it nothing produces.
        start = arrival[0] if n_rows else 0.0
        clock = start
        depth_area = 0.0
        max_depth = 0
        # Queue depth is piecewise-constant: accumulate time at the
        # current depth and flush one weighted segment into the sketch
        # only when the depth *changes* — O(queue mutations) RNG cost,
        # never per iteration.
        depth_sketch = DepthSketch()
        cur_depth = 0
        depth_acc = 0.0

        def set_depth(n: int) -> None:
            nonlocal cur_depth, depth_acc
            if depth_acc > 0.0:
                depth_sketch.observe(cur_depth, depth_acc)
                depth_acc = 0.0
            cur_depth = n

        def advance(dt: float) -> None:
            nonlocal clock, depth_area, depth_acc
            depth_area += (tail - head) * dt
            depth_acc += dt
            clock += dt

        def generate(
            members: list[RunningRequest], steps: int, first_clock: float
        ) -> int:
            """``steps`` decode tokens for each unfinished member, ending
            at ``clock``; returns how many members decoded.

            A first token is stamped at ``first_clock``, the end of the
            stretch's first iteration; a finish at ``clock``, which only
            the stretch's last iteration can reach.
            """
            n = 0
            for r in members:
                generated = r.generated
                if generated >= r.output_len:  # done
                    continue
                n += 1
                if generated == 0:
                    r.first_token_s = first_clock
                r.generated = generated = generated + steps
                if generated >= r.output_len:
                    r.finished_s = clock
                    self.scheduler.release(r)
                    rec.finish(r)
                    if tel:
                        col.finish(r)
            return n

        def gauge(n_running: int) -> None:
            """Sample the telemetry gauges at a batch-composition event."""
            col.gauge(
                clock, tail - head, n_running, self.scheduler.blocks_in_use,
                preemptions, self.scheduler.counters(),
            )

        while head < n_rows or running or preempted:
            while tail < n_rows and arrival[tail] <= clock:
                tail += 1
            qn = tail - head
            max_depth = max(max_depth, qn)
            if qn != cur_depth:
                set_depth(qn)

            if preempted:
                # Preempted requests are older than everything still
                # queued, so they restore head-of-line: no fresh
                # admission happens while one waits for blocks.
                restored = preempted[0]
                if self.scheduler.can_restore(restored, running):
                    preempted.pop(0)
                    self.scheduler.on_restore(restored)
                    restored.prefilled = True
                    # Re-enter in admission-age order, not at the tail:
                    # the restored request is the oldest resident and
                    # age decides who a preemptive scheduler protects.
                    age = (restored.admitted_s, restored.request_id)
                    at = next(
                        (
                            i
                            for i, r in enumerate(running)
                            if (r.admitted_s, r.request_id) > age
                        ),
                        len(running),
                    )
                    running.insert(at, restored)
                    # Recompute-style restore: re-prefill the prompt plus
                    # every token generated before the eviction, less the
                    # prefix on_restore just re-acquired from a cache.
                    dt, tokens = self._price_prefill(
                        (restored,), restored.input_len + restored.generated
                    )
                    t0 = clock
                    advance(dt)
                    rec.prefill(dt, tokens)
                    if tel:
                        col.prefill_span(t0, clock, tokens, (restored,), "restore")
                        gauge(len(running))
                    continue
                admitted_n = 0
            else:
                waiting.head, waiting.tail = head, tail
                admitted_n = self.scheduler.admit(waiting, running, tail < n_rows)
            if admitted_n > 0:
                rows = range(head, head + admitted_n)
                head += admitted_n
                set_depth(tail - head)
                admitted_s = clock
                stride = self.scheduler.request_stride
                # Positional: the hot construction, in field order.
                members = [
                    RunningRequest(
                        ids[i],
                        input_len[i],
                        output_len[i],
                        arrival[i],
                        admitted_s,
                        stride(output_len[i]),
                        session_id[i],
                        prefilled=budget is None or bool(prefilled_tokens[i]),
                    )
                    for i in rows
                ]
                running.extend(members)
                self.scheduler.on_admit(members)
                fresh = members
                if continuations:
                    # Disaggregated continuations: the prompt KV arrives
                    # precomputed over the wire, so the handoff
                    # serializes into this clock *instead of* a prefill.
                    # Handoffs are counted, never recorded as prefill
                    # events (a prefill event always covers >= 1
                    # computed token).
                    handed = [m for m, i in zip(members, rows) if prefilled_tokens[i]]
                    if handed:
                        fresh = [
                            m for m, i in zip(members, rows) if not prefilled_tokens[i]
                        ]
                        dt = 0.0
                        for i in rows:
                            if prefilled_tokens[i]:
                                dt += trace.handoff_s[i]
                                handoff_bytes += trace.handoff_bytes[i]
                        handoffs += len(handed)
                        advance(dt)
                        if tel:
                            col.prefill_span(admitted_s, clock, 0, handed, "handoff")
                if fresh:
                    cohort_input = max(m.input_len for m in fresh)
                    if budget is None:
                        # The cohort runs as one fused prefill of length
                        # cohort_input.
                        dt, tokens = self._price_prefill(fresh, cohort_input)
                        t0 = clock
                        advance(dt)
                        rec.prefill(dt, tokens)
                        if tel:
                            col.prefill_span(t0, clock, tokens, fresh, "prefill")
                    else:
                        # Chunking: no clock movement at admission — the
                        # prompt is streamed by the chunk iterations below.
                        cohorts.append(_PrefillCohort(fresh, cohort_input))
                if tel:
                    gauge(len(running))
                continue

            if cohorts:
                cohort = cohorts[0]
                chunk = min(budget, cohort.remaining)
                chunk_s = self.cost.chunk_prefill_seconds(
                    len(cohort.members), cohort.done, cohort.done + chunk
                )
                decodable = [
                    r for r in running if r.prefilled and not r.done
                ]
                # A cohort's first chunk re-forms the fused batch and runs
                # alone (this is what collapses budget >= prompt onto the
                # blocked FCFS engine); overlap never stalls.
                fused = decodable if (
                    self.scheduler.overlap_decode or cohort.chunks > 0
                ) else []
                if fused:
                    batch, seq = self.scheduler.iteration_shape(fused)
                    decode_s = self.cost.decode_seconds(batch, seq)
                    dt = (
                        max(chunk_s, decode_s)
                        if self.scheduler.overlap_decode
                        else chunk_s + decode_s
                    )
                else:
                    dt = chunk_s
                t0 = clock
                advance(dt)
                rec.prefill(chunk_s, chunk)
                cohort.done += chunk
                cohort.chunks += 1
                if tel:
                    col.prefill_span(t0, clock, chunk, cohort.members, "chunk")
                if fused:
                    n_active = generate(fused, 1, clock)
                    rec.decode_run([dt], n_active)
                    if tel:
                        col.decode_span(t0, clock, 1, n_active, fused)
                    running = [r for r in running if not r.done]
                if cohort.remaining == 0:
                    for r in cohort.members:
                        r.prefilled = True
                    cohorts.popleft()
                if tel:
                    gauge(len(running))
                continue

            if running:
                # Every decode stretch outside a prefill chunk.  Until a
                # resident finishes, the scheduler would admit an
                # arrival, or a resident must claim KV, the batch cannot
                # change: a coalesced run prices the whole stretch one
                # stride segment at a time.  A claiming iteration
                # (horizon 0) claims first.  When it evicts nobody it
                # opens the run that follows, whose horizon is read
                # again after the claims land: between the two, the
                # loop top could change nothing (the claims only shrank
                # the free pool, so admit and can_restore, which refused
                # before them, still refuse).  One that preempts runs
                # alone, priced at the scalar shape.
                horizon = self.scheduler.steps_before_claim(running)
                claimed = False
                if not horizon:
                    victims = self.scheduler.prepare_iteration(running)
                    if victims:
                        # Pool exhausted: the scheduler already freed the
                        # victims' blocks; evict them from the running set
                        # and re-queue them (oldest first) for restore.
                        preemptions += len(victims)
                        evicted = {id(v) for v in victims}
                        running = [r for r in running if id(r) not in evicted]
                        for v in victims:
                            v.prefilled = False
                            v.preemptions += 1
                        preempted.extend(victims)
                        preempted.sort(key=lambda r: (r.admitted_s, r.request_id))
                        if tel:
                            col.preempt(clock, victims)
                        if not running:
                            if tel:
                                gauge(0)
                            continue
                    else:
                        claimed = True
                        horizon = self.scheduler.steps_before_claim(running)
                if horizon:
                    slots = SlotView.from_requests(running)
                    steps = min(slots.max_coalesced_steps(), horizon)
                    batch, segments = self.scheduler.decode_run(slots, steps)
                else:
                    batch, seq = self.scheduler.iteration_shape(running)
                    steps, segments = 1, [(seq, 1)]
                dts = []
                for seq, count in segments:
                    dts += [self.cost.decode_seconds(batch, seq)] * count
                # Replay only the order-sensitive float accumulation.
                qlen = tail - head
                tail_before = tail
                clock_before = clock
                next_arrival = arrival[tail] if tail < n_rows else math.inf
                for executed, dt in enumerate(dts, 1):
                    depth_area += qlen * dt
                    depth_acc += dt
                    clock += dt
                    if next_arrival <= clock:
                        # Absorb the arrivals exactly as the loop top
                        # would after this step: queue them and start
                        # a depth segment at the new length (the queue
                        # only grows mid-run, so the loop top's
                        # max_depth still sees its peak).  The run
                        # goes on unless admit — pure, and blind to
                        # decode progress — would take one now.  A
                        # waiting restore blocks admission, and no
                        # step of the run can let it in.
                        tail += 1
                        while tail < n_rows and arrival[tail] <= clock:
                            tail += 1
                        qlen = tail - head
                        set_depth(qlen)
                        if not preempted:
                            waiting.head, waiting.tail = head, tail
                            if self.scheduler.admit(waiting, running, tail < n_rows):
                                break
                        next_arrival = arrival[tail] if tail < n_rows else math.inf
                # Bit-exact re-derivation: after the first iteration the
                # clock was exactly clock_before + dts[0] (one float add).
                first_clock = clock_before + dts[0]
                split = tel and claimed and executed > 1
                if split:
                    # The claim iteration keeps its own decode span and
                    # gauge, as if it had run alone: no resident finishes
                    # in it (the run is longer), and a claiming policy
                    # keeps no finished resident, so all of them decode.
                    # Its queue depth leaves out the later arrivals.
                    col.decode_span(clock_before, first_clock, 1, len(running), running)
                    arrived = tail
                    while arrived > tail_before and arrival[arrived - 1] > first_clock:
                        arrived -= 1
                    col.gauge(
                        first_clock,
                        arrived - head,
                        len(running),
                        self.scheduler.blocks_in_use,
                        preemptions,
                        self.scheduler.counters(),
                    )
                n_active = generate(running, executed, first_clock)
                rec.decode_run(dts if executed == steps else dts[:executed], n_active)
                if tel:
                    # The whole stretch is one decode span; the exporter
                    # expands it per member (the batch could not change
                    # mid-run — that is what made it coalescable).
                    if split:
                        t0, spanned = first_clock, executed - 1
                    else:
                        t0, spanned = clock_before, executed
                    col.decode_span(t0, clock, spanned, spanned * n_active, running)
                if executed == steps:
                    # Only a full run can finish anyone (a run stops at
                    # the earliest finish among active slots, or sooner).
                    if self.scheduler.keep_finished:
                        if all(r.done for r in running):
                            running.clear()
                    else:
                        running = [r for r in running if r.generated < r.output_len]
                if tel:
                    gauge(len(running))
                continue

            if tail < n_rows:
                dt = arrival[tail] - clock
                advance(dt)
                idle_s += dt
                if tel:
                    gauge(len(running))
                continue

            raise RuntimeError(
                f"scheduler {type(self.scheduler).__name__} cannot place "
                f"{tail - head} waiting request(s) on an idle cluster — "
                "the head request exceeds the admission bound"
            )

        if depth_acc > 0.0:
            depth_sketch.observe(cur_depth, depth_acc)
        return dict(
            start_s=start,
            end_s=clock,
            mean_queue_depth=depth_area / max(clock - start, 1e-12),
            max_queue_depth=max_depth,
            preemptions=preemptions,
            depth=depth_sketch,
            handoffs=handoffs,
            handoff_bytes=handoff_bytes,
            busy_s=(clock - start) - idle_s,
            **self.scheduler.counters(),
        )
