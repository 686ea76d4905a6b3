"""The scalar reference engine: one Python object touched per event.

This is the pre-vectorization ``ServingEngine`` inner loop, kept verbatim
as an executable *specification*.  It advances every decode iteration one
at a time, touching each :class:`~repro.serving.schedulers.RunningRequest`
individually — O(batch) Python work per iteration — which is exactly what
makes it trustworthy: every engine rule (admission order, padded-cohort
pricing, chunk fusion, preempt/restore accounting) is written out as
straight-line per-request code with no batching cleverness to hide a bug
in.

Two consumers keep it honest and keep it around:

* the differential tests assert ``ServingEngine.serve`` returns a
  bit-identical :class:`~repro.serving.engine.EngineTrace` under every
  scheduler policy, so the vectorized hot path can never drift from this
  specification without turning CI red;
* the ``wallclock`` trial times both engines on the same ~100k-request
  trace, so the speedup the vectorized core exists for is measured (and
  regression-gated) on every PR rather than asserted once in a commit
  message.

Do not optimize this module.  Its slowness is its job.
"""

from __future__ import annotations

import collections

from repro.models.config import ModelSpec
from repro.perf.system import ServingSystem
from repro.serving.costs import IterationCostModel
from repro.serving.engine import EngineTrace, _PrefillCohort
from repro.serving.metrics import DepthSketch, ServingReport
from repro.serving.schedulers import QueuedRequests, RunningRequest, Scheduler
from repro.workloads.requests import Trace


class ReferenceEngine:
    """Serves request traces one scalar event at a time (see module doc)."""

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

    def serve(self, trace: Trace) -> EngineTrace:
        """Run ``trace`` to completion and return the raw event record."""
        # A reused engine must serve like a fresh one.
        self.scheduler.reset()
        budget = self.scheduler.chunk_budget
        pending = collections.deque(trace.requests)
        queue = QueuedRequests()
        running: list[RunningRequest] = []
        preempted: list[RunningRequest] = []
        cohorts: collections.deque[_PrefillCohort] = collections.deque()
        finished: list[RunningRequest] = []
        iterations: list[float] = []
        decode_tokens: list[int] = []
        prefills: list[float] = []
        prefill_tokens: list[int] = []
        preemptions = 0
        handoffs = 0
        handoff_bytes = 0.0
        idle_s = 0.0

        if not pending:
            # An empty trace serves to an empty record: zero span, no
            # events, the NaN-percentile report — exactly what one
            # replica of a cluster that routed it nothing produces.
            return EngineTrace.empty()

        start = pending[0].arrival_s
        clock = start
        depth_area = 0.0
        max_depth = 0
        # Mirror of the vectorized engine's depth-segment accumulation:
        # flush a weighted segment only when the depth changes, so both
        # engines consume identical RNG streams and their sketches
        # compare equal bit for bit.
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
            depth_area += len(queue) * dt
            depth_acc += dt
            clock += dt

        def generate(members: list[RunningRequest]) -> int:
            """One decode token per unfinished member, stamped at ``clock``."""
            n = 0
            for r in members:
                if r.done:
                    continue
                r.generated += 1
                n += 1
                if r.generated == 1:
                    r.first_token_s = clock
                if r.done:
                    r.finished_s = clock
                    self.scheduler.release(r)
                    finished.append(r)
            return n

        while pending or queue or running or preempted:
            while pending and pending[0].arrival_s <= clock:
                queue.append(pending.popleft())
            qn = len(queue)
            max_depth = max(max_depth, qn)
            if qn != cur_depth:
                set_depth(qn)

            if preempted:
                # Preempted requests are older than everything still
                # queued, so they restore head-of-line: no fresh
                # admission happens while one waits for blocks.
                head = preempted[0]
                if self.scheduler.can_restore(head, running):
                    preempted.pop(0)
                    self.scheduler.on_restore(head)
                    head.prefilled = True
                    # Re-enter in admission-age order, not at the tail:
                    # the restored request is the oldest resident and
                    # age decides who a preemptive scheduler protects.
                    age = (head.admitted_s, head.request_id)
                    at = next(
                        (
                            i
                            for i, r in enumerate(running)
                            if (r.admitted_s, r.request_id) > age
                        ),
                        len(running),
                    )
                    running.insert(at, head)
                    # Recompute-style restore: re-prefill the prompt plus
                    # every token generated before the eviction.  A prefix
                    # cache may cover a leading run of those tokens
                    # (on_restore just re-acquired the session's blocks);
                    # only the uncached suffix is computed and priced —
                    # chunk costs telescope, so the split is exact.
                    context = head.input_len + head.generated
                    cached = head.cache_hit_last
                    if cached:
                        dt = self.cost.chunk_prefill_seconds(
                            1, cached, context
                        )
                    else:
                        dt = self.cost.prefill_seconds(1, context)
                    # A restore that pulled remote prefix blocks pays the
                    # wire time before its (shortened) re-prefill.
                    if head.transfer_s_last:
                        dt += head.transfer_s_last
                    advance(dt)
                    prefills.append(dt)
                    prefill_tokens.append(context - cached)
                    continue
                admitted_n = 0
            else:
                admitted_n = self.scheduler.admit(
                    queue, running, bool(pending)
                )
            if admitted_n > 0:
                admitted, queue[:admitted_n] = queue[:admitted_n], []
                set_depth(len(queue))
                admitted_s = clock
                members = [
                    RunningRequest(
                        request_id=t.request_id,
                        input_len=t.input_len,
                        output_len=t.output_len,
                        arrival_s=t.arrival_s,
                        admitted_s=admitted_s,
                        stride=self.scheduler.request_stride(t.output_len),
                        session_id=t.session_id,
                        prefilled=(
                            budget is None or bool(t.prefilled_tokens)
                        ),
                    )
                    for t in admitted
                ]
                running.extend(members)
                self.scheduler.on_admit(members)
                # Disaggregated continuations: the prompt KV arrives
                # precomputed over the wire, so the handoff serializes
                # into this clock *instead of* a prefill.  Handoffs are
                # counted, never recorded as prefill events (a prefill
                # event always covers >= 1 computed token).
                handed = [
                    (m, t) for m, t in zip(members, admitted) if t.prefilled_tokens
                ]
                if handed:
                    dt = 0.0
                    for _, t in handed:
                        dt += t.handoff_s
                        handoff_bytes += t.handoff_bytes
                    handoffs += len(handed)
                    advance(dt)
                fresh = [
                    m for m, t in zip(members, admitted) if not t.prefilled_tokens
                ]
                if fresh:
                    cohort_input = max(m.input_len for m in fresh)
                    if budget is None:
                        # Padded-cohort pricing reuses only what *every*
                        # member has cached: the cohort runs as one fused
                        # prefill of length cohort_input, so the min hit
                        # is the longest prefix the whole batch can skip.
                        cached = min(m.cache_hit_last for m in fresh)
                        if cached:
                            dt = self.cost.chunk_prefill_seconds(
                                len(fresh), cached, cohort_input
                            )
                        else:
                            dt = self.cost.prefill_seconds(
                                len(fresh), cohort_input
                            )
                        # Remote prefix pulls serialize on the link ahead
                        # of the fused prefill; each member's wire time
                        # adds up.
                        transfer = sum(m.transfer_s_last for m in fresh)
                        if transfer:
                            dt += transfer
                        advance(dt)
                        prefills.append(dt)
                        prefill_tokens.append(cohort_input - cached)
                    else:
                        # Chunking: no clock movement at admission — the
                        # prompt is streamed by the chunk iterations below.
                        cohorts.append(_PrefillCohort(fresh, cohort_input))
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
                advance(dt)
                prefills.append(chunk_s)
                prefill_tokens.append(chunk)
                cohort.done += chunk
                cohort.chunks += 1
                if fused:
                    iterations.append(dt)
                    decode_tokens.append(generate(fused))
                    running = [r for r in running if not r.done]
                if cohort.remaining == 0:
                    for r in cohort.members:
                        r.prefilled = True
                    cohorts.popleft()
                continue

            if running:
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
                    preempted.sort(
                        key=lambda r: (r.admitted_s, r.request_id)
                    )
                    if not running:
                        continue
                batch, seq = self.scheduler.iteration_shape(running)
                dt = self.cost.decode_seconds(batch, seq)
                advance(dt)
                iterations.append(dt)
                decode_tokens.append(generate(running))
                if self.scheduler.keep_finished:
                    if all(r.done for r in running):
                        running.clear()
                else:
                    running = [r for r in running if not r.done]
                continue

            if pending:
                dt = pending[0].arrival_s - clock
                advance(dt)
                idle_s += dt
                continue

            raise RuntimeError(
                f"scheduler {type(self.scheduler).__name__} cannot place "
                f"{len(queue)} waiting request(s) on an idle cluster — "
                "the head request exceeds the admission bound"
            )

        if depth_acc > 0.0:
            depth_sketch.observe(cur_depth, depth_acc)
        end = clock
        timings = tuple(
            r.timing()
            for r in sorted(finished, key=lambda r: r.request_id)
        )
        span = max(end - start, 1e-12)
        return EngineTrace(
            timings=timings,
            iteration_seconds=tuple(iterations),
            decode_tokens=tuple(decode_tokens),
            prefill_seconds=tuple(prefills),
            prefill_tokens=tuple(prefill_tokens),
            start_s=start,
            end_s=end,
            mean_queue_depth=depth_area / span,
            max_queue_depth=max_depth,
            preemptions=preemptions,
            handoffs=handoffs,
            handoff_bytes=handoff_bytes,
            busy_s=(end - start) - idle_s,
            depth=depth_sketch,
            **self.scheduler.counters(),
        )

    def run(self, trace: Trace) -> ServingReport:
        """Serve ``trace`` and return the aggregated report."""
        return self.serve(trace).report()
