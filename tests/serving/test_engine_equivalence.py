"""Differential harness: the coalesced engine vs the scalar reference.

The production :class:`~repro.serving.engine.ServingEngine` coalesces
decode stretches and prices them by stride segment; the
:class:`~repro.serving._reference.ReferenceEngine` is the pre-vectorization
scalar loop kept in-tree as the executable specification.  These tests pin
the two together *bit for bit* — not approximately — across every
scheduler policy, so any drift in the hot path (a clock accumulated in a
different order, a pricing point rounded differently, a finisher stamped
one iteration late) turns the suite red instead of quietly skewing every
serving result downstream.

The same harness pins the streaming side: ``run()`` (reservoir-backed,
O(1) memory) must produce the *identical* payload as the full event
record's report while traces fit the sketch capacity, and a scheduler's
segmented ``decode_run`` must expand to its own scalar
``iteration_shape`` stepped one iteration at a time.
"""

import dataclasses
import math
import random

import pytest

from repro.models import spec_for
from repro.perf.system import SystemKind, build_system
from repro.serving import (
    DEFAULT_SKETCH_CAPACITY,
    Collector,
    FcfsContinuousScheduler,
    MemoryAwareScheduler,
    MemoryModel,
    PagedScheduler,
    PrefixCachingScheduler,
    ReferenceEngine,
    RequestStats,
    RunningRequest,
    ServingEngine,
    SloSpec,
    SlotView,
    TimelineCollector,
    build_cluster,
    build_scheduler,
    fixed_lengths,
    gamma_trace,
    lognormal_lengths,
    multiturn_chat_trace,
    poisson_trace,
)
from repro.serving.costs import IterationCostModel
from repro.serving.schedulers import QueuedRequests
from repro.workloads.requests import Request, TimedRequest, Trace
from repro.workloads.serving import clamped_stride

BUDGET = 96


def _handed_trace():
    """A mixed stream where every third request is a handed-off decode
    continuation (its prefill already ran on some prefill replica), so
    the differential matrix covers the admission path disaggregation
    adds: handoff delay folded into the clock, decode-only lifecycles
    interleaved with fresh prefills."""
    base = poisson_trace(12.0, 32, fixed_lengths(256, 32), seed=5)
    timed = tuple(
        TimedRequest(
            t.request,
            t.arrival_s,
            prefilled_tokens=t.request.input_len,
            handoff_s=0.004,
            handoff_bytes=2.0e8,
        )
        if i % 3 == 0
        else t
        for i, t in enumerate(base.requests)
    )
    return Trace(timed)

SCHEDULERS = (
    "static", "fcfs", "memory", "chunked", "overlap", "chunked+hbm",
    "paged", "paged+tight", "prefix", "prefix+tight",
)

TRACES = {
    "poisson": lambda: poisson_trace(
        12.0, 32, fixed_lengths(256, 32), seed=0
    ),
    "bursty": lambda: gamma_trace(
        8.0, 24, cv=3.0, lengths=fixed_lengths(256, 32), seed=1
    ),
    "ragged": lambda: poisson_trace(
        6.0, 24, lognormal_lengths(192, 24, 0.6), seed=2
    ),
    # Sessions re-send their growing history, so the prefix policies see
    # real cache hits (the sessionless traces leave their cache cold).
    "chat": lambda: multiturn_chat_trace(
        3.0, 6, turns=3, first_input=128, user_tokens=24, output_len=24,
        think_s=1.0, seed=3,
    ),
    # Handed-off decode continuations (prefilled elsewhere, KV arriving
    # over a priced wire) interleaved with fresh prefills — the arrivals
    # a decode-side replica of a disaggregated fleet sees.
    "handed": _handed_trace,
    # Far past the knee: fcfs at max_batch 8 serves ~23 req/s, so 150 qps
    # lands most arrivals mid-run on a full batch, where a coalesced run
    # absorbs them into the queue instead of ending.
    "overload": lambda: poisson_trace(
        150.0, 40, fixed_lengths(256, 32), seed=7
    ),
}

SLO = SloSpec(ttft_s=2.0, tpot_s=0.018)


@pytest.fixture(scope="module")
def zamba_spec():
    return spec_for("Zamba2")


@pytest.fixture(scope="module")
def pimba_system():
    return build_system(SystemKind.PIMBA, "small")


def make_scheduler(name, system, spec):
    if name == "chunked+hbm":
        return MemoryAwareScheduler(
            MemoryModel.for_system(system, spec),
            system.capacity_bytes,
            max_batch=8,
            chunk_budget=BUDGET,
        )
    if name in ("paged+tight", "prefix+tight"):
        cls = PagedScheduler if name == "paged+tight" else (
            PrefixCachingScheduler
        )
        memory = MemoryModel.for_system(system, spec)
        return cls(
            memory,
            memory.weights_bytes + 2.93 * memory.request_bytes(256, 32),
            block_size=16,
            max_batch=8,
        )
    shape = {"chunk_budget": BUDGET} if name in ("chunked", "overlap") else {}
    return build_scheduler(name, system, spec, max_batch=8, **shape)


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("scheduler_name", SCHEDULERS)
class TestBitExactness:
    """The vectorized engine IS the reference engine, to the last bit."""

    def test_engine_trace_identical(
        self, scheduler_name, trace_name, pimba_system, zamba_spec
    ):
        trace = TRACES[trace_name]()
        reference = ReferenceEngine(
            pimba_system,
            zamba_spec,
            make_scheduler(scheduler_name, pimba_system, zamba_spec),
        ).serve(trace)
        vectorized = ServingEngine(
            pimba_system,
            zamba_spec,
            make_scheduler(scheduler_name, pimba_system, zamba_spec),
        ).serve(trace)
        # asdict compares every timestamp, every priced iteration, and
        # every counter; == on floats means bit-equal, not approx.
        assert dataclasses.asdict(vectorized) == dataclasses.asdict(
            reference
        )

    def test_streaming_run_matches_event_record(
        self, scheduler_name, trace_name, pimba_system, zamba_spec
    ):
        """Below the sketch capacity the reservoir holds the whole
        population, so the streaming path's payload must be *equal*, not
        close, to the full event record's."""
        trace = TRACES[trace_name]()
        recorded = ServingEngine(
            pimba_system,
            zamba_spec,
            make_scheduler(scheduler_name, pimba_system, zamba_spec),
        ).serve(trace).report().to_payload(SLO)
        streamed = ServingEngine(
            pimba_system,
            zamba_spec,
            make_scheduler(scheduler_name, pimba_system, zamba_spec),
        ).run(trace).to_payload(SLO)
        assert streamed == recorded


class TestPrefixDegeneracy:
    """Prefix caching starved of sessions IS the paged policy.

    Not approximately: every decision float, every priced iteration, and
    every counter of :class:`PrefixCachingScheduler` must be bit-equal to
    :class:`PagedScheduler`'s whenever the cache cannot apply, so turning
    the feature on can never perturb a cacheless workload.
    """

    def pair(self, system, spec):
        memory = MemoryModel.for_system(system, spec)
        # Tight enough to preempt, so the evict/restore path is part of
        # the equivalence too, not just steady-state admission.
        capacity = memory.weights_bytes + 2.93 * memory.request_bytes(
            256, 32
        )
        paged = PagedScheduler(memory, capacity, block_size=16, max_batch=8)
        prefix = PrefixCachingScheduler(
            memory, capacity, block_size=16, max_batch=8
        )
        return paged, prefix

    def test_sessionless_trace_is_paged_bit_for_bit(
        self, pimba_system, zamba_spec
    ):
        """No request carries a session id: identical EngineTrace."""
        trace = TRACES["poisson"]()
        paged, prefix = self.pair(pimba_system, zamba_spec)
        baseline = ServingEngine(pimba_system, zamba_spec, paged).serve(trace)
        run = ServingEngine(pimba_system, zamba_spec, prefix).serve(trace)
        assert dataclasses.asdict(run) == dataclasses.asdict(baseline)
        assert run.cache_hit_tokens == 0
        assert run.cache_miss_tokens == 0

    def test_cache_on_actually_diverges_on_sessions(
        self, pimba_system, zamba_spec
    ):
        """The harness is not vacuous: with sessions to reuse,
        the prefix policy really does skip recomputation."""
        trace = TRACES["chat"]()
        paged, prefix = self.pair(pimba_system, zamba_spec)
        baseline = ServingEngine(pimba_system, zamba_spec, paged).serve(trace)
        run = ServingEngine(pimba_system, zamba_spec, prefix).serve(trace)
        assert run.cache_hit_tokens > 0
        assert sum(run.prefill_tokens) < sum(baseline.prefill_tokens)
        assert sum(run.decode_tokens) == sum(baseline.decode_tokens)


def test_overloaded_runs_end_on_batch_changes_not_arrivals(
    pimba_system, zamba_spec
):
    """On a full batch an arrival cannot change the decode batch, so it
    must not end a coalesced run either: decode spans track admissions
    and finishes, however many requests arrive mid-run."""
    trace = TRACES["overload"]()
    collector = TimelineCollector()
    record = ServingEngine(
        pimba_system,
        zamba_spec,
        make_scheduler("fcfs", pimba_system, zamba_spec),
    ).serve(trace, collector=collector)
    (track,) = collector.timeline.tracks
    decode_spans = sum(1 for s in track.spans if s[0] == "decode")
    admissions = sum(1 for s in track.spans if s[0] == "prefill")
    finishes = len({t.finished_s for t in record.timings})
    assert record.max_queue_depth > 8  # overloaded: the queue backs up
    assert decode_spans <= admissions + finishes


PAGED = tuple(s for s in SCHEDULERS if s.startswith(("paged", "prefix")))


@pytest.mark.parametrize("trace_name", ("poisson", "chat", "overload"))
@pytest.mark.parametrize("scheduler_name", PAGED)
def test_paged_decode_runs_really_coalesce(
    scheduler_name, trace_name, pimba_system, zamba_spec
):
    """Bit-exactness cannot see a silent fall back to one scalar step
    per iteration, so count: a decode span is a stretch of one coalesced
    run (a run that goes through a block claim records the claim
    iteration as its own span), and paged growth must leave most
    iterations inside long spans — at most one span per three
    iterations."""
    collector = TimelineCollector()
    record = ServingEngine(
        pimba_system,
        zamba_spec,
        make_scheduler(scheduler_name, pimba_system, zamba_spec),
    ).serve(TRACES[trace_name](), collector=collector)
    (track,) = collector.timeline.tracks
    decode_spans = sum(1 for s in track.spans if s[0] == "decode")
    assert 3 * decode_spans < len(record.iteration_seconds)


def _scalar_steps_before_claim(scheduler, running):
    """Scalar ``prepare_iteration`` steps before ``allocated_blocks``
    first moves (``math.inf`` if it never does before all finish)."""
    steps = 0
    while running:
        claimed = scheduler.pool.allocated_blocks
        assert scheduler.prepare_iteration(running) == []
        if scheduler.pool.allocated_blocks != claimed:
            return steps
        steps += 1
        for r in running:
            r.generated += 1
            if r.done:
                scheduler.release(r)
        running = [r for r in running if not r.done]
    return math.inf


#: residents as (input_len, output_len, generated) at block size 16 — a
#: resident that has generated tokens enters by restore — and the
#: claim-free iterations they have ahead
HORIZON_CASES = {
    # 64 prompt tokens fill four blocks: the first decode claims a fifth
    "block-aligned prompt": ([(64, 40, 0), (50, 40, 0)], 0),
    # both tails are trimmed to the final context: nothing ever claims
    "final context fits the claimed blocks": ([(60, 4, 0), (20, 12, 0)], math.inf),
    # 90 tokens in six blocks (96) of a 99-token final context
    "mid-block residents": ([(50, 40, 0), (33, 40, 0), (90, 9, 0)], 6),
    # restored at 73 tokens into five blocks (80)
    "restores": ([(40, 40, 9), (70, 30, 3), (17, 40, 0)], 7),
    # 64 pinned prefix tokens + 48 claimed cover 112 of 140
    "shared prefix": ([(100, 40, 0), (50, 20, 0)], 12),
    # restored at 105 tokens: again 64 pinned + 48 claimed
    "shared prefix restore": ([(100, 40, 5), (41, 40, 0)], 7),
}


@pytest.mark.parametrize("case", sorted(HORIZON_CASES))
def test_steps_before_claim_is_the_scalar_claim_horizon(case, pimba_system, zamba_spec):
    """The horizon a paged run is cut at is exact: the number of scalar
    iterations whose ``prepare_iteration`` claims nothing, counted by
    stepping the scalar path until the pool's claim counter moves."""
    residents, expected = HORIZON_CASES[case]
    shared = case.startswith("shared")
    scheduler = make_scheduler("prefix+tight", pimba_system, zamba_spec)
    # Session 7's history covers four blocks; the first resident of the
    # shared-prefix cases pins them instead of claiming its own.
    scheduler.pool.publish(7, 64)
    running = []
    for rid, (input_len, output_len, generated) in enumerate(residents):
        session = 7 if shared and rid == 0 else None
        r = RunningRequest(
            request_id=rid,
            input_len=input_len,
            output_len=output_len,
            arrival_s=0.0,
            session_id=session,
            admitted_s=float(rid),
            stride=scheduler.request_stride(output_len),
            generated=generated,
        )
        if generated:
            scheduler.on_restore(r)
        else:
            scheduler.on_admit([r])
        running.append(r)
    assert running[0].cache_hit_last == (64 if shared else 0)
    horizon = scheduler.steps_before_claim(running)
    assert horizon == expected
    assert horizon == _scalar_steps_before_claim(scheduler, running)


def test_steps_before_claim_is_unbounded_once_a_block_covers_the_final_context(
    pimba_system, zamba_spec
):
    """A block at least the final context holds the whole footprint from
    admission on, so no iteration ever claims — the runs
    ``paged == memory`` rests on."""
    memory = MemoryModel.for_system(pimba_system, zamba_spec)
    scheduler = PagedScheduler(
        memory, pimba_system.capacity_bytes, block_size=64 + 40
    )
    r = RunningRequest(
        request_id=0,
        input_len=64,
        output_len=40,
        arrival_s=0.0,
        admitted_s=0.0,
        stride=scheduler.request_stride(40),
    )
    scheduler.on_admit([r])
    assert scheduler.pool.covered(0) == 64 + 40
    assert scheduler.steps_before_claim([r]) == math.inf
    assert _scalar_steps_before_claim(scheduler, [r]) == math.inf


def _lru_trim(pool):
    """A prefix pool's trim, one LRU block at a time."""
    free = pool.free_bytes
    while pool.cache.cached_bytes > free and pool.cache.evict_lru():
        pass


def _extend_one(pool, request_id, context, final):
    """One claim on the float footprints, written out: nothing inside the
    holding's blocks, a refusal when the new blocks' bytes exceed the
    free pool, else the claim and the pool's settling hook (a trim)."""
    holding = pool._holdings[request_id]
    kv_tokens = pool.covered_tokens(context, final) - holding.shared_tokens
    if kv_tokens <= holding.kv_tokens:
        return True
    reserved = pool.memory.reserved_bytes
    delta = reserved(kv_tokens) - reserved(holding.kv_tokens)
    if delta > pool.free_bytes:
        return False
    blocks = pool.blocks_for(context) - holding.shared_tokens // pool.block_size
    pool.allocated_blocks += blocks - holding.blocks
    pool._held += int(delta)
    holding.blocks, holding.kv_tokens = blocks, kv_tokens
    pool._claimed()
    return True


def _sequential_prepare(scheduler, running):
    """The claim step one resident at a time: extend every resident in
    age order, and on each failed extend evict the youngest resident,
    the claimer included."""
    pool = scheduler.pool
    victims = []
    alive = sorted(running, key=lambda r: (r.admitted_s, r.request_id))
    i = 0
    while i < len(alive):
        r = alive[i]
        context, final = r.input_len + r.generated + 1, r.input_len + r.output_len
        while not _extend_one(pool, r.request_id, context, final):
            victim = alive.pop()
            pool.release(victim.request_id)
            victims.append(victim)
            if victim is r:
                break
        else:
            i += 1
    return victims


def _ledger(pool):
    """Everything a claim step can change in a pool, comparable by ``==``."""
    state = {
        "holdings": {
            rid: (h.blocks, h.kv_tokens, h.shared_tokens)
            for rid, h in pool._holdings.items()
        },
        "free_bytes": pool.free_bytes,
        "blocks": (pool.allocated_blocks, pool.freed_blocks),
    }
    cache = getattr(pool, "cache", None)
    if cache is not None:
        state["evictions"] = cache.evictions
        state["lru"] = list(cache._lru)
        state["refs"] = dict(cache._refs)
    return state


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ("paged+tight", "prefix+tight"))
def test_prepare_iteration_equals_sequential_extends(
    name, seed, pimba_system, zamba_spec
):
    """Seeded differential check of the crossing-only batched claims.

    Two schedulers on the same tight pool live through the same random
    admissions, decode steps, preemptions, restores and completions.
    One claims through ``prepare_iteration``; the other through the
    per-resident loop of written-out extends above, and (prefix) trims
    its cache one LRU block at a time after every claim.  After each claim step the
    victims, every holding, the free bytes, the block counters, the
    eviction count and the surviving LRU order must agree.  Both paths
    of ``prepare_iteration`` are taken: one all-or-nothing pass over
    several crossers, and the age-ordered fallback when their claims do
    not fit together.
    """
    rng = random.Random(f"claims-{name}-{seed}")
    # The running order is the engine's business, not the ledger's: the
    # subject sees its residents shuffled before every claim step.
    shuffle = random.Random(seed).shuffle
    subject = make_scheduler(name, pimba_system, zamba_spec)
    oracle = make_scheduler(name, pimba_system, zamba_spec)
    if name.startswith("prefix"):
        oracle.pool._trim = oracle.pool._claimed = lambda: _lru_trim(oracle.pool)
    passes = []
    extend_all = subject.pool.extend_all

    def spy(claims):
        landed = extend_all(claims)
        passes.append((len(claims), landed))
        return landed

    subject.pool.extend_all = spy
    worlds = ((subject, [], []), (oracle, [], []))  # scheduler, running, preempted
    for step in range(400):
        if worlds[0][2]:
            restorable = [s.can_restore(p[0], run) for s, run, p in worlds]
            assert restorable[0] == restorable[1]
            if restorable[0]:
                for s, run, preempted in worlds:
                    head = preempted.pop(0)
                    s.on_restore(head)
                    run.append(head)
        else:
            # Mostly block-aligned prompts, so residents admitted
            # together cross their coverage on the same step.
            for k in range(rng.choice((0, 0, 1, 2, 3))):
                session = rng.randrange(3) if rng.random() < 0.7 else None
                timed = TimedRequest(
                    Request(
                        3 * step + k,
                        16 * rng.randint(1, 12) - rng.choice((0, 0, 0, 5)),
                        rng.randint(1, 48),
                        session,
                    ),
                    0.0,
                )
                admitted = [
                    s.admit(QueuedRequests([timed]), run, True)
                    for s, run, _ in worlds
                ]
                assert admitted[0] == admitted[1]
                if not admitted[0]:
                    break
                for s, run, _ in worlds:
                    r = RunningRequest(
                        request_id=timed.request_id,
                        input_len=timed.input_len,
                        output_len=timed.output_len,
                        arrival_s=timed.arrival_s,
                        session_id=timed.session_id,
                        admitted_s=float(step),
                        stride=s.request_stride(timed.output_len),
                    )
                    s.on_admit([r])
                    run.append(r)
        if not worlds[0][1]:
            continue
        shuffle(worlds[0][1])
        got = subject.prepare_iteration(worlds[0][1])
        want = _sequential_prepare(oracle, worlds[1][1])
        assert [v.request_id for v in got] == [v.request_id for v in want]
        assert _ledger(subject.pool) == _ledger(oracle.pool)
        for (s, run, preempted), victims in zip(worlds, (got, want)):
            gone = {id(v) for v in victims}
            run[:] = [r for r in run if id(r) not in gone]
            preempted.extend(victims)
            preempted.sort(key=lambda r: (r.admitted_s, r.request_id))
            for r in sorted(run, key=lambda r: r.request_id):
                r.generated += 1
                if r.done:
                    r.finished_s = float(step)
                    s.release(r)
            run[:] = [r for r in run if not r.done]
        assert _ledger(subject.pool) == _ledger(oracle.pool)
    # Not vacuous: several crossers landed together, some claim steps
    # fell back and preempted, and (prefix) claims displaced cache.
    assert any(n > 1 and landed for n, landed in passes)
    assert any(not landed for _, landed in passes)
    if name.startswith("prefix"):
        assert subject.pool.cache.evictions > 0


def _expand(segments):
    """The per-step pricing points a run's ``(seq, count)`` segments
    stand for."""
    return [seq for seq, count in segments for _ in range(count)]


@pytest.mark.parametrize("scheduler_name", SCHEDULERS)
def test_decode_run_equals_stepwise_iteration_shape(
    scheduler_name, pimba_system, zamba_spec
):
    """A scheduler's segmented run pricing must equal its own scalar
    pricing stepped one iteration at a time (the coalescing contract).

    Replays the engine's scalar decode loop — iteration_shape, advance
    every active request one token, drop finishers (keep them frozen for
    static batching) — and compares each step's (batch, seq) against the
    expansion of the segments decode_run priced up front.  Ragged
    progress and per-request strides make the anchored contexts move at
    different times.
    """
    scheduler = make_scheduler(scheduler_name, pimba_system, zamba_spec)

    def member(rid, input_len, output_len, generated):
        return RunningRequest(
            request_id=rid,
            input_len=input_len,
            output_len=output_len,
            arrival_s=0.0,
            admitted_s=0.0,
            stride=scheduler.request_stride(output_len),
            generated=generated,
        )

    running = [
        member(0, 256, 40, 7),
        member(1, 192, 33, 0),
        member(2, 256, 64, 31),
        member(3, 64, 17, 2),
    ]
    slots = SlotView.from_requests(running)
    steps = slots.max_coalesced_steps()
    assert steps == 15  # request 3 finishes first: 17 - 2 tokens left

    batch, segments = scheduler.decode_run(slots, steps)
    seqs = _expand(segments)
    assert len(seqs) == steps

    stepwise = []
    for _ in range(steps):
        b, s = scheduler.iteration_shape(running)
        stepwise.append((b, s))
        for r in running:
            if not r.done:
                r.generated += 1
        if not scheduler.keep_finished:
            running = [r for r in running if not r.done]
    assert [(batch, s) for s in seqs] == stepwise


def test_static_decode_run_with_frozen_finished_slots(
    pimba_system, zamba_spec
):
    """Static batching keeps finished requests resident (and priced) until
    the whole cohort drains — the segmented run must freeze their
    contribution exactly like the scalar loop does."""
    scheduler = build_scheduler("static", pimba_system, zamba_spec, max_batch=8)

    def member(rid, output_len, generated):
        return RunningRequest(
            request_id=rid,
            input_len=128,
            output_len=output_len,
            arrival_s=0.0,
            admitted_s=0.0,
            stride=scheduler.request_stride(output_len),
            generated=generated,
        )

    # One member already finished (frozen), two still decoding in
    # lockstep — the static cohort's invariant state.
    running = [member(0, 5, 5), member(1, 40, 5), member(2, 40, 5)]
    slots = SlotView.from_requests(running)
    steps = slots.max_coalesced_steps()
    assert steps == 35

    batch, segments = scheduler.decode_run(slots, steps)
    seqs = _expand(segments)
    stepwise = []
    for _ in range(steps):
        b, s = scheduler.iteration_shape(running)
        stepwise.append((b, s))
        for r in running:
            if not r.done:
                r.generated += 1
        # keep_finished: the cohort stays intact until everyone is done
    assert [(batch, s) for s in seqs] == stepwise


def _stride_crossings(scheduler, slots, steps):
    """Steps ``j`` in ``[1, steps)`` at which a pricing anchor moves,
    counted once per slot that crosses there (static batching anchors
    one shared position on the cohort's stride)."""
    progress = list(zip(slots.generated, slots.done))
    if scheduler.keep_finished:
        stride = clamped_stride(scheduler.step_stride, max(slots.output_len))
        advancing = max(g for g, done in progress if not done)
        return sum((advancing + j) % stride == 0 for j in range(1, steps))
    return sum(
        (g + j) % s == 0
        for g, s in zip(slots.generated, slots.stride)
        for j in range(1, steps)
    )


@pytest.mark.parametrize(
    "scheduler_name", ("fcfs", "static", "paged", "prefix", "chunked")
)
def test_decode_run_segments_match_stepwise_on_random_batches(
    scheduler_name, pimba_system, zamba_spec
):
    """Seeded differential check of the segment contract on random
    batches: 1-12 slots with ragged progress, strides from 1 to 64
    (clamped per request), finished slots frozen in place under static
    batching.  The expanded segments must equal stepwise
    ``iteration_shape``; counts are positive and sum to ``steps``;
    adjacent segments differ; and there is at most one segment per
    stride crossing beyond the first."""
    rng = random.Random(f"decode-run-{scheduler_name}")
    schedulers = {
        stride: build_scheduler(
            scheduler_name,
            pimba_system,
            zamba_spec,
            max_batch=12,
            step_stride=stride,
        )
        for stride in (1, 2, 3, 7, 32, 64)
    }
    for _ in range(300):
        scheduler = rng.choice(list(schedulers.values()))
        n = rng.randint(1, 12)
        # static batching keeps finished slots; anyone else drops them
        n_frozen = rng.randrange(n) if scheduler.keep_finished else 0
        running = []
        for rid in range(n):
            output_len = rng.randint(1, 160)
            generated = output_len if rid < n_frozen else rng.randrange(output_len)
            running.append(
                RunningRequest(
                    request_id=rid,
                    input_len=rng.randint(1, 4096),
                    output_len=output_len,
                    arrival_s=0.0,
                    admitted_s=0.0,
                    stride=scheduler.request_stride(output_len),
                    generated=generated,
                )
            )
        rng.shuffle(running)
        slots = SlotView.from_requests(running)
        steps = rng.randint(1, slots.max_coalesced_steps())
        batch, segments = scheduler.decode_run(slots, steps)

        counts = [count for _, count in segments]
        assert all(count > 0 for count in counts)
        assert sum(counts) == steps
        assert all(a[0] != b[0] for a, b in zip(segments, segments[1:]))
        assert len(segments) <= 1 + _stride_crossings(scheduler, slots, steps)

        stepwise = []
        for _ in range(steps):
            stepwise.append(scheduler.iteration_shape(running))
            for r in running:
                if not r.done:
                    r.generated += 1
        assert [(batch, s) for s in _expand(segments)] == stepwise


def test_a_coalesced_run_prices_once_per_segment(
    pimba_system, zamba_spec, monkeypatch
):
    """The engine prices a coalesced run one ``decode_seconds`` call per
    segment, never per step: a single request decoding 100 tokens at
    stride 32 re-anchors three times, so its one run is four calls.  A
    ragged burst then has every run price exactly its segments.  A paged
    batch adds exactly one call per block claim that preempts: a claim
    that evicts nobody lands inside a run, whose segments price it."""
    calls = []
    priced = IterationCostModel.decode_seconds

    def counted(self, batch, seq_len):
        calls.append((batch, seq_len))
        return priced(self, batch, seq_len)

    monkeypatch.setattr(IterationCostModel, "decode_seconds", counted)

    def serve(scheduler, trace):
        runs, claims = [], []
        decode_run = scheduler.decode_run
        prepare_iteration = scheduler.prepare_iteration

        def recorded(slots, steps):
            batch, segments = decode_run(slots, steps)
            runs.append(segments)
            return batch, segments

        def claiming(running):
            victims = prepare_iteration(running)
            claims.append(bool(victims))  # did this claim preempt?
            return victims

        scheduler.decode_run = recorded
        scheduler.prepare_iteration = claiming
        calls.clear()
        record = ServingEngine(pimba_system, zamba_spec, scheduler).serve(trace)
        return record, runs, claims

    def burst(lengths):
        scheduler = build_scheduler("fcfs", pimba_system, zamba_spec, max_batch=8)
        trace = Trace(
            tuple(
                TimedRequest(Request(rid, 128, out), 0.0)
                for rid, out in enumerate(lengths)
            )
        )
        return serve(scheduler, trace)

    record, runs, claims = burst([100])
    assert runs == [[(128, 32), (160, 32), (192, 32), (224, 4)]]
    assert calls == [(1, 128), (1, 160), (1, 192), (1, 224)]
    assert claims == []
    assert len(record.iteration_seconds) == 100

    record, runs, claims = burst([100, 37, 64, 5, 80])
    assert len(runs) == 5  # one run per finish
    assert len(calls) == sum(len(segments) for segments in runs)
    assert len(calls) < len(record.iteration_seconds)

    # Prefix caching on multi-turn chat: claims trim cached blocks, and
    # the pool is tight enough to preempt too.
    chat = multiturn_chat_trace(
        3.0,
        12,
        turns=3,
        first_input=128,
        user_tokens=24,
        output_len=32,
        think_s=1.0,
        seed=3,
    )
    for name, trace in (("paged+tight", TRACES["poisson"]()), ("prefix+tight", chat)):
        record, runs, claims = serve(
            make_scheduler(name, pimba_system, zamba_spec), trace
        )
        assert runs and claims
        assert record.preemptions > 0
        assert 0 < sum(claims) < len(claims)
        assert len(calls) == sum(len(segments) for segments in runs) + sum(claims)
        assert len(calls) < len(record.iteration_seconds)
    assert record.cache_hit_tokens > 0


@pytest.mark.parametrize(
    "overrides",
    [(), ("iteration_shape",), ("decode_run",), ("iteration_shape", "decode_run")],
    ids=["neither", "shape-only", "run-only", "both"],
)
def test_pricing_methods_are_overridden_together(overrides):
    """``iteration_shape`` prices claiming and chunk-fused iterations and
    ``decode_run`` prices coalesced runs, so a scheduler that reshaped
    only one would price the same batch two ways: such a class fails at
    definition."""
    body = {name: getattr(FcfsContinuousScheduler, name) for name in overrides}
    if len(overrides) == 1:
        with pytest.raises(TypeError, match=overrides[0]):
            type("Reshaped", (FcfsContinuousScheduler,), body)
    else:
        type("Reshaped", (FcfsContinuousScheduler,), body)  # defines cleanly


class TestClusterStreaming:
    def test_cluster_run_matches_event_path(self, pimba_system, zamba_spec):
        """The streaming cluster run must reproduce the event-merging
        path's payload exactly while every replica fits the sketch."""
        trace = poisson_trace(20.0, 40, seed=0)
        cluster = build_cluster(
            pimba_system, zamba_spec, 3, router="least-loaded", max_batch=8
        )
        recorded = cluster.serve(trace).report().to_payload(SLO)
        streamed = cluster.run(trace).to_payload(SLO)
        assert streamed == recorded


class _FinishStream(Collector):
    """Each finisher's timing, in the order the engine folds it."""

    enabled = True

    def __init__(self):
        self.timings = []

    def finish(self, request):
        self.timings.append(request.timing())


def _finisher(admitted_s, first_token_s, finished_s, output_len=8):
    request = RunningRequest(
        request_id=0,
        input_len=16,
        output_len=output_len,
        arrival_s=0.25,
        admitted_s=admitted_s,
        stride=1,
    )
    request.generated = output_len
    request.first_token_s = first_token_s
    request.finished_s = finished_s
    return request


class TestFinisherFold:
    """``serve_stats`` folds each finished ``RunningRequest`` itself,
    without building its ``RequestTiming``; the fold must be the one a
    timing would have made, reservoir draws included."""

    def test_rows_equal_the_timing_fold_in_finish_order(
        self, pimba_system, zamba_spec
    ):
        trace = poisson_trace(
            4000.0,
            DEFAULT_SKETCH_CAPACITY + 1500,
            lognormal_lengths(24, 6, 0.8),
            seed=13,
        )
        engine = ServingEngine(
            pimba_system, zamba_spec, FcfsContinuousScheduler(max_batch=64)
        )
        stream = _FinishStream()
        folded = engine.serve_stats(trace, collector=stream).requests
        expected = RequestStats()
        for timing in stream.timings:
            expected.observe(timing)
        assert folded.count == expected.count == len(trace.requests)
        assert not folded.exact
        # Lists, not the stats: __eq__ sorts the rows, and above the
        # capacity their order records which slot each draw replaced.
        assert folded.rows == expected.rows
        assert (folded.prompt_tokens, folded.generated_tokens) == (
            expected.prompt_tokens,
            expected.generated_tokens,
        )

    def test_a_first_token_before_admission_is_refused(self):
        stats = RequestStats()
        with pytest.raises(ValueError, match="request timestamps must be ordered"):
            stats.observe(_finisher(admitted_s=1.0, first_token_s=0.5, finished_s=2.0))
        assert (stats.count, stats.rows, stats.prompt_tokens) == (0, [], 0)

    def test_a_one_token_request_folds_a_zero_tpot(self):
        finisher = _finisher(0.5, 0.75, 0.75, output_len=1)
        stats = RequestStats()
        stats.observe(finisher)
        timing = finisher.timing()
        assert stats.rows == [(0.5, 0.0, 0.5)]
        assert stats.rows == [(timing.ttft_s, timing.tpot_s, timing.e2e_s)]
