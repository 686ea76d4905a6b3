"""Decode runs that go through KV block claims, pinned to the reference.

A coalesced run of a paged policy does not end at a block claim: it
pauses before each claiming iteration, lands that iteration's claims
all or nothing (``land_claims``), and goes on to its earliest finish.
It ends just before a claim that does not fit, and the next pass's
``prepare_iteration`` preempts.  Each claim must land at its own step:
an arrival absorbed between two claims is admitted against the pool
the claims so far left, as the scalar loop admits it.  These cases
assert ``ServingEngine.serve`` equal to ``ReferenceEngine.serve`` where
a claim landed early or late would show, and count the runs.
"""

import dataclasses
import itertools
import random

import pytest

from repro.models import spec_for
from repro.perf.system import SystemKind, build_system
from repro.serving import (
    MemoryModel,
    PagedScheduler,
    PrefixCachingScheduler,
    ReferenceEngine,
    ServingEngine,
    build_scheduler,
    fixed_lengths,
    gamma_trace,
    lognormal_lengths,
    multiturn_chat_trace,
    poisson_trace,
)
from repro.workloads.requests import Request, TimedRequest, Trace


@pytest.fixture(scope="module")
def zamba_spec():
    return spec_for("Zamba2")


@pytest.fixture(scope="module")
def pimba_system():
    return build_system(SystemKind.PIMBA, "small")


@pytest.fixture(scope="module")
def memory(pimba_system, zamba_spec):
    return MemoryModel.for_system(pimba_system, zamba_spec)


def spied(scheduler):
    """``scheduler`` with its calls recorded on the instance.

    ``runs`` holds each ``decode_run`` call's slots as ``(request_id,
    generated)`` pairs, ``claims`` each ``prepare_iteration`` call as
    its first resident's ``generated`` and the victims' ids, and
    ``landings`` each in-run ``land_claims`` call (of a policy that
    claims) as ``(offset, landed)``.
    """
    scheduler.runs, scheduler.claims, scheduler.landings = [], [], []
    decode_run = scheduler.decode_run
    prepare_iteration = scheduler.prepare_iteration
    land_claims = getattr(scheduler, "land_claims", None)

    def recorded_run(slots, steps):
        ids = [r.request_id for r in slots.requests]
        scheduler.runs.append(list(zip(ids, slots.generated)))
        return decode_run(slots, steps)

    def recorded_claim(running):
        at = running[0].generated
        victims = prepare_iteration(running)
        scheduler.claims.append((at, [v.request_id for v in victims]))
        return victims

    def recorded_landing(running, offset):
        landed = land_claims(running, offset)
        if offset:  # prepare_iteration's own call reads offset 0
            scheduler.landings.append((offset, landed))
        return landed

    scheduler.decode_run = recorded_run
    scheduler.prepare_iteration = recorded_claim
    if land_claims is not None:
        scheduler.land_claims = recorded_landing
    return scheduler


def assert_matches_reference(system, spec, build, trace):
    """Serve ``trace`` on both engines, each under a fresh ``build()``,
    and assert the two records equal.  Returns the coalesced engine's
    record and its spied scheduler."""
    scheduler = spied(build())
    record = ServingEngine(system, spec, scheduler).serve(trace)
    reference = ReferenceEngine(system, spec, build()).serve(trace)
    assert dataclasses.asdict(record) == dataclasses.asdict(reference)
    return record, scheduler


def test_an_arrival_between_two_claims_sees_the_pool_the_first_left(
    pimba_system, zamba_spec, memory
):
    """Request 0 decodes alone: its 17-token prompt holds two 16-token
    blocks, so its run claims a third block 15 steps in and a fourth 31
    steps in.  Request 1 arrives during step 30, and its one-block
    prompt fits the pool after the first claim but not after the second.
    The run must go through the first claim and end at the arrival,
    whose admission the scalar loop decides at the top of step 31,
    before that step claims.  Landing the second claim up front, or
    before the admission at its own clock, would refuse it."""
    state, per_token = memory.state_bytes_per_request, memory.kv_bytes_per_token
    # After the first claim request 0 holds state + 48 tokens, leaving
    # state + 24 for request 1's state + 16; after the second, state + 8.
    capacity = memory.weights_bytes + 2 * state + 72 * per_token

    def build():
        return PagedScheduler(memory, capacity, block_size=16, max_batch=8)

    first = TimedRequest(Request(0, 17, 100), 0.0)
    alone = ReferenceEngine(pimba_system, zamba_spec, build()).serve(Trace((first,)))
    clocks = list(
        itertools.accumulate(alone.iteration_seconds, initial=alone.prefill_seconds[0])
    )
    arrival = (clocks[30] + clocks[31]) / 2
    trace = Trace((first, TimedRequest(Request(1, 16, 8), arrival)))
    record, scheduler = assert_matches_reference(pimba_system, zamba_spec, build, trace)
    assert record.timings[1].admitted_s == clocks[31]
    # One run took request 0 from its first step, through the claim, to
    # the admission.
    early = [run for run in scheduler.runs if run[0][0] == 0 and run[0][1] < 31]
    assert early == [[(0, 0)]]
    assert scheduler.landings[0] == (15, True)


def test_a_claim_that_does_not_fit_ends_the_run_before_its_iteration(
    pimba_system, zamba_spec, memory
):
    """Requests 0 and 1 are admitted together, and each 17-token prompt
    holds two 16-token blocks, so both claim 15 and 31 steps into their
    run.  The pool fits the first pair of claims but not the second: the
    run goes through step 15 and ends just before step 31, where the
    next pass's ``prepare_iteration`` preempts request 1, the
    youngest."""
    state, per_token = memory.state_bytes_per_request, memory.kv_bytes_per_token
    # Two prompts hold 64 tokens, the first claims 96, the second 128.
    capacity = memory.weights_bytes + 2 * state + 100 * per_token

    def build():
        return PagedScheduler(memory, capacity, block_size=16, max_batch=8)

    trace = Trace(tuple(TimedRequest(Request(i, 17, 100), 0.0) for i in range(2)))
    record, scheduler = assert_matches_reference(pimba_system, zamba_spec, build, trace)
    assert record.preemptions == 1
    assert scheduler.runs[0] == [(0, 0), (1, 0)]
    assert scheduler.landings[:2] == [(15, True), (31, False)]
    # No loop-top claim before the one that preempts.
    assert scheduler.claims[0] == (31, [1])


def fuzz_trace(kind, seed):
    """A small seeded trace of ``kind`` whose arrivals land mid-run."""
    rng = random.Random(seed)
    if kind == "multiturn":
        return multiturn_chat_trace(
            rng.uniform(2.0, 6.0),
            rng.randint(4, 8),
            turns=3,
            first_input=rng.randint(16, 96),
            user_tokens=rng.randint(4, 24),
            output_len=rng.randint(8, 32),
            think_s=rng.uniform(0.05, 0.5),
            seed=seed,
        )
    lengths = lognormal_lengths(
        rng.randint(16, 96), rng.randint(8, 32), 0.6, max_input=192, max_output=64
    )
    if kind == "lognormal":
        return poisson_trace(rng.uniform(20.0, 80.0), 24, lengths, seed=seed)
    return gamma_trace(rng.uniform(10.0, 40.0), 24, 3.0, lengths, seed=seed)


@pytest.mark.parametrize("cls", (PagedScheduler, PrefixCachingScheduler))
def test_claim_through_runs_match_the_reference_on_tight_pools(
    cls, pimba_system, zamba_spec, memory
):
    """Seeded fuzz: random block sizes (8-64), max batches and tight
    pools (1.5-4 footprints of the trace's largest request), on
    lognormal, bursty and multi-turn traces whose arrivals land
    mid-run.  Every record equals the reference's, and across the seeds
    runs go through claims, end before claims that do not fit, and
    preempt."""
    landed = refused = preemptions = 0
    for seed in range(30):
        rng = random.Random(f"claim-runs-{cls.__name__}-{seed}")
        block_size = rng.randint(8, 64)
        max_batch = rng.randint(2, 12)
        share = rng.uniform(1.5, 4.0)
        for kind in ("lognormal", "bursty", "multiturn"):
            trace = fuzz_trace(kind, seed)
            largest = max(map(memory.request_bytes, trace.input_len, trace.output_len))
            capacity = memory.weights_bytes + share * largest

            def build():
                return cls(memory, capacity, block_size=block_size, max_batch=max_batch)

            try:
                record, scheduler = assert_matches_reference(
                    pimba_system, zamba_spec, build, trace
                )
            except AssertionError as error:
                raise AssertionError(f"seed {seed}, {kind} trace") from error
            landed += sum(ok for _, ok in scheduler.landings)
            refused += sum(not ok for _, ok in scheduler.landings)
            preemptions += record.preemptions
    assert landed and refused and preemptions


def test_a_claim_that_fits_no_longer_splits_a_run(pimba_system, zamba_spec):
    """On a roomy pool nothing preempts, so ``paged`` and ``prefix``
    simulate ``fcfs``'s schedule, and every block claim lands inside a
    run: each policy calls ``decode_run`` exactly as often as ``fcfs``.
    With 64-token blocks a 128/128 request claims at its first decode
    step and 64 steps later; a run that ended at each claim called it
    twice as often."""
    trace = poisson_trace(2000.0, 400, fixed_lengths(128, 128), seed=0)
    runs, landings = {}, {}
    for name in ("fcfs", "paged", "prefix"):
        scheduler = spied(build_scheduler(name, pimba_system, zamba_spec, max_batch=64))
        ServingEngine(pimba_system, zamba_spec, scheduler).serve_stats(trace)
        runs[name] = len(scheduler.runs)
        landings[name] = scheduler.landings
    assert runs["paged"] == runs["prefix"] == runs["fcfs"]
    assert landings["fcfs"] == []
    for name in ("paged", "prefix"):
        assert landings[name] and all(ok for _, ok in landings[name])
