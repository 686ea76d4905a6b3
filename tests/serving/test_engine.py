"""Discrete-event engine: static-batching parity, continuous batching,
memory-aware admission, prefill shaping, and lifecycle invariants."""

import functools

import pytest

from repro.models import spec_for
from repro.perf.system import SystemKind, build_system
from repro.serving import (
    POLICY_KNOBS,
    SCHEDULER_NAMES,
    EngineTrace,
    FcfsContinuousScheduler,
    MemoryAwareScheduler,
    MemoryModel,
    PagedScheduler,
    PrefixCachingScheduler,
    ServingEngine,
    StaticBatchScheduler,
    build_scheduler,
    fixed_lengths,
    lognormal_lengths,
    poisson_trace,
    static_trace,
)
from repro.serving.schedulers import DEFAULT_CHUNK_BUDGET
from repro.workloads import ServingSimulator, sampled_batch, uniform_batch
import numpy as np


@pytest.fixture(scope="module")
def zamba_spec():
    return spec_for("Zamba2")


def engine_for(kind, spec, scheduler):
    return ServingEngine(build_system(kind, "small"), spec, scheduler)


class TestStaticEquivalence:
    """The static scheduler reproduces ServingSimulator numbers exactly."""

    @pytest.mark.parametrize("kind", [SystemKind.GPU, SystemKind.PIMBA])
    @pytest.mark.parametrize("stride", [1, 32, 10**6])
    def test_uniform_batch_exact(self, kind, stride, zamba_spec):
        batch = uniform_batch(16, 512, 128)
        system = build_system(kind, "small")
        sim = ServingSimulator(system, zamba_spec).run(batch, step_stride=stride)
        run = ServingEngine(
            system, zamba_spec, StaticBatchScheduler(16, step_stride=stride)
        ).serve(static_trace(batch))
        assert run.iteration_seconds == sim.step_seconds
        assert run.prefill_seconds == (sim.prefill_seconds,)
        assert run.makespan_s == pytest.approx(sim.total_seconds, abs=0, rel=1e-12)

    def test_ragged_batch_exact(self, zamba_spec):
        """Padded-cohort semantics survive per-request length variation."""
        batch = sampled_batch(12, np.random.default_rng(5))
        system = build_system(SystemKind.PIMBA, "small")
        sim = ServingSimulator(system, zamba_spec).run(batch)
        run = ServingEngine(
            system, zamba_spec, StaticBatchScheduler(12)
        ).serve(static_trace(batch))
        assert run.iteration_seconds == sim.step_seconds
        # Every request completes at its own length, not the padded one.
        by_id = {t.request_id: t for t in run.timings}
        for request in batch.requests:
            assert by_id[request.request_id].output_len == request.output_len

    def test_multiple_cohorts_from_queue(self, zamba_spec):
        """17 requests at batch 8 -> three cohorts (8 + 8 + 1 flush)."""
        trace = poisson_trace(100.0, 17, seed=3)
        run = engine_for(
            SystemKind.GPU, zamba_spec, StaticBatchScheduler(8)
        ).serve(trace)
        assert len(run.prefill_seconds) == 3
        assert len(run.timings) == 17


class TestContinuousBatching:
    def test_all_requests_complete_with_ordered_timestamps(self, zamba_spec):
        trace = poisson_trace(8.0, 40, seed=0)
        run = engine_for(
            SystemKind.PIMBA, zamba_spec, FcfsContinuousScheduler(8)
        ).serve(trace)
        assert run.report().n_requests == 40
        for t in run.timings:
            assert t.arrival_s <= t.admitted_s <= t.first_token_s <= t.finished_s
            assert t.tpot_s > 0

    def test_iteration_level_admission_beats_static_ttft(self, zamba_spec):
        """Continuous batching admits at iteration boundaries; static waits
        for a full batch — its median TTFT must be strictly worse under a
        trickle of arrivals."""
        trace = poisson_trace(4.0, 24, seed=1)
        continuous = engine_for(
            SystemKind.GPU, zamba_spec, FcfsContinuousScheduler(8)
        ).run(trace)
        static = engine_for(
            SystemKind.GPU, zamba_spec, StaticBatchScheduler(8)
        ).run(trace)
        assert continuous.ttft_percentile(50) < static.ttft_percentile(50)

    def test_slot_bound_respected(self, zamba_spec):
        """With one slot, requests are served strictly one at a time."""
        trace = poisson_trace(50.0, 6, seed=2)
        run = engine_for(
            SystemKind.GPU, zamba_spec, FcfsContinuousScheduler(1)
        ).serve(trace)
        # One prefill per request, and FCFS completion order.
        assert len(run.prefill_seconds) == 6
        finishes = [t.finished_s for t in run.timings]
        assert finishes == sorted(finishes)

    def test_saturation_raises_tail_latency(self, zamba_spec):
        """Offering far more load than the slot count can drain must grow
        both the queue and the TTFT tail."""
        light = engine_for(
            SystemKind.GPU, zamba_spec, FcfsContinuousScheduler(8)
        ).run(poisson_trace(1.0, 48, seed=0))
        heavy = engine_for(
            SystemKind.GPU, zamba_spec, FcfsContinuousScheduler(8)
        ).run(poisson_trace(20.0, 48, seed=0))
        assert heavy.ttft_percentile(99) > light.ttft_percentile(99)
        assert heavy.mean_queue_depth > light.mean_queue_depth


class TestMemoryAwareScheduling:
    def test_capacity_limits_concurrency(self, zamba_spec):
        system = build_system(SystemKind.GPU, "small")
        memory = MemoryModel.for_system(system, zamba_spec)
        per_request = memory.request_bytes(1024, 256)
        trace = poisson_trace(100.0, 12, seed=0)

        def max_resident(capacity_requests):
            scheduler = MemoryAwareScheduler(
                memory,
                memory.weights_bytes + per_request * capacity_requests,
            )
            run = ServingEngine(system, zamba_spec, scheduler).serve(trace)
            return max(
                sum(
                    1 for t in run.timings
                    if t.admitted_s <= moment < t.finished_s
                )
                for moment in (t.first_token_s for t in run.timings)
            )

        assert max_resident(2) <= 2
        assert max_resident(8) > 2

    def test_quantized_state_admits_more(self, zamba_spec):
        """Pimba's MX8 state/KV halves the footprint -> more residency in
        the same HBM (the request-level Fig. 15 capacity argument)."""
        gpu = MemoryModel.for_system(
            build_system(SystemKind.GPU, "small"), zamba_spec
        )
        pimba = MemoryModel.for_system(
            build_system(SystemKind.PIMBA, "small"), zamba_spec
        )
        assert pimba.request_bytes(1024, 256) == pytest.approx(
            gpu.request_bytes(1024, 256) / 2
        )

    def test_oversized_request_raises(self, zamba_spec):
        system = build_system(SystemKind.GPU, "small")
        memory = MemoryModel.for_system(system, zamba_spec)
        scheduler = MemoryAwareScheduler(
            memory, memory.weights_bytes + 1.0  # room for nothing
        )
        with pytest.raises(RuntimeError, match="cannot place"):
            ServingEngine(system, zamba_spec, scheduler).serve(
                poisson_trace(1.0, 2, seed=0)
            )

    def test_capacity_must_hold_weights(self, zamba_spec):
        memory = MemoryModel.for_system(
            build_system(SystemKind.GPU, "small"), zamba_spec
        )
        with pytest.raises(ValueError, match="weights"):
            MemoryAwareScheduler(memory, memory.weights_bytes / 2)


class TestChunkedPrefill:
    """Sarathi-style chunk streaming and its blocked-FCFS degeneration."""

    @staticmethod
    def bound_case(bound, system, spec):
        """A trace and a maker of the policy it runs under, slot-bound
        (``fcfs``) or capacity-bound (``memory``); the maker takes a
        prefill shape.  The capacity binds: four full-context footprints
        make ``memory`` finish well after ``fcfs``."""
        if bound == "slots":
            trace = poisson_trace(10.0, 24, seed=3)
            return trace, functools.partial(FcfsContinuousScheduler, 8)
        memory = MemoryModel.for_system(system, spec)
        capacity = memory.weights_bytes + 4 * memory.request_bytes(512, 64)
        trace = poisson_trace(40.0, 24, lognormal_lengths(512, 64), seed=0)
        return trace, functools.partial(MemoryAwareScheduler, memory, capacity, 8)

    @pytest.mark.parametrize("bound", ["slots", "capacity"])
    @pytest.mark.parametrize("kind", [SystemKind.GPU, SystemKind.PIMBA])
    @pytest.mark.parametrize("budget", [1024, 10**6])
    def test_whole_prompt_budget_is_fcfs_bit_exact(
        self, kind, budget, bound, zamba_spec
    ):
        """Budget >= the longest prompt (1024 on the slot-bound trace;
        on the capacity-bound one at least its longest prompt): every
        admission is a single full-prompt chunk that runs alone and is
        priced exactly like the monolithic prefill — the EngineTrace is
        *identical* to the unshaped policy's, event for event (the
        chunked analogue of the static==ServingSimulator parity), under
        the slot bound (``chunked == fcfs``) and under a binding
        capacity bound (``chunked == memory``)."""
        system = build_system(kind, "small")
        trace, make = self.bound_case(bound, system, zamba_spec)
        budget = max(budget, *(r.input_len for r in trace.requests))
        fcfs = ServingEngine(system, zamba_spec, make()).serve(trace)
        chunked = ServingEngine(
            system, zamba_spec, make(chunk_budget=budget)
        ).serve(trace)
        assert chunked == fcfs

    def test_chunk_costs_telescope_to_the_monolithic_prefill(
        self, zamba_spec
    ):
        """One burst cohort, split ever finer: the chunk count scales as
        1/budget and the chunk costs sum to the monolithic prefill."""
        trace = static_trace(uniform_batch(8, 1024, 64))

        def run(budget):
            return engine_for(
                SystemKind.PIMBA,
                zamba_spec,
                FcfsContinuousScheduler(8, chunk_budget=budget),
            ).serve(trace)

        full, halved, quartered = run(1024), run(512), run(256)
        assert len(full.prefill_seconds) == 1
        assert len(halved.prefill_seconds) == 2
        assert len(quartered.prefill_seconds) == 4
        assert sum(halved.prefill_seconds) == pytest.approx(
            sum(full.prefill_seconds)
        )
        assert sum(quartered.prefill_seconds) == pytest.approx(
            sum(full.prefill_seconds)
        )
        assert quartered.prefill_tokens == (256, 256, 256, 256)
        # Later chunks cost more: their attention spans the built context.
        assert list(quartered.prefill_seconds) == sorted(
            quartered.prefill_seconds
        )

    def test_smaller_budget_streams_more_prefill_events(self, zamba_spec):
        trace = poisson_trace(10.0, 16, seed=0)  # 1024-token prompts

        def run(budget):
            return engine_for(
                SystemKind.PIMBA,
                zamba_spec,
                FcfsContinuousScheduler(8, chunk_budget=budget),
            ).serve(trace)

        full, halved, quartered = run(1024), run(512), run(256)
        assert (
            len(full.prefill_seconds)
            < len(halved.prefill_seconds)
            < len(quartered.prefill_seconds)
        )
        assert max(halved.prefill_tokens) <= 512
        assert max(quartered.prefill_tokens) <= 256

    def test_piggybacked_decode_raises_tpot(self, zamba_spec):
        """Chunk iterations carry the decode batch at summed cost, so the
        decode tail pays for prefill shaping (the Sarathi tradeoff)."""
        trace = poisson_trace(16.0, 24, seed=1)
        fcfs = engine_for(
            SystemKind.GPU, zamba_spec, FcfsContinuousScheduler(8)
        ).run(trace)
        chunked = engine_for(
            SystemKind.GPU,
            zamba_spec,
            FcfsContinuousScheduler(8, chunk_budget=128),
        ).run(trace)
        assert chunked.tpot_percentile(99) > fcfs.tpot_percentile(99)

    @pytest.mark.parametrize("bound", ["slots", "capacity"])
    def test_overlap_is_never_slower_than_chunked(self, bound, zamba_spec):
        """max(chunk, decode) pricing vs chunk + decode pricing: the
        overlap engine finishes the same workload no later — with
        128-token chunks under the slot bound, and with whole-prompt
        chunks (where ``chunked`` is ``memory``) under a binding
        capacity bound."""
        system = build_system(SystemKind.PIMBA, "small")
        trace, make = self.bound_case(bound, system, zamba_spec)
        budget = max(r.input_len for r in trace.requests)
        if bound == "slots":
            trace, budget = poisson_trace(16.0, 24, seed=2), 128
        chunked = ServingEngine(
            system, zamba_spec, make(chunk_budget=budget)
        ).serve(trace)
        overlap = ServingEngine(
            system, zamba_spec, make(chunk_budget=budget, overlap_decode=True)
        ).serve(trace)
        assert overlap.end_s <= chunked.end_s
        assert overlap.report().ttft_percentile(99) <= (
            chunked.report().ttft_percentile(99)
        )

    def test_capacity_bound_composes_with_chunking(self, zamba_spec):
        """A chunked scheduler with a capacity bound admits no more
        concurrent residents than the capacity allows — prefilling
        requests hold their reservation too."""
        system = build_system(SystemKind.GPU, "small")
        memory = MemoryModel.for_system(system, zamba_spec)
        per_request = memory.request_bytes(1024, 256)
        scheduler = MemoryAwareScheduler(
            memory,
            memory.weights_bytes + 2.5 * per_request,
            max_batch=64,
            chunk_budget=256,
        )
        run = ServingEngine(system, zamba_spec, scheduler).serve(
            poisson_trace(100.0, 10, seed=0)
        )
        resident = max(
            sum(
                1 for t in run.timings
                if t.admitted_s <= moment < t.finished_s
            )
            for moment in (t.first_token_s for t in run.timings)
        )
        assert resident <= 2

    def test_validation(self, zamba_spec):
        system = build_system(SystemKind.GPU, "small")
        memory = MemoryModel.for_system(system, zamba_spec)
        with pytest.raises(ValueError, match="chunk_budget"):
            FcfsContinuousScheduler(chunk_budget=0)
        with pytest.raises(ValueError, match="needs a chunk_budget"):
            FcfsContinuousScheduler(overlap_decode=True)
        with pytest.raises(ValueError, match="weights"):
            MemoryAwareScheduler(memory, memory.weights_bytes / 2, chunk_budget=256)


class TestPagedScheduling:
    """Block-granular KV reservation: degeneration, packing, preemption."""

    @pytest.mark.parametrize("spare", [0, 10**6], ids=["exact", "huge"])
    @pytest.mark.parametrize(
        "lengths",
        [fixed_lengths(1024, 256), lognormal_lengths(512, 128, 0.6)],
        ids=["fixed", "ragged"],
    )
    def test_degenerate_is_memory_aware_bit_exact(
        self, spare, lengths, zamba_spec
    ):
        """Block size >= every final context: the paged scheduler's one
        block per request, trimmed to its final context, reserves the
        full footprint through the same arithmetic as
        MemoryAwareScheduler and never claims again, so the EngineTraces
        are *identical* under a deliberately binding capacity bound."""
        system = build_system(SystemKind.GPU, "small")
        memory = MemoryModel.for_system(system, zamba_spec)
        capacity = memory.weights_bytes + 3.3 * memory.request_bytes(
            1024, 256
        )
        trace = poisson_trace(20.0, 24, lengths, seed=0)
        block_size = spare + max(r.input_len + r.output_len for r in trace.requests)
        conservative = ServingEngine(
            system,
            zamba_spec,
            MemoryAwareScheduler(memory, capacity, max_batch=8),
        ).serve(trace)
        paged = ServingEngine(
            system,
            zamba_spec,
            PagedScheduler(
                memory, capacity, block_size=block_size, max_batch=8
            ),
        ).serve(trace)
        assert paged == conservative
        assert paged.preemptions == 0

    def test_paged_admission_packs_more_residents(self, zamba_spec):
        """Admitting against current block usage (prompt only) fits more
        concurrent requests than full-context reservation in the same
        pool — the whole point of paging."""
        system = build_system(SystemKind.GPU, "small")
        memory = MemoryModel.for_system(system, zamba_spec)
        capacity = memory.weights_bytes + 4 * memory.request_bytes(128, 512)
        trace = poisson_trace(100.0, 16, fixed_lengths(128, 512), seed=0)

        def max_resident(scheduler):
            run = ServingEngine(system, zamba_spec, scheduler).serve(trace)
            return max(
                sum(
                    1 for t in run.timings
                    if t.admitted_s <= moment < t.finished_s
                )
                for moment in (t.first_token_s for t in run.timings)
            )

        conservative = max_resident(
            MemoryAwareScheduler(memory, capacity, max_batch=64)
        )
        paged = max_resident(
            PagedScheduler(memory, capacity, block_size=64, max_batch=64)
        )
        assert conservative <= 4
        assert paged > conservative

    def test_preemption_pays_a_visible_reprefill_cost(self, zamba_spec):
        """Thrashing is not free: the preempting run re-prefills evicted
        requests (extra prefill events/tokens) and its clock shows it,
        while still generating every output token exactly once."""
        system = build_system(SystemKind.PIMBA, "small")
        memory = MemoryModel.for_system(system, zamba_spec)
        trace = poisson_trace(40.0, 24, fixed_lengths(128, 512), seed=1)
        tight = PagedScheduler(
            memory,
            memory.weights_bytes + 4 * memory.request_bytes(128, 512),
            block_size=64,
            max_batch=64,
        )
        thrashing = ServingEngine(system, zamba_spec, tight).serve(trace)
        roomy = ServingEngine(
            system,
            zamba_spec,
            PagedScheduler(
                memory, system.capacity_bytes, block_size=64, max_batch=64
            ),
        ).serve(trace)
        assert thrashing.preemptions > 0
        assert roomy.preemptions == 0
        assert sum(thrashing.decode_tokens) == sum(roomy.decode_tokens)
        assert sum(thrashing.prefill_tokens) > sum(roomy.prefill_tokens)
        assert thrashing.end_s > roomy.end_s
        # The report surfaces the same counters the raw trace carries.
        report = thrashing.report()
        assert report.n_preemptions == thrashing.preemptions
        assert sum(t.preemptions for t in thrashing.timings) == (
            thrashing.preemptions
        )

    def test_infeasible_head_request_raises(self, zamba_spec):
        """A request whose full footprint exceeds the whole pool is never
        admitted (it could only thrash forever)."""
        system = build_system(SystemKind.GPU, "small")
        memory = MemoryModel.for_system(system, zamba_spec)
        scheduler = PagedScheduler(
            memory,
            memory.weights_bytes + 0.5 * memory.request_bytes(1024, 256),
            block_size=64,
        )
        with pytest.raises(RuntimeError, match="cannot place"):
            ServingEngine(system, zamba_spec, scheduler).serve(
                poisson_trace(1.0, 2, seed=0)
            )

    def test_build_scheduler_knobs(self, zamba_spec):
        system = build_system(SystemKind.PIMBA, "small")
        scheduler = build_scheduler("paged", system, zamba_spec, block_size=32)
        assert isinstance(scheduler, PagedScheduler)
        assert scheduler.block_size == 32
        assert scheduler.pool.block_size == 32
        assert scheduler.capacity_bytes == system.capacity_bytes


class TestEmptyEngineTrace:
    def test_all_queued_trace_reports_without_crashing(self):
        """Regression: a record cut while every request was still queued
        (no completions, no prefills) must aggregate, not crash on empty
        percentile arrays."""
        run = EngineTrace(
            timings=(),
            iteration_seconds=(),
            decode_tokens=(),
            prefill_seconds=(),
            prefill_tokens=(),
            start_s=5.0,
            end_s=5.0,
            mean_queue_depth=4.0,
            max_queue_depth=8,
        )
        report = run.report()
        assert report.n_requests == 0
        assert report.throughput_tokens_per_s == 0.0
        import math

        assert math.isnan(report.ttft_percentile(99))


class TestBuildScheduler:
    def test_names(self, zamba_spec):
        """Seven policies on five classes: ``chunked`` and ``overlap``
        are ``fcfs`` with a prefill shape."""
        system = build_system(SystemKind.PIMBA, "small")
        classes = {
            "static": StaticBatchScheduler,
            "fcfs": FcfsContinuousScheduler,
            "memory": MemoryAwareScheduler,
            "chunked": FcfsContinuousScheduler,
            "overlap": FcfsContinuousScheduler,
            "paged": PagedScheduler,
            "prefix": PrefixCachingScheduler,
        }
        assert SCHEDULER_NAMES == tuple(classes)
        for name, cls in classes.items():
            scheduler = build_scheduler(name, system, zamba_spec)
            assert type(scheduler) is cls
            assert (scheduler.chunk_budget is not None) == (
                name in ("chunked", "overlap")
            )
            assert scheduler.overlap_decode == (name == "overlap")
        with pytest.raises(KeyError, match="unknown scheduler"):
            build_scheduler("lifo", system, zamba_spec)

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_empty_batch_refused_at_build(self, name, zamba_spec):
        """No policy builds with zero slots; serving one would fail
        later, blaming the head request for the idle engine."""
        system = build_system(SystemKind.PIMBA, "small")
        with pytest.raises(ValueError, match="positive"):
            build_scheduler(name, system, zamba_spec, max_batch=0)

    @pytest.mark.parametrize("knob", ["capacity_bytes", "chunk_budget", "block_size"])
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_a_policy_knob_is_applied_or_refused(self, name, knob, zamba_spec):
        """A knob the policy takes reaches it; any other raises, naming
        the knob, its value, the policy and the knobs it takes — never
        a build that silently ignores it."""
        system = build_system(SystemKind.PIMBA, "small")
        value = {
            "capacity_bytes": system.capacity_bytes / 2,
            "chunk_budget": 128,
            "block_size": 32,
        }[knob]
        if knob not in POLICY_KNOBS[name]:
            with pytest.raises(ValueError) as refused:
                build_scheduler(name, system, zamba_spec, **{knob: value})
            message = str(refused.value)
            assert repr(name) in message and f"{knob}={value!r}" in message
            assert all(taken in message for taken in POLICY_KNOBS[name])
            return
        scheduler = build_scheduler(name, system, zamba_spec, **{knob: value})
        owner = scheduler.pool if knob == "block_size" else scheduler
        assert getattr(owner, knob) == value

    @pytest.mark.parametrize(
        "name, knob, value",
        [
            ("memory", "capacity_bytes", float("nan")),
            ("paged", "capacity_bytes", float("nan")),
            ("prefix", "capacity_bytes", float("nan")),
            ("paged", "capacity_bytes", float("inf")),
            ("memory", "capacity_bytes", "1e12"),
            ("paged", "block_size", float("nan")),
            ("paged", "block_size", 64.5),
            ("prefix", "block_size", True),
            ("chunked", "chunk_budget", 100.5),
            ("fcfs", "max_batch", 8.5),
            ("static", "max_batch", True),
            ("paged", "step_stride", 2.5),
        ],
    )
    def test_a_malformed_knob_is_refused_at_build(self, name, knob, value, zamba_spec):
        """A NaN capacity would pass every ``need > free`` test and
        serve as if HBM were unbounded, and a fractional or boolean
        count would serve fractional chunks, serve as 1, or fail deep
        inside a serve: each is refused at build, naming the knob."""
        system = build_system(SystemKind.PIMBA, "small")
        with pytest.raises(ValueError, match="must be a") as refused:
            build_scheduler(name, system, zamba_spec, **{knob: value})
        assert repr(value) in str(refused.value)

    def test_chunked_capacity_opt_in(self, zamba_spec):
        system = build_system(SystemKind.PIMBA, "small")
        slot_only = build_scheduler(
            "chunked", system, zamba_spec, chunk_budget=128
        )
        assert slot_only.chunk_budget == 128
        assert type(slot_only) is FcfsContinuousScheduler
        bounded = build_scheduler(
            "overlap", system, zamba_spec,
            capacity_bytes=system.capacity_bytes,
        )
        assert type(bounded) is MemoryAwareScheduler
        assert bounded.capacity_bytes == system.capacity_bytes
        assert bounded.chunk_budget == DEFAULT_CHUNK_BUDGET
        assert bounded.overlap_decode

    def test_memory_default_capacity_is_cluster_hbm(self, zamba_spec):
        system = build_system(SystemKind.PIMBA, "small")
        scheduler = build_scheduler("memory", system, zamba_spec)
        assert scheduler.capacity_bytes == system.capacity_bytes
