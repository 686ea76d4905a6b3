"""Scheduler-invariant harness: properties every policy must satisfy.

Every scheduler — static, FCFS continuous, memory-aware, chunked
prefill, overlap, the capacity-bounded chunked variant, paged KV, and
the prefix-caching paged variant (each of the paged pair both with a
roomy pool and with a deliberately tight, preempting one) — serves the
same seeded traces, and the harness asserts the invariants
that make an engine run *a serving run* regardless of policy:

* conservation — every trace request is admitted exactly once and
  finishes exactly once;
* monotone clocks — arrival <= admission <= first token <= completion
  per request, and the engine span covers every event;
* token accounting — decode iterations generate exactly the requested
  output tokens, no more, no less;
* chunk budgets — no prefill event processes more prompt tokens than the
  scheduler's chunk budget (monolithic schedulers are bounded by the
  longest admitted prompt; preemptive ones additionally by the longest
  possible restore re-prefill, prompt + all-but-one output tokens);
* report sanity — percentiles are ordered and rates non-negative.

Preemption-specific invariants (blocks conserved at drain, preempted
requests complete exactly once, token accounting includes the re-prefill
work) live in :class:`TestPagedPreemptionInvariants`.
"""

import math

import pytest

from repro.models import spec_for
from repro.perf.system import SystemKind, build_system
from repro.serving import (
    MemoryAwareScheduler,
    MemoryModel,
    PagedScheduler,
    PrefixCachingScheduler,
    ServingEngine,
    build_scheduler,
    fixed_lengths,
    gamma_trace,
    lognormal_lengths,
    multiturn_chat_trace,
    poisson_trace,
)

#: chunk budget used by every chunking policy under test — deliberately
#: misaligned with the prompt lengths so partial tail chunks occur
BUDGET = 96

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
    # Multi-turn sessions: the one trace where the prefix policies get
    # real cache hits, so their shortened prefills face the invariants.
    "chat": lambda: multiturn_chat_trace(
        3.0, 6, turns=3, first_input=128, user_tokens=24, output_len=24,
        think_s=1.0, seed=3,
    ),
}


@pytest.fixture(scope="module")
def zamba_spec():
    return spec_for("Zamba2")


@pytest.fixture(scope="module")
def pimba_system():
    return build_system(SystemKind.PIMBA, "small")


def make_scheduler(name, system, spec):
    if name == "chunked+hbm":
        # The chunked policy riding the memory-aware capacity logic.
        return MemoryAwareScheduler(
            MemoryModel.for_system(system, spec),
            system.capacity_bytes,
            max_batch=8,
            chunk_budget=BUDGET,
        )
    if name in ("paged+tight", "prefix+tight"):
        # A pool that holds three admission-time footprints but not
        # three full contexts (blocks finer than the decode length), so
        # growth claims fail mid-decode and the preempt/restore path is
        # exercised by the shared invariants (for prefix, with cached
        # blocks competing against live KV for the same bytes).
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
class TestSchedulerInvariants:
    def serve(self, scheduler_name, trace_name, system, spec):
        trace = TRACES[trace_name]()
        engine = ServingEngine(
            system, spec, make_scheduler(scheduler_name, system, spec)
        )
        return trace, engine.serve(trace)

    def test_conservation(
        self, scheduler_name, trace_name, pimba_system, zamba_spec
    ):
        """Every request admitted exactly once, finished exactly once."""
        trace, run = self.serve(
            scheduler_name, trace_name, pimba_system, zamba_spec
        )
        served = sorted(t.request_id for t in run.timings)
        assert served == [r.request_id for r in trace.requests]
        lengths = {
            r.request_id: (r.input_len, r.output_len)
            for r in trace.requests
        }
        for t in run.timings:
            assert (t.input_len, t.output_len) == lengths[t.request_id]

    def test_monotone_clocks(
        self, scheduler_name, trace_name, pimba_system, zamba_spec
    ):
        trace, run = self.serve(
            scheduler_name, trace_name, pimba_system, zamba_spec
        )
        assert run.start_s == trace.requests[0].arrival_s
        for t in run.timings:
            assert (
                t.arrival_s <= t.admitted_s
                <= t.first_token_s <= t.finished_s
            )
            assert t.ttft_s <= t.e2e_s
            assert run.start_s <= t.arrival_s
            assert t.finished_s <= run.end_s
        assert run.end_s == max(t.finished_s for t in run.timings)

    def test_token_accounting(
        self, scheduler_name, trace_name, pimba_system, zamba_spec
    ):
        """Decode iterations generate exactly the requested tokens."""
        trace, run = self.serve(
            scheduler_name, trace_name, pimba_system, zamba_spec
        )
        assert sum(run.decode_tokens) == trace.total_output_tokens
        assert len(run.decode_tokens) == len(run.iteration_seconds)
        assert all(n >= 1 for n in run.decode_tokens)

    def test_chunk_budget_never_exceeded(
        self, scheduler_name, trace_name, pimba_system, zamba_spec
    ):
        trace, run = self.serve(
            scheduler_name, trace_name, pimba_system, zamba_spec
        )
        assert len(run.prefill_tokens) == len(run.prefill_seconds)
        assert all(n >= 1 for n in run.prefill_tokens)
        if scheduler_name in ("chunked", "overlap", "chunked+hbm"):
            bound = BUDGET
        elif scheduler_name.startswith(("paged", "prefix")):
            # A restore re-prefills prompt + already-generated tokens;
            # a request is never preempted after its final token.  A
            # prefix cache hit only ever *shrinks* an event below this.
            bound = max(
                r.input_len + r.output_len - 1 for r in trace.requests
            )
        else:
            bound = max(r.input_len for r in trace.requests)
        assert all(n <= bound for n in run.prefill_tokens)
        assert all(s > 0 for s in run.prefill_seconds)
        assert all(s > 0 for s in run.iteration_seconds)

    def test_report_sanity(
        self, scheduler_name, trace_name, pimba_system, zamba_spec
    ):
        _, run = self.serve(
            scheduler_name, trace_name, pimba_system, zamba_spec
        )
        report = run.report()
        assert report.makespan_s > 0
        assert report.mean_queue_depth >= 0
        for metric in ("ttft", "tpot", "e2e"):
            p50 = getattr(report, f"{metric}_percentile")(50)
            p99 = getattr(report, f"{metric}_percentile")(99)
            assert not math.isnan(p50) and p50 <= p99
        assert report.throughput_tokens_per_s > 0
        assert report.n_preemptions == run.preemptions
        if not scheduler_name.startswith(("paged", "prefix")):
            assert run.preemptions == 0


#: a generation-heavy workload against a pool that holds only a few
#: full contexts: paged admission over-commits on purpose, so decode
#: growth *must* preempt (asserted) and every preemption path is walked
def preempting_setup(system, spec):
    memory = MemoryModel.for_system(system, spec)
    scheduler = PagedScheduler(
        memory,
        memory.weights_bytes + 4 * memory.request_bytes(128, 512),
        block_size=64,
        max_batch=64,
    )
    trace = poisson_trace(40.0, 24, fixed_lengths(128, 512), seed=1)
    return scheduler, trace


class TestPagedPreemptionInvariants:
    """What must hold when the paged pool actually thrashes."""

    @pytest.fixture()
    def served(self, pimba_system, zamba_spec):
        scheduler, trace = preempting_setup(pimba_system, zamba_spec)
        run = ServingEngine(pimba_system, zamba_spec, scheduler).serve(trace)
        assert run.preemptions > 0  # the setup must actually thrash
        return scheduler, trace, run

    def test_blocks_conserved_at_drain(self, served):
        """Every block ever claimed is freed once the trace drains, and
        the whole-byte ledger returns to the empty pool exactly."""
        scheduler, _, _ = served
        pool = scheduler.pool
        assert pool.n_resident == 0
        assert pool.blocks_in_use == 0
        assert pool.allocated_blocks == pool.freed_blocks
        assert pool.allocated_blocks > 0
        assert pool.free_bytes == pool.capacity_bytes - pool.memory.weights_bytes

    def test_no_restore_starvation(self, served):
        """Eviction is by admission age, restores re-enter in age order
        with one token of growth headroom — so a restored request always
        decodes before it can be evicted again.  Regression: positional
        eviction + tail re-insertion once ping-ponged a single request
        through 46 zero-progress evict/restore cycles on this workload."""
        _, _, run = served
        assert max(t.preemptions for t in run.timings) <= 5

    def test_preempted_requests_complete_exactly_once(self, served):
        scheduler, trace, run = served
        served_ids = sorted(t.request_id for t in run.timings)
        assert served_ids == [r.request_id for r in trace.requests]
        assert sum(t.preemptions for t in run.timings) == run.preemptions
        preempted = [t for t in run.timings if t.preemptions > 0]
        assert preempted  # thrashing touched real requests...
        # ...and their timestamps still tell one coherent story each.
        for t in preempted:
            assert t.arrival_s <= t.admitted_s <= t.first_token_s <= t.finished_s

    def test_token_accounting_includes_reprefill_work(
        self, served, pimba_system, zamba_spec
    ):
        """Each output token is decoded exactly once, but prefill work
        *exceeds* the no-preemption baseline by the restore re-prefills
        (prompt + already-generated tokens per eviction)."""
        scheduler, trace, run = served
        assert sum(run.decode_tokens) == trace.total_output_tokens
        roomy = PagedScheduler(
            scheduler.memory,
            pimba_system.capacity_bytes,
            block_size=64,
            max_batch=64,
        )
        baseline = ServingEngine(pimba_system, zamba_spec, roomy).serve(trace)
        assert baseline.preemptions == 0
        assert len(run.prefill_seconds) > len(baseline.prefill_seconds)
        assert sum(run.prefill_tokens) > sum(baseline.prefill_tokens)
        # Restores re-prefill beyond the prompt: some prefill event is
        # bigger than any admission cohort's padded prompt could be.
        assert max(run.prefill_tokens) > max(
            r.input_len for r in trace.requests
        )
