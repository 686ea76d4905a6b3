"""Prefix-cache corners: COW matching, refcounts, eviction order, determinism.

The bit-exactness of the cache-disabled scheduler lives in
``test_engine_equivalence.py``; this file pins the behaviors the cache
adds on top — the copy-on-write match boundary, reference counting
through a full engine drain, cached blocks losing to live KV *before*
any preemption, and hit counters that survive process-pool fan-out.
"""

import collections
import itertools
import random

import pytest
from block_prefix_cache import BlockPrefixCache, expand

from repro.experiments import Runner
from repro.models import spec_for
from repro.perf.system import SystemKind, build_system
from repro.serving import (
    MemoryModel,
    PrefixBlockPool,
    PrefixCache,
    PrefixCachingScheduler,
    ServingEngine,
    multiturn_chat_trace,
)
from repro.serving.experiments import prefix_cache_spec

BLOCK = 64


@pytest.fixture(scope="module")
def zamba_spec():
    return spec_for("Zamba2")


@pytest.fixture(scope="module")
def pimba_system():
    return build_system(SystemKind.PIMBA, "small")


@pytest.fixture(scope="module")
def memory(pimba_system, zamba_spec):
    return MemoryModel.for_system(pimba_system, zamba_spec)


def roomy_pool(memory):
    return PrefixBlockPool(memory, memory.weights_bytes * 2, BLOCK)


class TestCopyOnWriteMatching:
    """A block a request will write into is copied, never shared."""

    def test_partial_tail_block_never_published(self, memory):
        pool = roomy_pool(memory)
        pool.publish(session_id=1, history_tokens=100)
        assert pool.cache.n_blocks == 100 // BLOCK == 1

    def test_match_stops_before_the_write_block(self, memory):
        """A 128-token prompt over 64-token blocks reuses only block 0:
        its decode tokens land in block 1, which would diverge from the
        session history mid-block if it were shared."""
        pool = roomy_pool(memory)
        pool.publish(session_id=1, history_tokens=128)
        assert pool.cache.n_blocks == 2
        assert pool.cache.match(1, prefill_tokens=128) == 1
        assert pool.cache.match(1, prefill_tokens=129) == 2

    def test_at_least_one_token_is_always_computed(self, memory):
        """The engine must price a first-token prefill, so a fully
        cached prompt still computes its final token."""
        pool = roomy_pool(memory)
        pool.publish(session_id=1, history_tokens=BLOCK * 8)
        for prefill in (1, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK * 3, 100):
            hit = pool.cache.match(1, prefill) * BLOCK
            assert hit < prefill

    def test_unknown_session_matches_nothing(self, memory):
        pool = roomy_pool(memory)
        pool.publish(session_id=1, history_tokens=256)
        assert pool.cache.match(2, prefill_tokens=256) == 0


class TestRefcounts:
    def test_pinned_blocks_are_never_evicted(self, memory):
        pool = roomy_pool(memory)
        pool.publish(session_id=1, history_tokens=128)
        pool.cache.acquire(request_id=7, session_id=1, n_blocks=2)
        assert pool.cache.pinned_blocks == 2
        assert pool.cache.cached_blocks == 0  # nothing unreferenced to take
        pool.cache.release(7)
        assert pool.cache.pinned_blocks == 0
        assert pool.cache.cached_blocks == 2
        pool.cache.evict(1)
        assert pool.cache.cached_blocks == 1
        assert pool.cache.evictions == 1

    def test_refcounts_conserved_at_engine_drain(
        self, pimba_system, zamba_spec, memory
    ):
        """After a full multi-turn trace drains: no resident requests, no
        pinned blocks, every claimed block returned — only unreferenced
        session history remains, retained for a next turn that never
        comes."""
        trace = multiturn_chat_trace(
            0.5, 4, turns=3, first_input=256, user_tokens=32,
            output_len=32, think_s=2.0, seed=0,
        )
        scheduler = PrefixCachingScheduler(
            memory, pimba_system.capacity_bytes, block_size=BLOCK,
            max_batch=8,
        )
        run = ServingEngine(pimba_system, zamba_spec, scheduler).serve(trace)
        assert run.cache_hit_tokens > 0  # the trace exercised the cache
        pool = scheduler.pool
        assert pool.n_resident == 0
        assert pool.blocks_in_use == 0
        assert pool.allocated_blocks == pool.freed_blocks
        assert pool.cache.pinned_blocks == 0
        assert pool.cache.cached_blocks > 0
        assert pool.cache.cached_blocks == pool.cache.n_blocks


class TestEvictionOrder:
    def test_lru_blocks_yield_when_live_kv_claims_bytes(self, memory):
        """Retained cache never gates an allocation: the pool trims the
        oldest session's blocks to make the claim fit."""
        capacity = (
            memory.weights_bytes
            + memory.reserved_bytes(256)
            + memory.kv_bytes(128)
        )
        pool = PrefixBlockPool(memory, capacity, BLOCK)
        pool.publish(session_id=1, history_tokens=128)
        pool.publish(session_id=2, history_tokens=128)
        assert pool.cache.cached_blocks == 4
        # A private claim for the full free headroom: both of session
        # 1's blocks (the LRU head) must go; session 2's survive.
        pool.allocate(request_id=9, context=256, final_context=256)
        assert pool.holds(9)
        assert pool.cache.evictions == 2
        assert pool.cache.match(1, prefill_tokens=1024) == 0
        assert pool.cache.match(2, prefill_tokens=1024) == 2

    def test_eviction_precedes_preemption_under_a_tight_pool(
        self, pimba_system, zamba_spec, memory
    ):
        """A pool sized to hold the live working set but not the retained
        history evicts cached blocks — and never preempts a running
        request to make room for them."""
        trace = multiturn_chat_trace(
            0.2, 4, turns=3, first_input=256, user_tokens=32,
            output_len=32, think_s=2.0, seed=0,
        )
        scheduler = PrefixCachingScheduler(
            memory,
            memory.weights_bytes + 2.5 * memory.request_bytes(512, 64),
            block_size=BLOCK,
            max_batch=8,
        )
        run = ServingEngine(pimba_system, zamba_spec, scheduler).serve(trace)
        assert run.cache_evictions > 0
        assert run.preemptions == 0
        assert run.cache_hit_tokens > 0
        # Eviction costs reuse, nothing else: the roomy pool serves the
        # same trace with at least as many hits and zero evictions.
        roomy = PrefixCachingScheduler(
            memory, pimba_system.capacity_bytes, block_size=BLOCK,
            max_batch=8,
        )
        baseline = ServingEngine(
            pimba_system, zamba_spec, roomy
        ).serve(trace)
        assert baseline.cache_evictions == 0
        assert baseline.cache_hit_tokens >= run.cache_hit_tokens


#: the walk's operations: releases and evictions outweigh pins and
#: publishes, so sessions keep shrinking back below their longest pin
OPS = ("match", "acquire", "release", "release", "publish", "pull", "evict", "evict")


class TestRunLengthCache:
    """The run-length cache against the block-level oracle it replaced."""

    def test_a_seeded_walk_keeps_every_block_where_the_oracle_does(self, memory):
        """Both caches live through one seeded walk of 3,000 matches,
        pins by several holders of a session (within and past its
        longest pin), releases, publishes below, at and past the pinned
        prefix, tier-style pulls (a publish, then a pin at once), and
        evictions of one block and of many.  After every operation the
        caches hold the same blocks in the same LRU order with the same
        refcounts, counters and match for every session."""
        rng = random.Random(28)
        block, history = 4, 24  # tokens per block, blocks per session at most
        sessions = range(5)
        cache, oracle = PrefixCache(memory, block), BlockPrefixCache(memory, block)
        caches = (cache, oracle)
        pins = {s: [] for s in sessions}  # session -> its holders' pins
        holders = {}  # request id -> (session, pinned blocks)
        done = collections.Counter()  # operations run, by kind
        request_ids = itertools.count()
        while done.total() < 3000:
            request_id = next(request_ids)
            op = rng.choice(OPS)
            session = rng.choice(sessions)
            longest = max(pins[session], default=0)
            if op == "match":
                prefill = rng.randint(1, 40 * block)
                assert cache.match(session, prefill) == oracle.match(session, prefill)
            elif op == "acquire":
                reach = oracle.match(session, 10**6)
                if not reach:
                    continue
                longer = reach > longest and rng.random() < 0.5
                n = rng.randint(longest + 1 if longer else 1, reach)
                op += "-longer" if n > longest else "-within"
                for c in caches:
                    c.acquire(request_id, session, n)
                pins[session].append(n)
                holders[request_id] = (session, n)
            elif op == "release":
                if not holders:
                    continue
                rid = rng.choice(list(holders))
                released_session, n = holders.pop(rid)
                pins[released_session].remove(n)
                for c in caches:
                    c.release(rid)
            elif op == "publish":
                where = rng.choice(("below", "at", "past"))
                if where == "below":
                    if not longest:
                        continue
                    n = rng.randrange(longest)
                elif where == "at":
                    n = longest
                elif longest < history:
                    n = rng.randint(longest + 1, history)
                else:
                    continue
                op += "-" + where
                tokens = n * block + rng.randrange(block)
                for c in caches:
                    c.publish(session, tokens)
            elif op == "pull":
                reach = oracle.match(session, 10**6)
                if reach >= history:
                    continue
                n = rng.randint(reach + 1, history)
                for c in caches:
                    c.publish(session, n * block)
                    c.acquire(request_id, session, n)
                pins[session].append(n)
                holders[request_id] = (session, n)
            else:
                if not oracle.cached_blocks:
                    continue
                many = rng.random() < 0.5 and oracle.cached_blocks > 1
                n = rng.randint(2, oracle.cached_blocks) if many else 1
                op += "-many" if many else "-one"
                for c in caches:
                    c.evict(n)
            done[op] += 1
            (lru, refs), (oracle_lru, oracle_refs) = map(expand, caches)
            assert lru == oracle_lru
            assert refs == oracle_refs
            assert cache.pinned_blocks == oracle.pinned_blocks
            assert cache.cached_blocks == oracle.cached_blocks
            assert cache.evictions == oracle.evictions
            for s in sessions:
                assert cache.match(s, 10**6) == oracle.match(s, 10**6)
        # The walk is not vacuous: every kind of operation ran often.
        assert len(done) == 10
        assert min(done.values()) > 25


class TestDeterministicCounters:
    def test_hit_counters_identical_serial_and_process_pool(self):
        """The prefix_cache sweep returns byte-identical payloads — hit
        counters included — whether trials run in-process or fan out
        over ProcessPoolExecutor workers (the perf gate diffs these
        numbers across CI runs, so any nondeterminism turns it red)."""
        spec = prefix_cache_spec(smoke=True)
        serial = Runner(use_cache=False, max_workers=1).run(spec)
        parallel = Runner(use_cache=False, max_workers=2).run(spec)
        assert serial.values == parallel.values
        by_policy = serial.mapping("scheduler", "qps")
        prefix = by_policy[("prefix", 1.0)]
        paged = by_policy[("paged", 1.0)]
        assert prefix["cache_hit_tokens"] > 0
        assert prefix["prefix_cache_hit_rate"] > 0.5
        # The paged baseline never touches a cache, so its payload keeps
        # the historical shape: no cache keys at all.
        assert "cache_hit_tokens" not in paged
        assert "prefix_cache_hit_rate" not in paged
