"""MemoryModel footprints, capacity validation, and BlockPool accounting."""

import random

import pytest
from block_prefix_cache import BlockPrefixCache, expand

from repro.models import spec_for
from repro.models.registry import MODEL_NAMES
from repro.perf.system import SystemKind, build_system
from repro.serving import (
    BlockPool,
    MemoryModel,
    PrefixBlockPool,
    validate_capacity,
)
from repro.workloads.requests import Request


@pytest.fixture(scope="module")
def memory():
    return MemoryModel.for_system(
        build_system(SystemKind.GPU, "small"), spec_for("Zamba2")
    )


class TestMemoryModel:
    def test_request_bytes_matches_reserved_at_final_context(self, memory):
        """The conservative footprint and the paged accounting share one
        arithmetic path — the degenerate bit-exactness rests on this."""
        assert memory.request_bytes(256, 64) == memory.reserved_bytes(320)

    def test_request_bytes_rejects_negative_lengths(self, memory):
        """Regression: a negative output_len used to silently shrink the
        reservation below the prompt's own KV and overcommit the pool."""
        with pytest.raises(ValueError, match="non-negative"):
            memory.request_bytes(-1, 64)
        with pytest.raises(ValueError, match="non-negative"):
            memory.request_bytes(256, -64)
        with pytest.raises(ValueError, match="non-negative"):
            memory.reserved_bytes(-5)

    def test_validate_capacity_reports_bytes_and_gib(self, memory):
        """Regression: the error must spell out the weights floor and the
        offending budget in bytes *and* GiB (capacity knobs are set in
        GiB, footprints are computed in bytes — the unit slip is the
        whole failure mode)."""
        bad = memory.weights_bytes / 2
        with pytest.raises(ValueError) as err:
            validate_capacity(memory, bad)
        message = str(err.value)
        assert f"{bad:.0f} bytes" in message
        assert f"{bad / 2**30:.3f} GiB" in message
        assert f"{memory.weights_bytes:.0f} bytes" in message
        assert f"{memory.weights_bytes / 2**30:.3f} GiB" in message

    def test_validate_capacity_accepts_roomy_budget(self, memory):
        validate_capacity(memory, memory.weights_bytes * 2)  # no raise

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1e12", True])
    def test_validate_capacity_refuses_what_is_not_a_finite_number(self, memory, bad):
        """A NaN budget passes every ``need > free`` test, so a pool on
        it would admit without bound."""
        with pytest.raises(ValueError, match="finite number of bytes"):
            validate_capacity(memory, bad)

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_two_number_footprint_equals_the_system_formulas(self, model):
        """``state + t * per_token`` is the system's own footprint, to the
        bit and the type, for every scale and system in the registry and
        every context up to 4,096 tokens: the whole-byte footprints make
        each product exact in either order."""
        for scale in ("small", "large"):
            spec = spec_for(model, scale)
            for kind in SystemKind:
                system = build_system(kind, scale)
                memory = MemoryModel.for_system(system, spec)
                state = system.state_bytes_per_request(spec)
                for t in range(4097):
                    kv = system.kv_bytes_per_request(spec, t)
                    reserved = memory.reserved_bytes(t)
                    assert reserved == state + kv, (scale, kind, t)
                    assert type(reserved) is type(state + kv)
                    assert memory.kv_bytes(t) == kv, (scale, kind, t)
                    assert type(memory.kv_bytes(t)) is type(kv)


class TestBlockPool:
    def make_pool(self, memory, full_requests: float, block_size: int):
        return BlockPool(
            memory,
            memory.weights_bytes
            + full_requests * memory.request_bytes(128, 128),
            block_size,
        )

    def test_validation(self, memory):
        with pytest.raises(ValueError, match="block_size"):
            self.make_pool(memory, 4, 0)
        with pytest.raises(ValueError, match="weights"):
            BlockPool(memory, memory.weights_bytes / 2, 64)

    def test_covered_tokens_rounds_up_and_trims_the_tail(self, memory):
        pool = self.make_pool(memory, 4, 64)
        # Mid-decode: whole blocks, so up to block_size - 1 tokens of
        # rounding slack...
        assert pool.covered_tokens(129, 1000) == 192
        assert pool.blocks_for(129) == 3
        # ...but never beyond the request's known final context.
        assert pool.covered_tokens(250, 256) == 256
        assert pool.covered_tokens(256, 256) == 256

    def test_allocate_extend_release_conserve_blocks(self, memory):
        pool = self.make_pool(memory, 4, 64)
        pool.allocate(7, 128, 256)
        assert pool.holds(7) and pool.n_resident == 1
        assert pool.blocks_in_use == 2
        free_before = pool.free_bytes
        assert pool.extend(7, 129, 256)  # claims block 3
        assert pool.blocks_in_use == 3
        assert pool.free_bytes < free_before
        assert pool.extend(7, 130, 256)  # inside block 3: no new claim
        assert pool.blocks_in_use == 3
        pool.release(7)
        assert not pool.holds(7) and pool.blocks_in_use == 0
        assert pool.allocated_blocks == pool.freed_blocks == 3

    def test_extend_fails_on_exhaustion_without_side_effects(self, memory):
        pool = self.make_pool(memory, 1.5, 64)
        pool.allocate(0, 128, 256)
        pool.allocate(1, 128, 256)  # pool now nearly full
        blocks = pool.blocks_in_use
        grew = pool.extend(0, 129, 10**6)
        assert not grew  # a 64-token block no longer fits
        assert pool.blocks_in_use == blocks  # failed claim left no trace
        assert pool.allocated_blocks == blocks

    def test_double_allocate_rejected(self, memory):
        pool = self.make_pool(memory, 4, 64)
        pool.allocate(3, 128, 256)
        with pytest.raises(ValueError, match="already holds"):
            pool.allocate(3, 128, 256)

    def test_feasible_and_fits(self, memory):
        pool = self.make_pool(memory, 2, 64)
        assert pool.feasible(128, 128)
        assert not pool.feasible(4096, 4096)
        assert pool.fits(128, 256)
        pool.allocate(0, 256, 256)
        pool.allocate(1, 256, 256)
        assert not pool.fits(128, 256)

    def test_admissible_is_the_float_walk_over_fits_and_feasible(self, memory):
        """``admissible`` packs on whole-byte ints exactly the queue
        prefix that walking the float footprints admits: each prompt's
        trimmed blocks must fit what the earlier ones left, and the
        request must be able to finish alone in the pool.  Random queues
        meet random partly filled pools at fractional budgets."""
        rng = random.Random(11)
        stops = {"admitted all": 0, "bytes": 0, "infeasible": 0}
        for _ in range(400):
            pool = BlockPool(
                memory,
                memory.weights_bytes
                + rng.uniform(1.2, 4.0) * memory.request_bytes(256, 64),
                16,
            )
            for rid in range(rng.randint(0, 3)):
                context = rng.randint(1, 256)
                final = context + rng.randint(1, 64)
                if pool.fits(context, final):
                    pool.allocate(rid, context, final)
            # Some outputs are long enough that the final context could
            # never fit the pool, however short the prompt.
            queue = [
                Request(
                    100 + i,
                    rng.randint(1, 320),
                    rng.choice((rng.randint(1, 64), rng.randint(256, 3000))),
                )
                for i in range(rng.randint(0, 6))
            ]
            free, expected, stop = pool.free_bytes, 0, "admitted all"
            for request in queue:
                final = request.input_len + request.output_len
                need = memory.reserved_bytes(
                    pool.covered_tokens(request.input_len, final)
                )
                if need > free:
                    stop = "bytes"
                    break
                if not pool.feasible(request.input_len, request.output_len):
                    stop = "infeasible"
                    break
                free -= need
                expected += 1
            stops[stop] += 1
            # Rows before the head were admitted already: long enough to
            # fit no pool, so an admission that read them would stop.
            head = 3
            input_len = [10**6] * head + [r.input_len for r in queue]
            output_len = [10**6] * head + [r.output_len for r in queue]
            rows = range(head, head + len(queue))
            assert pool.admissible(input_len, output_len, rows) == expected
        # Every way a walk can end is exercised.
        assert min(stops.values()) > 40


#: random-walk operations on a prefix pool (extend drawn twice as often)
_WALK_OPS = ("allocate", "allocate_reusing", "extend", "extend", "release", "publish")


class _FractionalSystem:
    """A footprint model with a fractional state or per-token KV width."""

    def __init__(self, state_bytes, kv_bytes_per_token):
        self.state = state_bytes
        self.kv = kv_bytes_per_token

    def weights_bytes(self, spec):
        return 1e9

    def state_bytes_per_request(self, spec):
        return self.state

    def kv_bytes_per_request(self, spec, seq_len):
        return self.kv * seq_len


class TestWholeByteLedger:
    """The pool's held total is a running integer, exact in any order.

    These tests recompute ``free_bytes`` fresh after every operation of a
    long random walk, and pin the invariant that lets the prefix pool skip
    trims that move nothing.
    """

    @pytest.mark.parametrize("state, per_token", [(1000.5, 10.0), (1000.0, 10.25)])
    def test_fractional_footprints_are_rejected(self, state, per_token):
        memory = MemoryModel(spec=None, system=_FractionalSystem(state, per_token))
        with pytest.raises(ValueError, match="whole-byte") as err:
            BlockPool(memory, 2e9, 16)
        assert repr(state) in str(err.value)
        assert repr(per_token) in str(err.value)

    @staticmethod
    def fresh_free_bytes(pool):
        held = sum(
            pool.memory.reserved_bytes(h.kv_tokens) for h in pool._holdings.values()
        )
        return (
            pool.capacity_bytes
            - pool.memory.weights_bytes
            - held
            - pool.cache.pinned_bytes
        )

    def test_random_walk_keeps_free_bytes_exact_and_trims_sound(self, memory):
        """Seeded allocate / allocate_reusing / extend / release /
        publish walk on a prefix pool at the ``+tight`` rows' fractional
        2.93-request budget: the running total never drifts from the
        fresh sum, and retained cache always fits the free pool (or is
        empty) — so a trim skipped after a no-op extend or a release
        could never have evicted anything."""
        rng = random.Random(2024)
        pool = PrefixBlockPool(
            memory,
            memory.weights_bytes + 2.93 * memory.request_bytes(256, 32),
            16,
        )
        live = {}  # request id -> [context, final context, session]
        done = {"allocate": 0, "extend": 0, "release": 0, "publish": 0}
        failed_extends = 0
        for request_id in range(4000):
            op = rng.choice(_WALK_OPS)
            if op.startswith("allocate"):
                context = rng.randint(1, 256)
                final = context + rng.randint(1, 64)
                if not pool.fits(context, final):
                    continue
                session = None
                if op == "allocate":
                    pool.allocate(request_id, context, final)
                else:
                    session = rng.randrange(4)
                    pool.allocate_reusing(request_id, session, context, final, context)
                live[request_id] = [context, final, session]
                op = "allocate"
            elif op == "extend" and live:
                rid = rng.choice(list(live))
                context, final, _ = live[rid]
                grown = min(final, context + rng.randint(1, 24))
                if pool.extend(rid, grown, final):
                    live[rid][0] = grown
                else:
                    failed_extends += 1
            elif op == "release" and live:
                rid = rng.choice(list(live))
                context, _, session = live.pop(rid)
                if session is not None:
                    pool.publish(session, context)
                pool.release(rid)
            elif op == "publish":
                pool.publish(rng.randrange(4), rng.randint(1, 320))
            else:
                continue
            done[op] += 1
            assert pool.free_bytes == self.fresh_free_bytes(pool)
            assert pool.blocks_in_use == sum(
                h.blocks for h in pool._holdings.values()
            )
            assert (
                pool.cache.cached_bytes <= pool.free_bytes
                or pool.cache.cached_blocks == 0
            )
        # The walk is not vacuous: every operation ran, the pool ran out
        # of room, and live KV reclaimed cached blocks.
        assert min(done.values()) > 300
        assert failed_extends > 0
        assert pool.cache.hit_tokens > 0
        assert pool.cache.evictions > 0
        for rid in list(live):
            pool.release(rid)
        assert pool.free_bytes == pool.capacity_bytes - memory.weights_bytes

    def test_one_pass_trim_evicts_what_single_block_evictions_would(self, memory):
        """Two prefix pools live through one seeded walk of allocations,
        extends, releases and publishes; the oracle keeps its cache
        block by block and trims by calling ``evict_lru`` until its
        retained cache fits.  After every operation both hold the same
        cached blocks, expanded block by block, in the same LRU order
        with the same refcounts and eviction count, and some trims drop
        several blocks at once, so the counted cut is exercised beyond
        one block."""
        rng = random.Random(7)
        budget = memory.weights_bytes + 2.93 * memory.request_bytes(256, 32)
        pool = PrefixBlockPool(memory, budget, 16)
        oracle = PrefixBlockPool(memory, budget, 16)
        oracle.cache = BlockPrefixCache(memory, 16)

        def trim_one_at_a_time():
            free = oracle.free_bytes
            while oracle.cache.cached_bytes > free and oracle.cache.evict_lru():
                pass

        oracle._trim = oracle._claimed = trim_one_at_a_time
        pools = (pool, oracle)
        live = {}  # request id -> [context, final context, session]
        multi_block_trims = 0
        for request_id in range(3000):
            op = rng.choice(_WALK_OPS)
            evictions = pool.cache.evictions
            if op.startswith("allocate"):
                context = rng.randint(1, 256)
                final = context + rng.randint(1, 64)
                if not pool.fits(context, final):
                    continue
                session = None if op == "allocate" else rng.randrange(4)
                for p in pools:
                    if session is None:
                        p.allocate(request_id, context, final)
                    else:
                        p.allocate_reusing(
                            request_id, session, context, final, context
                        )
                live[request_id] = [context, final, session]
            elif op == "extend" and live:
                rid = rng.choice(list(live))
                context, final, _ = live[rid]
                grown = min(final, context + rng.randint(1, 48))
                landed = {p.extend(rid, grown, final) for p in pools}
                assert len(landed) == 1
                if landed.pop():
                    live[rid][0] = grown
            elif op == "release" and live:
                rid = rng.choice(list(live))
                context, _, session = live.pop(rid)
                for p in pools:
                    if session is not None:
                        p.publish(session, context)
                    p.release(rid)
            elif op == "publish":
                session, tokens = rng.randrange(4), rng.randint(1, 640)
                for p in pools:
                    p.publish(session, tokens)
            multi_block_trims += pool.cache.evictions - evictions > 1
            (lru, refs), (oracle_lru, oracle_refs) = map(
                expand, (pool.cache, oracle.cache)
            )
            assert lru == oracle_lru
            assert refs == oracle_refs
            assert pool.cache.evictions == oracle.cache.evictions
            assert pool.free_bytes == oracle.free_bytes
        assert multi_block_trims > 20
