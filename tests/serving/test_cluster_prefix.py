"""Cluster-level prefix reuse: session affinity, the shared KV tier,
the sessionless degeneration, and the empty-trace equivalence.

The single-pool cache corners live in ``test_prefix_cache.py``; this
file pins what the cluster layer adds on top — the affinity router
actually keeping a session's turns on one replica (the bug this suite
regresses), the cross-replica tier's transfer-vs-recompute boundary and
its visibility rules, bit-exactness of the vectorized engine against
the scalar reference on the transfer-priced paths, refcount
conservation when a prefix crosses replicas, and the degenerate inputs
(no sessions, empty trace) folding onto their baselines.
"""

import collections
import dataclasses
import hashlib
import math

import pytest

from repro.experiments import Runner
from repro.models import spec_for
from repro.perf.system import SystemKind, build_system
from repro.serving import (
    AffinityRouter,
    IterationCostModel,
    MemoryModel,
    PrefixBlockPool,
    PrefixCachingScheduler,
    ReferenceEngine,
    ServingEngine,
    SharedPrefixTier,
    SloSpec,
    build_cluster,
    build_scheduler,
    load_trace,
    multiturn_chat_trace,
)
from repro.serving.experiments import cross_replica_prefix_spec
from repro.workloads.requests import Trace

BLOCK = 64
CORPUS = "traces/multiturn_chat.json"


@pytest.fixture(scope="module")
def zamba_spec():
    return spec_for("Zamba2")


@pytest.fixture(scope="module")
def pimba_system():
    return build_system(SystemKind.PIMBA, "small")


@pytest.fixture(scope="module")
def memory(pimba_system, zamba_spec):
    return MemoryModel.for_system(pimba_system, zamba_spec)


@pytest.fixture(scope="module")
def corpus():
    return load_trace(CORPUS)


def session_trace(seed=0):
    return multiturn_chat_trace(
        1.0, 8, turns=4, first_input=256, user_tokens=64,
        output_len=32, think_s=2.0, seed=seed,
    )


def sessionless_trace():
    """:func:`session_trace` with every session id dropped: the same
    arrivals and growing prompts, but nothing a prefix cache may reuse."""
    return Trace(
        tuple(
            dataclasses.replace(
                t, request=dataclasses.replace(t.request, session_id=None)
            )
            for t in session_trace().requests
        )
    )


class TestAffinitySessionPinning:
    """The affinity router's default key is the session, not the request.

    Keying on the request id routed every turn of a conversation to a
    (likely) different replica, so the per-replica prefix caches never
    saw a session twice — cluster hit rates collapsed while the
    single-engine rate looked fine.
    """

    def test_every_turn_of_a_session_lands_on_one_replica(self, corpus):
        assignments = AffinityRouter(4).assign(corpus)
        homes: dict[int, set[int]] = {}
        for request, replica in zip(corpus.requests, assignments):
            homes.setdefault(request.session_id, set()).add(replica)
        assert all(len(replicas) == 1 for replicas in homes.values())
        # ... while distinct sessions still spread over the fleet.
        assert len({min(r) for r in homes.values()}) > 1

    def test_cluster_hit_rate_matches_single_engine(
        self, pimba_system, zamba_spec, corpus
    ):
        """Under affinity routing the per-replica caches together see
        exactly the session locality one engine would, so the cluster
        hit rate equals the single-engine rate at every fleet size
        (light load: no queueing to perturb admission clocks)."""
        single = ServingEngine(
            pimba_system, zamba_spec,
            build_scheduler("prefix", pimba_system, zamba_spec, max_batch=4),
        ).run(corpus).to_payload()
        assert single["prefix_cache_hit_rate"] > 0.5
        for n in (1, 2, 4):
            clustered = build_cluster(
                pimba_system, zamba_spec, n,
                router="affinity", scheduler="prefix", max_batch=4,
            ).run(corpus).to_payload()
            assert (
                clustered["prefix_cache_hit_rate"]
                == single["prefix_cache_hit_rate"]
            )

    def test_sessionless_requests_hash_like_before(self):
        """A sessionless request hashes its request id with the key
        encoding routing has always used (``int:<id>``), so sessionless
        traces route exactly as they always did (no perf-gate cell
        moves)."""
        from repro.serving import poisson_trace

        trace = poisson_trace(10.0, 32, seed=3)
        assert all(r.session_id is None for r in trace.requests)
        expected = tuple(
            int.from_bytes(
                hashlib.sha256(f"int:{r.request_id}".encode()).digest()[:8],
                "big",
            )
            % 4
            for r in trace.requests
        )
        assert AffinityRouter(4).assign(trace) == expected
        assert len(set(expected)) == 4


class TestSessionlessPrefix:
    """Without session ids the prefix scheduler IS the paged one, at
    every layer that builds it: builder, cluster and trial."""

    def test_builder_sessionless_prefix_is_paged_bit_exact(
        self, pimba_system, zamba_spec
    ):
        trace = sessionless_trace()
        prefix = ServingEngine(
            pimba_system, zamba_spec,
            build_scheduler("prefix", pimba_system, zamba_spec, max_batch=8),
        ).serve(trace)
        paged = ServingEngine(
            pimba_system, zamba_spec,
            build_scheduler("paged", pimba_system, zamba_spec, max_batch=8),
        ).serve(trace)
        assert prefix == paged

    def test_cluster_sessionless_prefix_is_paged_bit_exact(
        self, pimba_system, zamba_spec
    ):
        trace = sessionless_trace()
        prefix = build_cluster(
            pimba_system, zamba_spec, 2,
            scheduler="prefix", max_batch=8,
        ).serve(trace)
        paged = build_cluster(
            pimba_system, zamba_spec, 2,
            scheduler="paged", max_batch=8,
        ).serve(trace)
        assert prefix.merged() == paged.merged()

    def test_trial_sessionless_prefix_is_paged(self):
        from repro.serving.experiments import cluster_slo

        common = dict(
            system="Pimba", qps=4.0, replicas=2, n_requests=16,
            input_len=256, output_len=32, max_batch=8,
        )
        prefix = cluster_slo(scheduler="prefix", **common)
        paged = cluster_slo(scheduler="paged", **common)
        assert prefix == paged

    def test_shared_tier_requires_prefix_cache(self, pimba_system, zamba_spec):
        with pytest.raises(ValueError, match="shared prefix tier"):
            build_cluster(
                pimba_system, zamba_spec, 2,
                scheduler="paged", shared_tier=True,
            )


class TestSharedTierOnNodeFleets:
    """The tier reads its preconditions and prices off the built fleet."""

    COMMON = dict(
        qps=1.0, arrival="multiturn", n_requests=16, input_len=512,
        output_len=32, max_batch=8, scheduler="prefix", shared_tier=True,
    )

    @pytest.mark.parametrize("system", ["Pimba", "GPU"])
    def test_one_kind_nodes_serve_like_replicas(self, system):
        """A ``nodes`` fleet of one kind is homogeneous: the tier joins
        it, and it serves exactly the ``replicas=2`` payload."""
        from repro.serving.experiments import cluster_slo

        nodes = cluster_slo(system, nodes="Pimba,Pimba", **self.COMMON)
        replicas = cluster_slo("Pimba", replicas=2, **self.COMMON)
        assert nodes["kv_transfers"] > 0
        assert nodes == replicas

    def test_tier_is_priced_from_the_replicas(
        self, pimba_system, zamba_spec
    ):
        """``system`` is unused when ``node_kinds`` is given, so it must
        not price the tier either."""
        gpu = build_system(SystemKind.GPU, "small")
        trace = multiturn_chat_trace(
            2.0, 8, 4, first_input=512, user_tokens=128, output_len=32,
            seed=0,
        )
        knobs = dict(scheduler="prefix", shared_tier=True, max_batch=8)
        via_kinds = build_cluster(
            gpu, zamba_spec, 2, node_kinds=(pimba_system,) * 2, **knobs
        ).serve(trace)
        direct = build_cluster(pimba_system, zamba_spec, 2, **knobs).serve(
            trace
        )
        assert via_kinds.merged() == direct.merged()

    def test_mixed_kinds_are_refused(self, pimba_system, zamba_spec):
        from repro.serving.experiments import cluster_slo

        gpu = build_system(SystemKind.GPU, "small")
        with pytest.raises(ValueError, match="homogeneous fleet"):
            build_cluster(
                pimba_system, zamba_spec, 2,
                node_kinds=(pimba_system, gpu),
                scheduler="prefix", shared_tier=True,
            )
        with pytest.raises(ValueError, match="homogeneous fleet"):
            cluster_slo("Pimba", nodes="Pimba,GPU", **self.COMMON)


class TestEmptyTraceEquivalence:
    """The bare engine, the reference, and any cluster agree on nothing."""

    def test_engines_serve_empty_to_zero_span_record(
        self, pimba_system, zamba_spec
    ):
        empty = Trace(())
        sched = build_scheduler("fcfs", pimba_system, zamba_spec)
        run = ServingEngine(pimba_system, zamba_spec, sched).serve(empty)
        assert run.timings == ()
        assert (run.start_s, run.end_s) == (0.0, 0.0)
        ref = ReferenceEngine(
            pimba_system, zamba_spec,
            build_scheduler("fcfs", pimba_system, zamba_spec),
        ).serve(empty)
        assert ref == run
        report = run.report()
        assert report.n_requests == 0
        assert math.isnan(report.ttft_percentile(99))

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_cluster_serves_empty_like_the_bare_engine(
        self, replicas, pimba_system, zamba_spec
    ):
        empty = Trace(())
        engine = ServingEngine(
            pimba_system, zamba_spec,
            build_scheduler("fcfs", pimba_system, zamba_spec),
        )
        cluster = build_cluster(pimba_system, zamba_spec, replicas)
        assert cluster.serve(empty).merged() == engine.serve(empty)
        report = cluster.run(empty)
        assert report.n_requests == 0
        assert report.n_replicas == replicas
        assert math.isnan(report.ttft_percentile(99))
        assert all(r.stats is None for r in report.per_replica)


def paired_pools(memory, cost, n=2):
    """n roomy pools joined by one tier priced through ``cost``."""
    tier = SharedPrefixTier(memory, BLOCK, cost)
    pools = []
    for i in range(n):
        pool = PrefixBlockPool(memory, memory.weights_bytes * 2, BLOCK)
        pool.attach_tier(tier, i)
        pools.append(pool)
    return tier, pools


class TestSharedTierDecisions:
    """Transfer happens iff the wire beats the re-prefill, causally."""

    def fast_cost(self, pimba_system, zamba_spec):
        # A link so fat the wire is effectively free: transfer always wins.
        return IterationCostModel(pimba_system, zamba_spec, link_gbps=1e9)

    def slow_cost(self, pimba_system, zamba_spec):
        # A link so thin recompute always wins.
        return IterationCostModel(pimba_system, zamba_spec, link_gbps=1e-6)

    def test_fast_link_pulls_and_charges_the_destination(
        self, memory, pimba_system, zamba_spec
    ):
        tier, (a, b) = paired_pools(
            memory, self.fast_cost(pimba_system, zamba_spec)
        )
        a.publish(session_id=1, history_tokens=8 * BLOCK, at=1.0)
        assert tier.n_sessions == 1
        hit, remote, transfer_s = b.allocate_reusing(
            request_id=0, session_id=1, context=8 * BLOCK + 1,
            final_context=9 * BLOCK, prefill_tokens=8 * BLOCK + 1, now=2.0,
        )
        assert hit == 8 * BLOCK
        assert remote == 8 * BLOCK
        assert transfer_s > 0.0
        assert tier.transfers == 1 and tier.recomputes == 0
        # The destination pool owns the pulled blocks like local ones:
        # pinned now, charged at the tier's own payload arithmetic.
        assert b.cache.pinned_blocks == 8
        assert b.transferred_bytes == memory.reserved_bytes(remote)
        assert b.kv_transfers == 1

    def test_slow_link_recomputes_instead(
        self, memory, pimba_system, zamba_spec
    ):
        tier, (a, b) = paired_pools(
            memory, self.slow_cost(pimba_system, zamba_spec)
        )
        a.publish(session_id=1, history_tokens=8 * BLOCK, at=1.0)
        hit, remote, transfer_s = b.allocate_reusing(
            request_id=0, session_id=1, context=8 * BLOCK + 1,
            final_context=9 * BLOCK, prefill_tokens=8 * BLOCK + 1, now=2.0,
        )
        assert (hit, remote, transfer_s) == (0, 0, 0.0)
        assert tier.transfers == 0 and tier.recomputes == 1
        assert b.remote_hit_tokens == 0 and b.kv_transfers == 0

    def test_only_the_uncovered_suffix_travels(
        self, memory, pimba_system, zamba_spec
    ):
        """A destination that already caches a shorter local prefix pays
        the wire only for the blocks it lacks."""
        tier, (a, b) = paired_pools(
            memory, self.fast_cost(pimba_system, zamba_spec)
        )
        b.publish(session_id=1, history_tokens=3 * BLOCK)  # local, no clock
        a.publish(session_id=1, history_tokens=8 * BLOCK, at=1.0)
        hit, remote, _ = b.allocate_reusing(
            request_id=0, session_id=1, context=8 * BLOCK + 1,
            final_context=9 * BLOCK, prefill_tokens=8 * BLOCK + 1, now=2.0,
        )
        assert hit == 8 * BLOCK
        assert remote == 5 * BLOCK
        assert b.transferred_bytes == memory.reserved_bytes(5 * BLOCK)

    def test_future_publishes_are_invisible(
        self, memory, pimba_system, zamba_spec
    ):
        tier, (a, b) = paired_pools(
            memory, self.fast_cost(pimba_system, zamba_spec)
        )
        a.publish(session_id=1, history_tokens=8 * BLOCK, at=5.0)
        hit, remote, _ = b.allocate_reusing(
            request_id=0, session_id=1, context=8 * BLOCK + 1,
            final_context=9 * BLOCK, prefill_tokens=8 * BLOCK + 1, now=2.0,
        )
        assert (hit, remote) == (0, 0)
        # ... and a publish by the looking replica itself never "pulls".
        b.publish(session_id=2, history_tokens=8 * BLOCK, at=0.0)
        hit, remote, _ = b.allocate_reusing(
            request_id=1, session_id=2, context=8 * BLOCK + 1,
            final_context=9 * BLOCK, prefill_tokens=8 * BLOCK + 1, now=2.0,
        )
        assert remote == 0
        assert hit == 8 * BLOCK  # the local cache still matches

    def test_longest_prefix_wins_the_directory(
        self, memory, pimba_system, zamba_spec
    ):
        tier, (a, b) = paired_pools(
            memory, self.fast_cost(pimba_system, zamba_spec)
        )
        tier.publish(0, 1, 8 * BLOCK, at=1.0)
        tier.publish(1, 1, 4 * BLOCK, at=2.0)  # shorter: ignored
        assert tier._published[1] == (0, 8 * BLOCK, 1.0)
        tier.publish(1, 1, 8 * BLOCK, at=3.0)  # tie: newest publisher wins
        assert tier._published[1] == (1, 8 * BLOCK, 3.0)
        # Sub-block histories never enter the directory at all.
        tier.publish(0, 2, BLOCK - 1, at=1.0)
        assert tier.n_sessions == 1


class TestSharedTierInEngines:
    def seeded_engine(self, engine_cls, pimba_system, zamba_spec):
        """One engine whose tier already advertises fat remote prefixes,
        so admissions exercise the transfer-priced paths."""
        sched = build_scheduler(
            "prefix", pimba_system, zamba_spec, max_batch=2
        )
        tier = SharedPrefixTier(
            MemoryModel.for_system(pimba_system, zamba_spec),
            BLOCK,
            IterationCostModel(pimba_system, zamba_spec),
        )
        sched.pool.attach_tier(tier, 0)
        for session in (1, 3):
            tier.publish(1, session, 4096, at=0.0)
        return engine_cls(pimba_system, zamba_spec, sched)

    def test_transfer_paths_are_reference_bit_exact(
        self, pimba_system, zamba_spec
    ):
        """The vectorized engine prices remote pulls (wire time ahead of
        the shortened prefill) exactly like the scalar specification."""
        trace = session_trace()
        vec = self.seeded_engine(
            ServingEngine, pimba_system, zamba_spec
        ).serve(trace)
        ref = self.seeded_engine(
            ReferenceEngine, pimba_system, zamba_spec
        ).serve(trace)
        assert vec == ref
        assert vec.remote_hit_tokens > 0
        assert vec.kv_transfers > 0
        assert any(t.remote_tokens for t in vec.timings)

    def tiered_chat_engine(self, engine_cls, pimba_system, zamba_spec, memory):
        """A tight prefix-caching engine behind a fast tier that already
        advertises every even session's history, so restores re-acquire
        cached or pulled prefixes and cohorts mix different hits."""
        sched = PrefixCachingScheduler(
            memory,
            memory.weights_bytes + 3.0 * memory.request_bytes(512, 48),
            block_size=16,
            max_batch=8,
        )
        tier = SharedPrefixTier(
            memory,
            16,
            IterationCostModel(pimba_system, zamba_spec, link_gbps=1e4),
        )
        sched.pool.attach_tier(tier, 0)
        for session in range(0, 24, 2):
            tier.publish(1, session, 4096, at=0.0)
        return engine_cls(pimba_system, zamba_spec, sched)

    @pytest.mark.parametrize("seed", range(6))
    def test_prefill_rules_are_reference_bit_exact(
        self, seed, pimba_system, zamba_spec, memory
    ):
        """A restore prices its re-prefill from its cached prefix plus
        its wire time, and a cohort skips only the prefix every member
        has cached — exactly like the scalar specification."""
        trace = multiturn_chat_trace(
            8.0,
            24,
            turns=3,
            first_input=256,
            user_tokens=64,
            output_len=48,
            think_s=0.2,
            seed=seed,
        )
        engine = self.tiered_chat_engine(
            ServingEngine, pimba_system, zamba_spec, memory
        )
        reached = collections.Counter()
        sched = engine.scheduler
        on_restore, on_admit = sched.on_restore, sched.on_admit

        def restored(request):
            on_restore(request)
            reached["cached restore"] += request.cache_hit_last > 0
            reached["pulled restore"] += request.transfer_s_last > 0

        def admitted(members):
            on_admit(members)
            reached["mixed cohort"] += len({m.cache_hit_last for m in members}) > 1

        sched.on_restore, sched.on_admit = restored, admitted
        ref = self.tiered_chat_engine(
            ReferenceEngine, pimba_system, zamba_spec, memory
        ).serve(trace)
        assert dataclasses.asdict(engine.serve(trace)) == dataclasses.asdict(ref)
        if seed == 0:
            # The comparison above only means something if the run
            # reaches every case the two prefill rules distinguish.
            assert reached["cached restore"] > 0
            assert reached["pulled restore"] > 0
            assert reached["mixed cohort"] > 0

    def test_rebalanced_sessions_pull_their_history(
        self, pimba_system, zamba_spec, corpus
    ):
        """Round-robin scatters every session across both replicas; with
        the tier on, a scattered session's *later* turns pull the prefix
        the other replica published — never the session's first turn,
        which has nothing published yet."""
        run = build_cluster(
            pimba_system, zamba_spec, 2,
            router="round-robin", scheduler="prefix",
            max_batch=1, shared_tier=True,
        ).serve(corpus)
        merged = run.merged()
        assert merged.remote_hit_tokens > 0
        assert merged.transferred_bytes > 0.0
        assert merged.kv_transfers > 0
        by_id = {r.request_id: r for r in corpus.requests}
        first_turn = {}
        for r in corpus.requests:
            first_turn.setdefault(r.session_id, r.request_id)
        pulled = [t for t in merged.timings if t.remote_tokens]
        assert pulled
        for timing in pulled:
            session = by_id[timing.request_id].session_id
            assert session is not None
            assert timing.request_id != first_turn[session]
        # The payload carries the tier's outcome for the perf gate.
        payload = run.report().to_payload(SloSpec(ttft_s=0.1, tpot_s=0.018))
        assert payload["remote_hit_tokens"] == merged.remote_hit_tokens
        assert payload["kv_transfers"] == merged.kv_transfers
        assert 0.0 < payload["remote_prefix_hit_rate"] < 1.0

    def test_tier_off_payload_keeps_historical_shape(
        self, pimba_system, zamba_spec, corpus
    ):
        """Without the tier no remote keys appear — downstream consumers
        (and the bench-diff matcher) see yesterday's payload exactly."""
        payload = build_cluster(
            pimba_system, zamba_spec, 2,
            router="round-robin", scheduler="prefix", max_batch=1,
        ).run(corpus).to_payload()
        assert "remote_hit_tokens" not in payload
        assert "kv_transfers" not in payload

    def test_refcounts_conserved_at_cluster_drain(
        self, pimba_system, zamba_spec, corpus
    ):
        """After the fleet drains, every replica's pool balances even
        though some of its cached blocks arrived over the wire: nothing
        resident, nothing pinned, every claimed block returned."""
        cluster = build_cluster(
            pimba_system, zamba_spec, 2,
            router="round-robin", scheduler="prefix",
            max_batch=1, shared_tier=True,
        )
        merged = cluster.serve(corpus).merged()
        assert merged.remote_hit_tokens > 0  # the wire was exercised
        for engine in cluster.replicas:
            pool = engine.scheduler.pool
            assert pool.n_resident == 0
            assert pool.blocks_in_use == 0
            assert pool.allocated_blocks == pool.freed_blocks
            assert pool.cache.pinned_blocks == 0
            assert pool.cache.cached_blocks == pool.cache.n_blocks

    def test_serial_and_process_pool_runs_agree(self):
        """The tier's one-directional visibility keeps the sweep's cells
        independent of executor shape."""
        spec = cross_replica_prefix_spec(smoke=True)
        serial = Runner(use_cache=False, max_workers=1).run(spec)
        fanned = Runner(use_cache=False, max_workers=2).run(spec)
        assert serial.values == fanned.values
        assert any(
            v.get("remote_hit_tokens", 0) > 0 for v in serial.values
        )
