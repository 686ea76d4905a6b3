"""Cluster engine: 1-replica bit-exactness, merging, scaling, determinism."""

import dataclasses

import pytest

from repro.experiments import Runner
from repro.models import spec_for
from repro.perf.system import SystemKind, build_system
from repro.serving import (
    ROUTER_NAMES,
    ClusterReport,
    ReferenceEngine,
    ServingEngine,
    ServingReport,
    SloSpec,
    build_cluster,
    build_scheduler,
    gamma_trace,
    multiturn_chat_trace,
    poisson_trace,
)
from repro.serving.experiments import cluster_slo, cluster_spec, scaling_spec

SLO = SloSpec(ttft_s=2.0, tpot_s=0.018)


def knobs_for(scheduler):
    """Eight slots, and 192-token chunks where the policy chunks."""
    if scheduler in ("chunked", "overlap"):
        return dict(max_batch=8, chunk_budget=192)
    return dict(max_batch=8)


@pytest.fixture(scope="module")
def zamba_spec():
    return spec_for("Zamba2")


@pytest.fixture(scope="module")
def pimba_system():
    return build_system(SystemKind.PIMBA, "small")


class TestSingleReplicaEquivalence:
    """A 1-replica cluster is bit-exact with the bare ServingEngine."""

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    @pytest.mark.parametrize(
        "scheduler",
        ["static", "fcfs", "memory", "chunked", "overlap", "paged"],
    )
    def test_bit_exact_with_bare_engine(
        self, router, scheduler, pimba_system, zamba_spec
    ):
        trace = gamma_trace(10.0, 24, cv=3.0, seed=4)
        knobs = knobs_for(scheduler)
        bare = ServingEngine(
            pimba_system,
            zamba_spec,
            build_scheduler(scheduler, pimba_system, zamba_spec, **knobs),
        ).serve(trace)
        cluster = build_cluster(
            pimba_system, zamba_spec, 1,
            router=router, scheduler=scheduler, **knobs,
        ).serve(trace)
        # The merge is the identity for one replica: every event list,
        # timestamp, and queue statistic is the bare engine's, bit for bit.
        assert cluster.merged() == bare
        assert cluster.report().to_payload(SLO) == {
            **bare.report().to_payload(SLO),
            "router": router,
            "n_replicas": 1,
            "load_imbalance": 1.0,
            "per_replica": cluster.report().to_payload(SLO)["per_replica"],
        }

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    @pytest.mark.parametrize(
        "scheduler",
        ["static", "fcfs", "memory", "chunked", "overlap", "paged", "prefix"],
    )
    def test_sessions_bit_exact_through_serve_and_run(
        self, router, scheduler, pimba_system, zamba_spec
    ):
        """Every scheduler, ``prefix`` included, on a multi-turn trace
        whose turns hit its cache: the raw record, and the streaming
        ``run`` payload every serving trial reports, are the bare
        engine's."""
        trace = multiturn_chat_trace(
            1.0, 8, 4, first_input=512, output_len=32, seed=0
        )
        knobs = knobs_for(scheduler)
        engine = ServingEngine(
            pimba_system,
            zamba_spec,
            build_scheduler(scheduler, pimba_system, zamba_spec, **knobs),
        )
        cluster = build_cluster(
            pimba_system, zamba_spec, 1,
            router=router, scheduler=scheduler, **knobs,
        )
        bare = engine.serve(trace)
        assert (bare.cache_hit_tokens > 0) == (scheduler == "prefix")
        assert cluster.serve(trace).merged() == bare
        assert ServingReport.to_payload(
            cluster.run(trace), SLO
        ) == engine.run(trace).to_payload(SLO)


class TestPagedCluster:
    def test_degenerate_paged_cluster_is_memory_aware_bit_exact(
        self, pimba_system, zamba_spec
    ):
        """The PagedScheduler==MemoryAwareScheduler degeneration (block
        size >= every final context) survives the cluster layer:
        1-replica clusters of the two policies are identical under a
        binding capacity bound."""
        from repro.serving import MemoryModel

        memory = MemoryModel.for_system(pimba_system, zamba_spec)
        capacity = memory.weights_bytes + 3.3 * memory.request_bytes(
            1024, 256
        )
        trace = gamma_trace(10.0, 24, cv=3.0, seed=4)
        conservative = build_cluster(
            pimba_system, zamba_spec, 1,
            scheduler="memory", max_batch=8, capacity_bytes=capacity,
        ).serve(trace)
        paged = build_cluster(
            pimba_system, zamba_spec, 1,
            scheduler="paged", max_batch=8, capacity_bytes=capacity,
            block_size=max(r.input_len + r.output_len for r in trace.requests),
        ).serve(trace)
        assert paged.merged() == conservative.merged()

    def test_preemptions_merge_across_replicas(
        self, pimba_system, zamba_spec
    ):
        """Per-replica preemption counts sum into the cluster report."""
        from repro.serving import MemoryModel

        from repro.serving import fixed_lengths

        memory = MemoryModel.for_system(pimba_system, zamba_spec)
        capacity = memory.weights_bytes + 4 * memory.request_bytes(128, 512)
        trace = poisson_trace(40.0, 32, fixed_lengths(128, 512), seed=1)
        run = build_cluster(
            pimba_system, zamba_spec, 2,
            router="round-robin", scheduler="paged",
            max_batch=64, capacity_bytes=capacity, block_size=64,
        ).serve(trace)
        active = [t for t in run.replicas if t is not None]
        assert sum(t.preemptions for t in active) > 0
        assert run.merged().preemptions == sum(
            t.preemptions for t in active
        )
        assert run.report().n_preemptions == run.merged().preemptions


class TestClusterMerge:
    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_every_request_served_exactly_once(
        self, router, pimba_system, zamba_spec
    ):
        trace = poisson_trace(20.0, 40, seed=0)
        cluster = build_cluster(
            pimba_system, zamba_spec, 3, router=router, max_batch=8
        )
        merged = cluster.serve(trace).merged()
        assert sorted(t.request_id for t in merged.timings) == list(range(40))
        report = cluster.run(trace)
        assert report.n_requests == 40
        assert sum(r.n_requests for r in report.per_replica) == 40

    def test_merged_statistics_aggregate_replicas(
        self, pimba_system, zamba_spec
    ):
        trace = poisson_trace(20.0, 30, seed=1)
        run = build_cluster(
            pimba_system, zamba_spec, 3, router="round-robin", max_batch=8
        ).serve(trace)
        active = [t for t in run.replicas if t is not None]
        merged = run.merged()
        assert len(merged.iteration_seconds) == sum(
            len(t.iteration_seconds) for t in active
        )
        assert merged.max_queue_depth == max(t.max_queue_depth for t in active)
        assert merged.start_s == min(t.start_s for t in active)
        assert merged.end_s == max(t.end_s for t in active)

    def test_idle_replicas_report_zeros(self, pimba_system, zamba_spec):
        """More replicas than requests: the surplus nodes stay idle but
        still appear in the breakdown (a fleet you pay for, unused)."""
        trace = poisson_trace(5.0, 2, seed=0)
        report = build_cluster(
            pimba_system, zamba_spec, 4, router="round-robin"
        ).run(trace)
        idle = [r for r in report.per_replica if r.n_requests == 0]
        assert len(idle) == 2
        assert all(r.assigned_tokens == 0 for r in idle)
        assert report.load_imbalance == pytest.approx(2.0)  # 2 of 4 loaded

    def test_report_is_a_serving_report(self, pimba_system, zamba_spec):
        """ClusterReport extends ServingReport: everything the single-node
        analysis code reads (percentiles, goodput) keeps working."""
        report = build_cluster(
            pimba_system, zamba_spec, 2, router="affinity"
        ).run(poisson_trace(10.0, 12, seed=2))
        assert isinstance(report, ClusterReport)
        assert report.ttft_percentile(50) <= report.ttft_percentile(99)
        assert report.goodput(SLO) <= report.completed_per_s
        payload = report.to_payload(SLO)
        assert payload["n_replicas"] == 2
        assert len(payload["per_replica"]) == 2

    def test_router_mismatch_rejected(self, pimba_system, zamba_spec):
        from repro.serving import ClusterEngine, RoundRobinRouter

        engine = ServingEngine(
            pimba_system,
            zamba_spec,
            build_scheduler("fcfs", pimba_system, zamba_spec),
        )
        with pytest.raises(ValueError, match="router expects"):
            ClusterEngine([engine, engine], RoundRobinRouter(3))


class TestScaling:
    def test_goodput_grows_with_replicas_under_least_loaded(
        self, pimba_system, zamba_spec
    ):
        """The acceptance shape of the scaling figure, in miniature: under
        saturating load, every added replica converts queueing delay into
        SLO-meeting completions."""
        trace = poisson_trace(64.0, 64, seed=0, lengths=None)
        goodputs = [
            build_cluster(
                pimba_system, zamba_spec, n,
                router="least-loaded", max_batch=8,
            )
            .run(trace)
            .goodput(SLO)
            for n in (1, 2, 4)
        ]
        assert goodputs[0] < goodputs[1] < goodputs[2]

    def test_tail_latency_shrinks_with_replicas(
        self, pimba_system, zamba_spec
    ):
        trace = poisson_trace(64.0, 64, seed=0)
        p99 = [
            build_cluster(
                pimba_system, zamba_spec, n,
                router="least-loaded", max_batch=8,
            )
            .run(trace)
            .ttft_percentile(99)
            for n in (1, 4)
        ]
        assert p99[1] < p99[0]


class TestDeterminism:
    """Identical seeds and traces -> identical reports, everywhere."""

    def test_repeated_runs_identical(self, pimba_system, zamba_spec):
        def run():
            return build_cluster(
                pimba_system, zamba_spec, 3,
                router="least-loaded", max_batch=8,
            ).run(poisson_trace(24.0, 32, seed=9))

        a, b = run(), run()
        assert a.to_payload(SLO) == b.to_payload(SLO)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_reused_engine_routes_like_a_fresh_one(
        self, router, pimba_system, zamba_spec
    ):
        """serve() resets router state, so a warmed-up cluster assigns a
        trace identically to a brand-new one (stateful policies like
        round-robin would otherwise carry their cursor across runs)."""
        trace = poisson_trace(24.0, 24, seed=5)
        cluster = build_cluster(
            pimba_system, zamba_spec, 3, router=router, max_batch=8
        )
        first = cluster.serve(trace)
        second = cluster.serve(trace)
        assert first.assignments == second.assignments
        assert second.merged() == first.merged()

    def test_reused_prefix_cluster_serves_like_a_fresh_one(
        self, pimba_system, zamba_spec
    ):
        """Each run also starts from cold prefix caches, zeroed pool
        counters and an empty shared-tier directory: a second run
        neither hits the first run's warm blocks nor reports its
        totals."""
        trace = multiturn_chat_trace(
            1.0, 8, turns=4, first_input=512, output_len=32, seed=0
        )

        def cluster():
            return build_cluster(
                pimba_system, zamba_spec, 2, router="cache-aware",
                scheduler="prefix", max_batch=64, shared_tier=True,
            )

        fresh = cluster().serve(trace).merged()
        assert fresh.cache_hit_tokens > 0 and fresh.kv_transfers > 0
        reused = cluster()
        first = reused.serve(trace)
        second = reused.serve(trace)
        assert first.merged() == fresh
        assert second.merged() == fresh
        assert reused.run(trace) == cluster().run(trace)

    @pytest.mark.parametrize("engine_cls", [ServingEngine, ReferenceEngine])
    def test_reused_prefix_engine_serves_like_a_fresh_one(
        self, engine_cls, pimba_system, zamba_spec
    ):
        """The bare engine (and the scalar reference) reset the
        scheduler's per-run state as each serve starts."""
        trace = multiturn_chat_trace(
            1.0, 8, turns=4, first_input=512, output_len=32, seed=0
        )
        engine = engine_cls(
            pimba_system,
            zamba_spec,
            build_scheduler("prefix", pimba_system, zamba_spec, max_batch=64),
        )
        first = engine.serve(trace)
        second = engine.serve(trace)
        assert first.cache_hit_tokens > 0
        assert second == first

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_trial_function_is_pure(self, router):
        kwargs = dict(
            replicas=3, router=router, n_requests=24,
            input_len=256, output_len=32, max_batch=4,
        )
        assert cluster_slo("Pimba", 24.0, **kwargs) == cluster_slo(
            "Pimba", 24.0, **kwargs
        )

    def test_process_pool_fanout_matches_serial(self, tmp_path):
        """The cluster sweep is reproducible across ProcessPoolExecutor
        workers: a parallel uncached run returns byte-identical values to
        a serial uncached run (routers hash with SHA, never Python's
        seed-randomized ``hash``) — for the prefill-shaping schedulers
        too."""
        spec = cluster_spec().with_axes(
            replicas=(1, 2), router=("round-robin", "affinity"),
            scheduler=("fcfs", "chunked", "overlap"),
        )
        spec = dataclasses.replace(
            spec,
            fixed={**spec.fixed, "n_requests": 16, "qps": 16.0},
        )
        serial = Runner(use_cache=False, max_workers=1).run(spec)
        parallel = Runner(use_cache=False, max_workers=4).run(spec)
        assert len(serial) == len(parallel) == 12
        assert serial.values == parallel.values


class TestClusterSweepSpecs:
    def test_smoke_grids_are_tiny(self):
        assert len(cluster_spec(smoke=True)) == 2
        assert len(scaling_spec(smoke=True)) == 2

    def test_full_grids_cover_routers(self):
        full = cluster_spec()
        assert set(full.axes["router"]) == set(ROUTER_NAMES)
        assert 1 in full.axes["replicas"]  # the equivalence anchor
        assert {"chunked", "overlap"} <= set(full.axes["scheduler"])
        assert set(scaling_spec().axes["router"]) == set(ROUTER_NAMES)
