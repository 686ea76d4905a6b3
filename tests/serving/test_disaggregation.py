"""Disaggregation degeneracies: the split machinery must cost nothing
when it is switched off, and the wire must only ever price the handoff.

Three collapses pin the feature to the PR-9 cluster it grew out of:

* a "heterogeneous" fleet whose node kinds are all identical and whose
  phases are all ``both`` is EngineTrace-bit-exact with the plain
  homogeneous cluster under every router — the node-kind and phase
  plumbing is pure bookkeeping until it is actually exercised;
* the disaggregated router degenerates to a working colocated router:
  on an all-``both`` fleet it never splits, and on one replica it is
  bit-exact with the bare engine;
* an infinite link prices the handoff at exactly zero seconds, and a
  finite link's cost lands entirely *after* the first token: per-request
  TTFT is bit-equal between inf-link and finite-link runs of the same
  split fleet, only completion times move.

Every router estimate and handoff charge reads one ``ReplicaPrices`` per
replica, so the router scores exactly the handoff the cluster charges,
from the destination replica's own prices.
"""

import dataclasses

import pytest

from repro.models import spec_for
from repro.perf.system import SystemKind, build_system
from repro.serving import (
    ROUTER_NAMES,
    ServingEngine,
    build_cluster,
    build_scheduler,
    fixed_lengths,
    gamma_trace,
    lognormal_lengths,
    poisson_trace,
)
from repro.serving.costs import IterationCostModel
from repro.serving.experiments import parse_fleet


@pytest.fixture(scope="module")
def zamba_spec():
    return spec_for("Zamba2")


@pytest.fixture(scope="module")
def pimba_system():
    return build_system(SystemKind.PIMBA, "small")


@pytest.fixture(scope="module")
def gpu_system():
    return build_system(SystemKind.GPU, "small")


def split_cluster(gpu, pimba, spec, link_gbps):
    """The canonical 4-node split fleet: GPU prefill, Pimba decode."""
    return build_cluster(
        gpu, spec, 4,
        router="disaggregated",
        scheduler="fcfs",
        max_batch=8,
        link_gbps=link_gbps,
        node_kinds=(gpu, gpu, pimba, pimba),
        phases=("prefill", "prefill", "decode", "decode"),
    )


class TestHomogeneousDegeneracy:
    """Identical kinds + all-``both`` phases == the plain cluster."""

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_bit_exact_under_every_router(
        self, router, pimba_system, zamba_spec
    ):
        trace = gamma_trace(10.0, 24, cv=3.0, seed=4)
        plain = build_cluster(
            pimba_system, zamba_spec, 3,
            router=router, scheduler="fcfs", max_batch=8,
        ).serve(trace)
        hetero = build_cluster(
            pimba_system, zamba_spec, 3,
            router=router, scheduler="fcfs", max_batch=8,
            node_kinds=(pimba_system,) * 3,
            phases=("both",) * 3,
        ).serve(trace)
        assert hetero.assignments == plain.assignments
        for ours, theirs in zip(hetero.replicas, plain.replicas):
            if ours is None or theirs is None:
                assert ours is None and theirs is None
                continue
            assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)
        assert not hetero.split_ids
        assert hetero.stitched == ()

    def test_disaggregated_router_never_splits_all_both(
        self, pimba_system, zamba_spec
    ):
        """With wire costs > 0 a colocated lifecycle always beats the
        same lifecycle plus a priced handoff, so an all-``both`` fleet
        under the disaggregated router stays whole."""
        trace = poisson_trace(12.0, 32, fixed_lengths(256, 32), seed=7)
        record = build_cluster(
            pimba_system, zamba_spec, 3,
            router="disaggregated", scheduler="fcfs", max_batch=8,
        ).serve(trace)
        assert not record.split_ids
        assert record.merged().handoffs == 0

    def test_one_replica_is_the_bare_engine(self, pimba_system, zamba_spec):
        trace = gamma_trace(10.0, 24, cv=3.0, seed=4)
        bare = ServingEngine(
            pimba_system, zamba_spec,
            build_scheduler("fcfs", pimba_system, zamba_spec, max_batch=8),
        ).serve(trace)
        cluster = build_cluster(
            pimba_system, zamba_spec, 1,
            router="disaggregated", scheduler="fcfs", max_batch=8,
        ).serve(trace)
        assert cluster.merged() == bare


class TestFleetPhases:
    """The router owns a fleet's phases; ``build_cluster`` checks them."""

    def test_cluster_reads_the_router_phases(
        self, gpu_system, pimba_system, zamba_spec
    ):
        split = split_cluster(gpu_system, pimba_system, zamba_spec, 400.0)
        assert split.phases == split.router.phases
        assert split.phases == ("prefill", "prefill", "decode", "decode")
        assert split.split
        plain = build_cluster(pimba_system, zamba_spec, 2, phases=("both",) * 2)
        assert plain.phases == plain.router.phases == ("both", "both")
        assert not plain.split

    @pytest.mark.parametrize("router", [*ROUTER_NAMES, "disaggregated"])
    def test_a_misspelled_phase_is_named(self, router, pimba_system, zamba_spec):
        with pytest.raises(ValueError, match=r"unknown phase\(s\) \['prefil'\]"):
            build_cluster(
                pimba_system, zamba_spec, 2,
                router=router, phases=("prefil", "decode"),
            )

    @pytest.mark.parametrize("router", [*ROUTER_NAMES, "disaggregated"])
    def test_one_phase_per_replica(self, router, pimba_system, zamba_spec):
        with pytest.raises(ValueError, match="got 3 phases for 2 replicas"):
            build_cluster(
                pimba_system, zamba_spec, 2, router=router, phases=("both",) * 3
            )

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_classic_routers_refuse_a_split(self, router, pimba_system, zamba_spec):
        with pytest.raises(ValueError, match="need router='disaggregated'"):
            build_cluster(
                pimba_system, zamba_spec, 2,
                router=router, phases=("prefill", "decode"),
            )


class TestZeroCostLink:
    """``link_gbps=inf`` prices the handoff at exactly zero."""

    def test_transfer_seconds_is_exactly_zero(self, pimba_system, zamba_spec):
        cost = IterationCostModel(
            pimba_system, zamba_spec, link_gbps=float("inf")
        )
        assert cost.transfer_seconds(0.0) == 0.0
        assert cost.transfer_seconds(1.0e12) == 0.0

    def test_nonpositive_link_rejected(self, pimba_system, zamba_spec):
        with pytest.raises(ValueError):
            IterationCostModel(pimba_system, zamba_spec, link_gbps=0.0)
        with pytest.raises(ValueError):
            IterationCostModel(pimba_system, zamba_spec, link_gbps=-1.0)

    def test_wire_cost_never_touches_first_tokens(
        self, gpu_system, pimba_system, zamba_spec
    ):
        """The handoff is priced into the decode half only: the same
        split fleet over an infinite vs a slow finite link produces
        bit-equal per-request TTFTs, completion never improves under
        the finite wire, and the TTFT ordering is identical."""
        trace = poisson_trace(8.0, 32, fixed_lengths(1024, 64), seed=11)
        free = split_cluster(
            gpu_system, pimba_system, zamba_spec, float("inf")
        ).serve(trace)
        priced = split_cluster(
            gpu_system, pimba_system, zamba_spec, 25.0
        ).serve(trace)
        assert len(free.split_ids) == len(trace.requests)
        assert free.split_ids == priced.split_ids
        free_t = {t.request_id: t for t in free.merged().timings}
        priced_t = {t.request_id: t for t in priced.merged().timings}
        for rid, ours in free_t.items():
            theirs = priced_t[rid]
            assert ours.first_token_s == theirs.first_token_s
            assert ours.admitted_s == theirs.admitted_s
            assert ours.finished_s <= theirs.finished_s
        order = sorted(free_t, key=lambda r: (free_t[r].first_token_s, r))
        assert order == sorted(
            priced_t, key=lambda r: (priced_t[r].first_token_s, r)
        )
        assert free.merged().handoff_bytes == priced.merged().handoff_bytes
        assert free.merged().handoffs == priced.merged().handoffs


class TestOnePriceSource:
    """Routers and the cluster read the same per-replica prices."""

    @pytest.mark.parametrize(
        "fleet", ["GPU:prefill,Pimba:decode", "Pimba:prefill,GPU:decode"]
    )
    def test_router_scores_the_handoff_the_cluster_charges(self, fleet, zamba_spec):
        kinds, phases = parse_fleet(fleet, "small")
        cluster = build_cluster(
            kinds[0], zamba_spec, 2,
            router="disaggregated", scheduler="fcfs", max_batch=8,
            link_gbps=400.0, node_kinds=kinds, phases=phases,
        )
        trace = poisson_trace(6.0, 40, lognormal_lengths(1024, 64, 0.5), seed=3)
        record = cluster.serve(trace)
        assert record.split_ids
        originals = {r.request_id: r for r in trace.requests}
        decode = record.replicas[1]
        assert decode.handoffs == len(decode.timings) == len(record.split_ids)
        assert decode.handoff_bytes == sum(
            cluster.prices[1].handoff_bytes(originals[t.request_id].input_len)
            for t in decode.timings
        )
        scored, charged = cluster.router.prices[1], cluster.prices[1]
        for request in trace.requests:
            assert scored.handoff_seconds(request.input_len) == charged.handoff_seconds(
                request.input_len
            )

    def test_each_replica_is_scored_with_its_own_costs(
        self, gpu_system, pimba_system, zamba_spec
    ):
        cluster = build_cluster(
            gpu_system, zamba_spec, 2,
            router="least-loaded", node_kinds=(gpu_system, pimba_system),
        )
        trace = poisson_trace(6.0, 20, lognormal_lengths(1024, 256, 0.5), seed=5)
        for request in trace.requests:
            solo = []
            for prices, engine in zip(cluster.router.prices, cluster.replicas):
                cost = engine.cost
                mid_context = request.input_len + request.output_len // 2
                expected = cost.prefill_seconds(
                    1, request.input_len
                ) + request.output_len * cost.decode_seconds(1, mid_context)
                assert (
                    prices.service(request.input_len, request.output_len) == expected
                )
                solo.append(expected)
            assert solo[0] != solo[1]
