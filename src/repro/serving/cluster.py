"""Data-parallel cluster serving: N engine replicas behind a router.

The paper evaluates one accelerator node; a production fleet is many such
nodes behind a front end.  :class:`ClusterEngine` models exactly that
composition — each replica is a full
:class:`~repro.serving.engine.ServingEngine` with its own scheduler, HBM
budget, and clock, and a :class:`~repro.serving.routing.Router` pins every
arriving request to one replica *before* any scheduler sees it.  Replicas
never steal work from each other (there is no global queue), so routing
quality shows up directly as per-node queueing: an unlucky policy leaves
one replica saturated while others idle, and the merged tail latencies
pay for it.

The merged outcome is an ordinary
:class:`~repro.serving.metrics.ServingReport`, extended with per-replica
breakdowns and a load-imbalance figure — and a single-replica cluster is
*bit-exact* with the bare engine (any router is the identity on one
replica; the merge returns the lone replica's record untouched, which the
equivalence tests pin down).

The routers score, and the cluster charges KV handoffs and prices the
shared tier, from one :class:`~repro.serving.costs.ReplicaPrices` per
replica, so a router predicts what the cluster charges.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.models.config import ModelSpec
from repro.perf.system import ServingSystem
from repro.serving.costs import DEFAULT_LINK_GBPS, ReplicaPrices
from repro.serving.engine import EngineTrace, ServingEngine
from repro.serving.memory import SharedPrefixTier
from repro.serving.metrics import (
    EngineStats,
    RequestTiming,
    ServingReport,
    SloSpec,
    merge_runs,
)

if TYPE_CHECKING:  # telemetry stays optional at runtime
    from repro.serving.telemetry import Collector
from repro.serving.routing import (
    DisaggregatedRouter,
    Router,
    build_router,
    load_imbalance,
    validate_phases,
)
from repro.serving.schedulers import PrefixCachingScheduler, build_scheduler
from repro.workloads.requests import Request, TimedRequest, Trace


@dataclasses.dataclass(frozen=True)
class ReplicaStats:
    """One replica's share of a cluster run (idle replicas report zeros).

    Holds the replica's streaming :class:`EngineStats` rather than its
    full event record, so a cluster run's per-replica breakdown costs
    O(sketch capacity) per node regardless of how many requests each
    node served.
    """

    replica: int
    stats: EngineStats | None

    @property
    def n_requests(self) -> int:
        return 0 if self.stats is None else self.stats.requests.n

    @property
    def assigned_tokens(self) -> int:
        """Total input+output tokens routed to this replica (its load)."""
        if self.stats is None:
            return 0
        requests = self.stats.requests
        return requests.prompt_tokens + requests.generated_tokens

    def to_payload(self, slo: SloSpec | None = None) -> dict:
        payload: dict = {
            "replica": self.replica,
            "n_requests": self.n_requests,
            "assigned_tokens": self.assigned_tokens,
        }
        if self.stats is not None:
            report = self.stats.report()
            payload.update(
                makespan_s=report.makespan_s,
                mean_queue_depth=report.mean_queue_depth,
                max_queue_depth=report.max_queue_depth,
                ttft_p99_s=report.ttft_percentile(99),
            )
            if slo is not None:
                payload["goodput_rps"] = report.goodput(slo)
        return payload


@dataclasses.dataclass(frozen=True)
class ClusterReport(ServingReport):
    """A merged :class:`ServingReport` plus the per-replica view."""

    router: str
    per_replica: tuple[ReplicaStats, ...]
    #: phase per replica (the router's, all ``both`` unless disaggregated)
    phases: tuple[str, ...] = dataclasses.field(kw_only=True)

    @property
    def n_replicas(self) -> int:
        return len(self.per_replica)

    @property
    def load_imbalance(self) -> float:
        """Max-over-mean assigned tokens across replicas (1.0 = even)."""
        return load_imbalance([r.assigned_tokens for r in self.per_replica])

    @property
    def disaggregated(self) -> bool:
        """Whether any replica was phase-restricted this run."""
        return any(phase != "both" for phase in self.phases)

    def _side_utilization(self, want_decode: bool) -> float:
        """Mean busy fraction over one side of a phase-split fleet.

        A replica's busy fraction is ``busy_s / makespan_s`` — the share
        of its active span it spent pricing work rather than idling on
        an empty queue.  Replicas that never dispatched count as 0.0
        (an idle node is utilization the fleet paid for); an empty side
        is NaN rather than a misleading zero.
        """
        fractions: list[float] = []
        for entry, phase in zip(self.per_replica, self.phases):
            if (phase == "decode") != want_decode:
                continue
            stats = entry.stats
            if stats is None or stats.makespan_s <= 0:
                fractions.append(0.0)
            else:
                fractions.append(stats.busy_s / stats.makespan_s)
        if not fractions:
            return float("nan")
        return sum(fractions) / len(fractions)

    @property
    def prefill_utilization(self) -> float:
        """Mean busy fraction of prefill-capable replicas (``both`` too)."""
        return self._side_utilization(want_decode=False)

    @property
    def decode_utilization(self) -> float:
        """Mean busy fraction of decode-only replicas."""
        return self._side_utilization(want_decode=True)

    def to_payload(self, slo: SloSpec | None = None) -> dict:
        payload = super().to_payload(slo)
        payload["router"] = self.router
        payload["n_replicas"] = self.n_replicas
        payload["load_imbalance"] = self.load_imbalance
        if self.disaggregated:
            # Emitted only for phase-split fleets so colocated payloads
            # stay byte-identical to pre-disaggregation runs.
            payload["phases"] = list(self.phases)
            payload["prefill_utilization"] = self.prefill_utilization
            payload["decode_utilization"] = self.decode_utilization
        payload["per_replica"] = [
            r.to_payload(slo) for r in self.per_replica
        ]
        return payload

    @classmethod
    def assemble(
        cls,
        merged: EngineStats,
        router: str,
        phases: tuple[str, ...],
        per_replica: Sequence[EngineStats | None],
    ) -> "ClusterReport":
        """The cluster report of ``merged`` plus each replica's stats."""
        report = merged.report()
        # Shallow field copy (asdict would recurse into RequestTiming).
        fields = {
            f.name: getattr(report, f.name)
            for f in dataclasses.fields(ServingReport)
        }
        return cls(
            **fields,
            router=router,
            phases=phases,
            per_replica=tuple(
                ReplicaStats(replica=i, stats=s)
                for i, s in enumerate(per_replica)
            ),
        )


@dataclasses.dataclass(frozen=True)
class ClusterTrace:
    """Raw outcome of one cluster run: who went where, what each node did."""

    assignments: tuple[int, ...]  #: replica index per trace request
    replicas: tuple[EngineTrace | None, ...]  #: ``None`` = never dispatched
    router: str
    #: phase per replica (the router's, all ``both`` unless disaggregated)
    phases: tuple[str, ...]
    #: whole-lifecycle timings of split requests; their per-replica
    #: half-timings are dropped by :meth:`merged` in favour of these
    stitched: tuple[RequestTiming, ...] = ()
    #: request ids that ran as a prefill half plus a decode half
    split_ids: frozenset[int] = frozenset()

    def merged(self) -> EngineTrace:
        """All replicas' events folded into one engine-level record.

        With one active replica (and no split requests) this returns its
        record *unchanged* — the bit-exactness guarantee of the 1-replica
        equivalence.  With many, timings re-sort by request id, event
        lists concatenate in replica order, and the time-weighted queue
        depth is re-averaged over the cluster-wide span (per-replica
        depth areas add; spans overlap).  Split requests contribute their
        stitched whole-lifecycle timing instead of two half-timings.
        """
        active = [t for t in self.replicas if t is not None]
        if not active:
            # Empty trace: nothing was dispatched anywhere.  Fold to the
            # bare engine's empty record, not an error, so the cluster
            # and the engine agree on the degenerate input too.
            return EngineTrace.empty()
        if len(active) == 1 and not self.split_ids:
            return active[0]
        timings: list[RequestTiming] = [
            t
            for trace in active
            for t in trace.timings
            if t.request_id not in self.split_ids
        ]
        timings.extend(self.stitched)
        timings.sort(key=lambda t: t.request_id)
        return EngineTrace(
            timings=tuple(timings),
            iteration_seconds=tuple(
                s for t in active for s in t.iteration_seconds
            ),
            decode_tokens=tuple(
                n for t in active for n in t.decode_tokens
            ),
            prefill_seconds=tuple(
                s for t in active for s in t.prefill_seconds
            ),
            prefill_tokens=tuple(
                n for t in active for n in t.prefill_tokens
            ),
            **merge_runs(active),
        )

    def report(self) -> ClusterReport:
        return ClusterReport.assemble(
            self.merged().stats(),
            self.router,
            self.phases,
            [None if t is None else t.stats() for t in self.replicas],
        )


class ClusterEngine:
    """Drives N independent serving replicas behind a front-end router.

    Composition, not simulation glue: each replica is a complete
    :class:`~repro.serving.engine.ServingEngine` with its own scheduler
    state (slots, HBM ledger, block pool), its own clock, and its own
    event record; the router fixes the request→replica mapping for a
    whole trace before any replica runs.  :meth:`serve` returns the raw
    :class:`ClusterTrace` (assignments + per-replica
    :class:`~repro.serving.engine.EngineTrace`\\ s); :meth:`run` merges it
    into a :class:`ClusterReport`.  Because replicas are independent,
    the merge is pure bookkeeping — and the 1-replica merge is the
    identity, which is what makes a 1-replica cluster bit-exact with
    the bare engine under every router and scheduler (tested).  The
    router owns the fleet's phases (:attr:`Router.phases`); a fleet with
    any phase-restricted replica runs the two-stage orchestration.
    :attr:`prices` (one :class:`~repro.serving.costs.ReplicaPrices` per
    replica) charges split-request handoffs and prices the shared tier.
    """

    def __init__(
        self,
        replicas: Sequence[ServingEngine],
        router: Router,
        link_gbps: float = DEFAULT_LINK_GBPS,
    ):
        replicas = tuple(replicas)
        if not replicas:
            raise ValueError("a cluster needs at least one replica")
        if router.n_replicas != len(replicas):
            raise ValueError(
                f"router expects {router.n_replicas} replicas, "
                f"cluster has {len(replicas)}"
            )
        self.replicas = replicas
        self.router = router
        self.phases = router.phases
        self.split = any(phase != "both" for phase in self.phases)
        self.prices = tuple(
            ReplicaPrices(engine.system, engine.spec, link_gbps) for engine in replicas
        )
        #: the shared prefix tier every replica's pool joined, if any
        self.tier: SharedPrefixTier | None = None

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def attach_tier(self) -> None:
        """Join every replica's prefix pool to one shared tier.

        Every replica must run the ``prefix`` scheduler (nothing else
        publishes session prefixes), and all must share one
        node system (a prefix computed in one KV layout cannot be reused
        in another).  The tier prices a pull like a handoff: the first
        replica's :attr:`prices` (its memory and cost models over the
        cluster's ``link_gbps`` wire), at its pool's block size.
        """
        if not all(
            isinstance(engine.scheduler, PrefixCachingScheduler)
            for engine in self.replicas
        ):
            raise ValueError(
                "a shared prefix tier needs the prefix scheduler "
                "(nothing else publishes session prefixes)"
            )
        first = self.replicas[0]
        if any(engine.system is not first.system for engine in self.replicas):
            raise ValueError(
                "a shared prefix tier needs a homogeneous fleet (a prefix "
                "computed in one node kind's KV layout cannot be reused in "
                "another's)"
            )
        prices = self.prices[0]
        tier = SharedPrefixTier(
            prices.memory, first.scheduler.pool.block_size, prices.cost
        )
        for i, engine in enumerate(self.replicas):
            engine.scheduler.pool.attach_tier(tier, i)
        self.tier = tier

    def _reset(self) -> None:
        """A reused engine must route and share like a fresh one."""
        self.router.reset()
        if self.tier is not None:
            # Once per run, before any replica serves: replicas serve in
            # sequence, so a reset per replica would erase the earlier
            # replicas' publishes.
            self.tier.reset()

    def serve(
        self, trace: Trace, collector: "Collector | None" = None
    ) -> ClusterTrace:
        """Route ``trace``, run every dispatched replica, keep the split.

        A ``collector`` forks one child per dispatched replica
        (:meth:`~repro.serving.telemetry.Collector.fork`), so the merged
        timeline keeps one track per node.  Phase-split fleets run the
        two-stage orchestration (:meth:`_serve_split`) instead.
        """
        if self.split:
            return self._serve_split(trace, collector)
        self._reset()
        assignments = self.router.assign(trace)
        parts = trace.partition(assignments)
        return ClusterTrace(
            assignments=assignments,
            replicas=tuple(
                engine.serve(
                    parts[i],
                    None if collector is None else collector.fork(i),
                )
                if i in parts
                else None
                for i, engine in enumerate(self.replicas)
            ),
            router=self.router.name,
            phases=self.phases,
        )

    def _serve_split(
        self, trace: Trace, collector: "Collector | None" = None
    ) -> ClusterTrace:
        """Two-stage prefill/decode orchestration over a split fleet.

        Stage 1 runs every request's prefill half (or, for colocated
        picks, its whole lifetime) on its prefill replica.  Each split
        request then re-arrives at its decode replica the instant its
        first token left the prefill node, carrying its whole prompt KV
        (plus that first token) as precomputed state, charged to the
        destination clock at the decode replica's ``handoff_seconds`` —
        the price the router scored.  Stage 2 runs the decode-only
        replicas on those continuations.  Stage sets are disjoint, so
        every replica still runs exactly once.
        """
        assert isinstance(self.router, DisaggregatedRouter)
        self._reset()
        pairs = self.router.assign_pairs(trace)
        stage1: dict[int, list[TimedRequest]] = {}
        split_pair: dict[int, tuple[int, int]] = {}
        for timed, (prefill, decode) in zip(trace.requests, pairs):
            if prefill == decode or timed.output_len <= 1:
                # Colocated pick — or a one-token request, which finishes
                # at its first token with nothing left to hand off.
                stage1.setdefault(prefill, []).append(timed)
                continue
            split_pair[timed.request_id] = (prefill, decode)
            stage1.setdefault(prefill, []).append(
                TimedRequest(
                    Request(
                        timed.request_id,
                        timed.input_len,
                        1,
                        session_id=timed.request.session_id,
                    ),
                    timed.arrival_s,
                )
            )
        results: list[EngineTrace | None] = [None] * self.n_replicas
        by_request: dict[int, dict[int, RequestTiming]] = {}
        for i, requests in sorted(stage1.items()):
            # Stage-1 parts keep trace order, so arrivals stay sorted.
            results[i] = self.replicas[i].serve(
                Trace(tuple(requests)),
                None if collector is None else collector.fork(i),
            )
            by_request[i] = {
                t.request_id: t for t in results[i].timings
            }
        originals = {t.request_id: t for t in trace.requests}
        stage2: dict[int, list[TimedRequest]] = {}
        for request_id, (prefill, decode) in split_pair.items():
            first = by_request[prefill][request_id]
            original = originals[request_id]
            prices = self.prices[decode]
            stage2.setdefault(decode, []).append(
                TimedRequest(
                    # session_id=None: the decode node holds the KV
                    # in-flight state, not a reusable session prefix.
                    Request(
                        request_id,
                        original.input_len + 1,
                        original.output_len - 1,
                        session_id=None,
                    ),
                    arrival_s=first.first_token_s,
                    prefilled_tokens=original.input_len + 1,
                    handoff_s=prices.handoff_seconds(original),
                    handoff_bytes=prices.handoff_bytes(original),
                )
            )
        for decode, requests in sorted(stage2.items()):
            # Continuations arrive at first-token times, which do not
            # follow trace order — re-sort into a valid arrival stream.
            requests.sort(key=lambda t: (t.arrival_s, t.request_id))
            results[decode] = self.replicas[decode].serve(
                Trace(tuple(requests)),
                None if collector is None else collector.fork(decode),
            )
            by_request[decode] = {
                t.request_id: t for t in results[decode].timings
            }
        stitched: list[RequestTiming] = []
        for request_id in sorted(split_pair):
            prefill, decode = split_pair[request_id]
            first = by_request[prefill][request_id]
            rest = by_request[decode][request_id]
            original = originals[request_id]
            stitched.append(
                RequestTiming(
                    request_id=request_id,
                    input_len=original.input_len,
                    output_len=original.output_len,
                    arrival_s=first.arrival_s,
                    admitted_s=first.admitted_s,
                    first_token_s=first.first_token_s,
                    finished_s=rest.finished_s,
                    preemptions=first.preemptions + rest.preemptions,
                    cached_tokens=first.cached_tokens,
                    remote_tokens=first.remote_tokens,
                )
            )
        return ClusterTrace(
            assignments=tuple(p for p, _ in pairs),
            replicas=tuple(results),
            router=self.router.name,
            phases=self.phases,
            stitched=tuple(stitched),
            split_ids=frozenset(split_pair),
        )

    def run(
        self, trace: Trace, collector: "Collector | None" = None
    ) -> ClusterReport:
        """Serve ``trace`` (streaming) and return the merged report.

        Every replica runs through
        :meth:`~repro.serving.engine.ServingEngine.serve_stats`, so no
        per-event lists are ever materialized — the cluster-wide merge
        adds counters and depth areas and concatenates/resamples the
        per-replica latency reservoirs
        (:meth:`~repro.serving.metrics.EngineStats.merge`).  Below the
        sketch capacity this is bit-identical to
        ``serve(trace).report()``; use :meth:`serve` when the raw event
        record itself is wanted.
        """
        if self.split:
            # Two-stage orchestration needs the raw per-request timings
            # to stitch split lifecycles, so split fleets run through
            # :meth:`serve` and fold afterwards.
            return self._serve_split(trace, collector).report()
        self._reset()
        assignments = self.router.assign(trace)
        parts = trace.partition(assignments)
        stats = tuple(
            engine.serve_stats(
                parts[i], None if collector is None else collector.fork(i)
            )
            if i in parts
            else None
            for i, engine in enumerate(self.replicas)
        )
        active = [s for s in stats if s is not None]
        # Empty trace: same NaN-percentile report the bare engine's
        # streaming path returns for an empty trace.
        merged = EngineStats.merge(active) if active else EngineTrace.empty().stats()
        return ClusterReport.assemble(
            merged, self.router.name, self.phases, stats
        )


def build_cluster(
    system: ServingSystem,
    spec: ModelSpec,
    n_replicas: int,
    router: str = "round-robin",
    scheduler: str = "fcfs",
    shared_tier: bool = False,
    link_gbps: float = DEFAULT_LINK_GBPS,
    node_kinds: Sequence[ServingSystem] | None = None,
    phases: Sequence[str] | None = None,
    **knobs,
) -> ClusterEngine:
    """A cluster of ``n_replicas`` nodes, homogeneous or mixed.

    Every replica gets its *own* scheduler instance (and therefore its own
    HBM reservation ledger under the ``memory`` policy and its own block
    pool under ``paged``): ``scheduler`` and the remaining keyword
    ``knobs`` (``max_batch``, ``capacity_bytes``, ``block_size``, ...)
    are forwarded to :func:`~repro.serving.schedulers.build_scheduler`
    for every replica, which declares them and their defaults.  By
    default all replicas share one node design; ``node_kinds`` (one
    :class:`~repro.perf.system.ServingSystem` per replica) builds a mixed
    fleet instead — e.g. GPU nodes next to PIM nodes.  The router reads
    one :class:`~repro.serving.costs.ReplicaPrices` per replica, built
    from that node's system, so routing and execution price every node
    kind with the same cost model.

    ``phases`` restricts replicas to ``prefill``, ``decode``, or
    ``both`` (the default).  Any restriction requires
    ``router="disaggregated"``, which scores (prefill, decode) replica
    pairs by estimated first-token time *including* the KV handoff the
    cluster charges over the ``link_gbps`` wire and owns the phases; the
    cluster then runs the two-stage orchestration.
    ``router="disaggregated"`` with no ``phases`` makes every replica
    ``both``; the router splits a request only onto a ``decode``
    replica, so such a fleet never splits, however cheap the wire, and
    routes each request whole to the replica with the earliest
    estimated first token.

    ``shared_tier=True`` joins every replica's prefix pool to one
    :class:`~repro.serving.memory.SharedPrefixTier`, pricing cross-replica
    prefix pulls over a ``link_gbps`` interconnect
    (:meth:`ClusterEngine.attach_tier` checks its preconditions).  Left
    ``False`` (the default) every replica is bit-exact with a standalone
    engine.
    """
    if node_kinds is not None:
        systems = tuple(node_kinds)
        if len(systems) != n_replicas:
            raise ValueError(
                f"got {len(systems)} node kinds for {n_replicas} replicas"
            )
    else:
        systems = (system,) * n_replicas
    if phases is not None and router != DisaggregatedRouter.name:
        # The disaggregated router validates its own phases.
        if any(phase != "both" for phase in validate_phases(phases, n_replicas)):
            raise ValueError(
                "phase-restricted replicas need router='disaggregated' "
                "(classic routers cannot pair prefill and decode nodes)"
            )
    replicas = tuple(
        ServingEngine(kind, spec, build_scheduler(scheduler, kind, spec, **knobs))
        for kind in systems
    )
    prices = [ReplicaPrices(kind, spec, link_gbps) for kind in systems]
    if router == DisaggregatedRouter.name:
        router_obj: Router = DisaggregatedRouter(
            prices, phases if phases is not None else ("both",) * n_replicas
        )
    else:
        router_obj = build_router(router, prices)
    cluster = ClusterEngine(replicas, router_obj, link_gbps=link_gbps)
    if shared_tier:
        cluster.attach_tier()
    return cluster
