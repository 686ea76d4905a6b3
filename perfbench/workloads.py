"""The four serving workloads the benchmark runs, built through the public API.

Each workload is one seeded arrival trace served by one configuration:
``build_arrival_trace`` makes the requests, ``build_system`` /
``parse_fleet`` make the nodes, ``build_scheduler`` + ``ServingEngine``
or ``build_cluster`` assemble them, and ``.run(trace)`` serves the trace.
Nothing here reaches into private state except :func:`tier_counters`,
which reads the shared prefix tier's public counters off the cluster.
"""

from __future__ import annotations

import dataclasses
import math
import time

from repro.models import spec_for
from repro.perf import SystemKind, build_system
from repro.serving import experiments
from repro.serving.cluster import build_cluster
from repro.serving.engine import ServingEngine
from repro.serving.schedulers import build_scheduler

MODEL = "Zamba2"
SCALE = "small"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named traffic mix and the fleet that serves it."""

    name: str
    why: str
    #: requests per simulation (the traced doubling check also runs half)
    n_requests: int
    #: ``build_arrival_trace`` arguments other than seed and size
    arrivals: dict
    #: ``parse_fleet`` string; ``None`` serves on one bare engine
    fleet: str | None
    router: str | None
    #: scheduler knobs shared by every node
    serve: dict
    #: ``build_cluster`` extras (shared tier, link bandwidth)
    cluster: dict = dataclasses.field(default_factory=dict)
    #: whether every node's scheduler takes the coalesced decode path
    coalescable: bool = True


def _arrivals(**overrides) -> dict:
    base = dict(
        arrival="poisson",
        cv=2.0,
        length_dist="fixed",
        input_len=128,
        output_len=128,
        sigma=0.5,
    )
    base.update(overrides)
    return base


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="decode-steady",
            why=(
                "bare fcfs engine below saturation: arrivals break every "
                "coalesced run, so engine loop, slots and decode_run dominate"
            ),
            n_requests=6_000,
            arrivals=_arrivals(qps=30.0),
            fleet=None,
            router=None,
            serve=dict(scheduler="fcfs", max_batch=64),
        ),
        Workload(
            name="chat-prefix-fleet",
            why=(
                "4-replica prefix cache with shared tier under binding HBM: "
                "KV ledger writes and tier lookups interleave"
            ),
            n_requests=1_200,
            arrivals=_arrivals(
                arrival="multiturn", qps=6.0, input_len=1024, output_len=64
            ),
            fleet="Pimba,Pimba,Pimba,Pimba",
            router="cache-aware",
            serve=dict(scheduler="prefix", max_batch=512, capacity_gib=10.0),
            cluster=dict(shared_tier=True),
            coalescable=False,
        ),
        Workload(
            name="fleet-least-loaded",
            why=(
                "4-replica fcfs fleet past the knee behind the least-loaded "
                "router, whose in-flight pruning is quadratic in trace length"
            ),
            n_requests=8_000,
            arrivals=_arrivals(qps=1000.0),
            fleet="Pimba,Pimba,Pimba,Pimba",
            router="least-loaded",
            serve=dict(scheduler="fcfs", max_batch=64),
        ),
        Workload(
            name="disagg-split",
            why=(
                "GPU prefill + Pimba decode split fleet on lognormal prompts: "
                "cold perf pricing and two-stage split orchestration"
            ),
            n_requests=1_500,
            arrivals=_arrivals(
                qps=6.0, length_dist="lognormal", input_len=2048
            ),
            fleet="GPU:prefill,GPU:prefill,Pimba:decode,Pimba:decode",
            router="disaggregated",
            serve=dict(scheduler="fcfs", max_batch=8),
            cluster=dict(link_gbps=400.0),
        ),
    )
}


@dataclasses.dataclass
class Simulation:
    """A built trace plus the engine or cluster that will serve it."""

    trace: object
    target: object  #: ServingEngine or ClusterEngine
    setup_s: float

    def run(self):
        return self.target.run(self.trace)


def build(workload: Workload, seed: int, n_requests: int | None = None):
    """Generate the trace and construct the fleet; time both as set-up."""
    t0 = time.perf_counter()
    a = workload.arrivals
    trace = experiments.build_arrival_trace(
        a["qps"],
        n_requests or workload.n_requests,
        seed,
        a["arrival"],
        a["cv"],
        a["length_dist"],
        a["input_len"],
        a["output_len"],
        a["sigma"],
    )
    spec = spec_for(MODEL, SCALE)
    knobs = dict(workload.serve)
    capacity_gib = knobs.pop("capacity_gib", None)
    capacity = None if capacity_gib is None else capacity_gib * 2**30
    if workload.fleet is None:
        system = build_system(SystemKind.PIMBA, SCALE)
        policy = build_scheduler(
            knobs.pop("scheduler"),
            system,
            spec,
            capacity_bytes=capacity,
            **knobs,
        )
        target = ServingEngine(system, spec, policy)
    else:
        kinds, phases = experiments.parse_fleet(workload.fleet, SCALE)
        # One shared system for a homogeneous fleet: the shared prefix
        # tier refuses distinct (even if equal) per-node systems.
        mixed = len({system.kind for system in kinds}) > 1
        target = build_cluster(
            kinds[0],
            spec,
            n_replicas=len(kinds),
            router=workload.router,
            node_kinds=kinds if mixed else None,
            phases=phases,
            capacity_bytes=capacity,
            **knobs,
            **workload.cluster,
        )
    return Simulation(trace, target, time.perf_counter() - t0)


#: the simulated outcome every run is checked against, in print order
OUTCOME_FIELDS = (
    "n_requests",
    "makespan_s",
    "ttft_p50_s",
    "ttft_p99_s",
    "tpot_p99_s",
    "n_iterations",
    "n_prefills",
    "n_preemptions",
    "prefix_cache_hit_rate",
    "kv_transfers",
    "n_handoffs",
)


def outcome(report) -> dict:
    """The simulated result of one run, as JSON-exact numbers."""
    values = {
        "n_requests": report.n_requests,
        "makespan_s": report.makespan_s,
        "ttft_p50_s": report.ttft_percentile(50),
        "ttft_p99_s": report.ttft_percentile(99),
        "tpot_p99_s": report.tpot_percentile(99),
        "n_iterations": report.n_iterations,
        "n_prefills": report.n_prefills,
        "n_preemptions": report.n_preemptions,
        "prefix_cache_hit_rate": report.prefix_cache_hit_rate,
        "kv_transfers": report.kv_transfers,
        "n_handoffs": report.handoffs,
    }
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"outcome {name} is not finite: {value}")
    return values


def events(result: dict) -> int:
    """Simulated events of one run: decode iterations plus prefills."""
    return result["n_iterations"] + result["n_prefills"]


def tier_counters(target) -> tuple[int, int]:
    """(transfers, recomputes) of the cluster's shared prefix tier, if any."""
    for engine in getattr(target, "replicas", ()):
        pool = getattr(engine.scheduler, "pool", None)
        tier = getattr(pool, "tier", None)
        if tier is not None:
            return tier.transfers, tier.recomputes
    return 0, 0
