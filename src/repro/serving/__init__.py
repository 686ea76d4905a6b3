"""Request-level serving simulator: traces, continuous batching, SLOs.

The layer between the paper's fixed-shape evaluation and production
traffic.  A :class:`~repro.workloads.requests.Trace` of timed requests
(seeded Poisson/Gamma arrivals, long-tailed lengths, or a replayed JSON
file) is served by a discrete-event :class:`ServingEngine` that prices
every prefill and decode iteration on a
:class:`~repro.perf.system.ServingSystem`, under a pluggable batching
policy (static, FCFS continuous, HBM-capacity-aware, vLLM-style paged
KV with preempt/restore, or SGLang-style prefix reuse on top of it).
FCFS and capacity-aware admission also shape prefill: Sarathi-style
chunked prefill or NeuPIMs-style prefill/decode overlap.  The outcome is a
:class:`ServingReport`: TTFT/TPOT/latency percentiles, queue depths,
preemption counts, throughput, and goodput under an SLO.

See ``docs/ARCHITECTURE.md`` for the request lifecycle walkthrough, the
scheduler selection table, and the bit-exactness lattice relating the
policies to each other.

The cluster layer (:mod:`repro.serving.cluster` /
:mod:`repro.serving.routing`) scales this to a data-parallel fleet: a
:class:`ClusterEngine` drives N independent engine replicas behind a
front-end router (round-robin, least-loaded, session-affinity hashing,
or cache-aware least-backlog) and merges their events into one report
with per-replica breakdowns; a :class:`SharedPrefixTier` optionally
joins the replicas' prefix pools so session history published on one
node can be pulled by another over a priced interconnect; the shipped
trace corpus (:mod:`repro.serving.corpus`) provides replayable
bursty/steady request streams under ``traces/``.
"""

from repro.serving.arrivals import (
    LengthSampler,
    empirical_lengths,
    fixed_lengths,
    gamma_trace,
    load_trace,
    lognormal_lengths,
    multiturn_chat_trace,
    poisson_trace,
    save_trace,
    static_trace,
)
from repro.serving.cluster import (
    ClusterEngine,
    ClusterReport,
    ClusterTrace,
    ReplicaStats,
    build_cluster,
)
from repro.serving._reference import ReferenceEngine
from repro.serving.costs import DEFAULT_LINK_GBPS, IterationCostModel, ReplicaPrices
from repro.serving.engine import EngineTrace, ServingEngine
from repro.serving.memory import (
    BlockPool,
    MemoryModel,
    PrefixBlockPool,
    PrefixCache,
    SharedPrefixTier,
    validate_capacity,
)
from repro.serving.routing import (
    PHASE_NAMES,
    ROUTER_NAMES,
    AffinityRouter,
    CacheAwareRouter,
    DisaggregatedRouter,
    LeastOutstandingRouter,
    RoundRobinRouter,
    Router,
    build_router,
    load_imbalance,
)
from repro.serving.metrics import (
    DEFAULT_SKETCH_CAPACITY,
    DepthSketch,
    EngineCounters,
    EngineStats,
    RequestStats,
    RequestTiming,
    ServingReport,
    SloSpec,
    percentile,
)
from repro.serving.slots import SlotView
from repro.serving.telemetry import (
    Collector,
    Timeline,
    TimelineCollector,
    Track,
    validate_trace_events,
    write_trace_file,
)
from repro.serving.schedulers import (
    POLICY_KNOBS,
    SCHEDULER_NAMES,
    FcfsContinuousScheduler,
    MemoryAwareScheduler,
    PagedScheduler,
    PrefixCachingScheduler,
    RunningRequest,
    Scheduler,
    StaticBatchScheduler,
    build_scheduler,
)

__all__ = [
    "LengthSampler",
    "empirical_lengths",
    "fixed_lengths",
    "gamma_trace",
    "load_trace",
    "lognormal_lengths",
    "multiturn_chat_trace",
    "poisson_trace",
    "save_trace",
    "static_trace",
    "DEFAULT_LINK_GBPS",
    "IterationCostModel",
    "ReplicaPrices",
    "EngineTrace",
    "ReferenceEngine",
    "ServingEngine",
    "SlotView",
    "ClusterEngine",
    "ClusterReport",
    "ClusterTrace",
    "ReplicaStats",
    "build_cluster",
    "PHASE_NAMES",
    "ROUTER_NAMES",
    "AffinityRouter",
    "CacheAwareRouter",
    "DisaggregatedRouter",
    "LeastOutstandingRouter",
    "RoundRobinRouter",
    "Router",
    "build_router",
    "load_imbalance",
    "DEFAULT_SKETCH_CAPACITY",
    "DepthSketch",
    "Collector",
    "Timeline",
    "TimelineCollector",
    "Track",
    "validate_trace_events",
    "write_trace_file",
    "EngineCounters",
    "EngineStats",
    "RequestStats",
    "RequestTiming",
    "ServingReport",
    "SloSpec",
    "percentile",
    "BlockPool",
    "FcfsContinuousScheduler",
    "MemoryAwareScheduler",
    "MemoryModel",
    "PagedScheduler",
    "PrefixBlockPool",
    "PrefixCache",
    "PrefixCachingScheduler",
    "SharedPrefixTier",
    "RunningRequest",
    "POLICY_KNOBS",
    "SCHEDULER_NAMES",
    "Scheduler",
    "StaticBatchScheduler",
    "build_scheduler",
    "validate_capacity",
]
