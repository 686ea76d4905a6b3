"""Serving-simulator trials and sweeps for the experiment engine.

Registers the ``serving_slo`` trial function and the ``serving`` sweep
(the ``latency_throughput`` figure): every evaluated system serves the
same seeded arrival trace, and the cached result carries the full SLO
report — TTFT/TPOT percentiles, queue depths, throughput and goodput — so
latency-throughput curves come straight out of ``repro sweep serving``.

The cluster layer adds ``cluster_slo`` (the same trace served by a
:class:`~repro.serving.cluster.ClusterEngine` of N replicas behind a
router), the ``cluster`` sweep (replicas x router x scheduler grid), and
the ``scaling`` sweep/figure (goodput and TTFT p99 vs replica count, one
curve per router).

Prefill shaping adds the ``chunking`` sweep (chunked vs overlap
schedulers over the chunk-budget grid on GPU and Pimba) and the
``ttft_tradeoff`` sweep/figure: every system serves the same saturating
trace under both prefill-shaping schedulers at every chunk budget, so
the TTFT-p99-vs-TPOT-p99 tradeoff (and where its crossover sits per
system) reads straight off the table.

Paged KV adds the ``preemption_tradeoff`` sweep/figure (full-context
vs block-granular reservation under a tight HBM budget as load rises:
goodput gained from tighter admission vs latency lost to
preempt/restore thrashing) and the ``paged`` sweep (block-size
sensitivity of the paged policy at a fixed capacity-bound load).

Prefix reuse adds the ``prefix_cache`` sweep (the ``prefix_reuse``
figure): paged-without-reuse vs the radix prefix cache over the same
seeded multi-turn chat sessions as the session rate rises, so the
goodput/TTFT win of not re-prefilling shared conversation history —
and the hit rate the perf gate watches — reads off one table.

Observability adds the ``serving_timeline`` trial (``serving_slo`` with
the flight recorder on: the same scalar payload plus a per-window
time-series) and the ``utilization_timeline`` sweep/figure — the
paged-vs-memory face-off rendered window by window, so *when* each
policy wins is visible, not just that it does.  :func:`collect_timeline`
re-runs any serving trial with a recording collector for
``repro trace export``.

The engine itself is benchmarked by the ``wallclock`` trial/sweep: the
vectorized production engine (bare, with telemetry recording, and as a
``least-loaded`` fleet) and the scalar reference serve the same
~100k-request trace under a stopwatch, once per scheduler (``fcfs``,
``paged``, ``prefix``), and CI asserts the speedup floor the vectorized
core was merged at for every scheduler, the telemetry overhead ceiling,
and the fleet-to-bare-engine ceiling.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import pathlib
import re
import time

from repro.experiments.registry import sweep, trial
from repro.experiments.runner import RunReport
from repro.experiments.spec import ExperimentSpec
from repro.models import spec_for
from repro.perf import SystemKind, build_system
from repro.serving.arrivals import (
    fixed_lengths,
    gamma_trace,
    lognormal_lengths,
    load_trace,
    multiturn_chat_trace,
    poisson_trace,
)
from repro.serving import corpus as _corpus
from repro.serving._reference import ReferenceEngine
from repro.serving.cluster import build_cluster
from repro.serving.costs import DEFAULT_LINK_GBPS
from repro.serving.engine import ServingEngine
from repro.serving.metrics import ServingReport, SloSpec
from repro.serving.routing import ROUTER_NAMES
from repro.serving.schedulers import build_scheduler, check_policy_knobs
from repro.serving.telemetry import Collector, Timeline, TimelineCollector
from repro.workloads.requests import Trace

#: all five evaluated systems, in the paper's presentation order
SERVING_SYSTEMS = tuple(kind.value for kind in SystemKind)

#: QPS grid of the latency-throughput sweep: from a lightly loaded cluster
#: to well past the GPU baseline's saturation point (small scale, Zamba2,
#: (1024, 256) requests, 32 slots)
SERVING_QPS_GRID = (2.0, 6.0, 10.0, 14.0)

#: replica-count grid of the cluster sweeps (1 doubles as the equivalence
#: anchor: a 1-replica cluster is bit-exact with the bare engine)
CLUSTER_REPLICA_GRID = (1, 2, 4)

#: the scaling figure's deeper replica axis
SCALING_REPLICA_GRID = (1, 2, 4, 8)

#: chunk-budget axis of the prefill-shaping sweeps, descending from one
#: chunk per prompt (1024 covers the default 1024-token inputs, so the
#: chunked scheduler's first point *is* the blocked FCFS baseline) down
#: to fine-grained chunks
CHUNK_BUDGET_GRID = (1024, 512, 256, 128, 64)

#: the prefill-shaping sweeps run every system under a load where prefill
#: stalls dominate the TTFT tail: admissions are frequent relative to the
#: decode tail, and the slot-bound queue is what a smaller chunk budget
#: (faster slot turnover, no blocked prefills) can actually drain
CHUNKING_LOAD = dict(
    qps=16.0,
    n_requests=64,
    input_len=1024,
    output_len=128,
    max_batch=8,
)


#: turns per session and mean think time between them (seconds) of the
#: ``multiturn`` arrival process
MULTITURN_TURNS = 4
MULTITURN_THINK_S = 4.0


def build_arrival_trace(
    qps: float,
    n_requests: int,
    seed: int,
    arrival: str,
    cv: float,
    length_dist: str,
    input_len: int,
    output_len: int,
    sigma: float,
    trace_file: str | None = None,
    trace_sha: str | None = None,
) -> Trace:
    """The seeded (or replayed) request stream every serving trial uses.

    Shared by the single-node and cluster trials so both serve the
    *identical* workload for identical parameters.  ``trace_file``
    overrides the generator; ``trace_sha`` guards against replaying an
    edited file under a stale cache identity (see :func:`replay_spec`).

    ``arrival="multiturn"`` builds chat sessions instead of independent
    requests: ``qps`` becomes the session-opening rate, ``n_requests``
    must be a multiple of :data:`MULTITURN_TURNS` (sessions × turns, with
    :data:`MULTITURN_THINK_S` seconds of mean think time between turns),
    ``input_len`` is the first turn's prompt (later turns re-send the
    whole conversation, growing the shared prefix), and ``length_dist``
    is ignored — turn lengths come from the session chain itself.
    """
    if trace_file is not None:
        if trace_sha is not None and trace_fingerprint(trace_file) != trace_sha:
            raise ValueError(
                f"{trace_file} no longer matches trace_sha={trace_sha!r}; "
                "rebuild the sweep with replay_spec() to re-key the cache"
            )
        return load_trace(trace_file)
    if arrival == "multiturn":
        if n_requests % MULTITURN_TURNS:
            raise ValueError(
                f"n_requests={n_requests} is not a whole number of "
                f"{MULTITURN_TURNS}-turn sessions"
            )
        return multiturn_chat_trace(
            qps,
            n_requests // MULTITURN_TURNS,
            MULTITURN_TURNS,
            first_input=input_len,
            user_tokens=max(1, input_len // 4),
            output_len=output_len,
            think_s=MULTITURN_THINK_S,
            seed=seed,
        )
    if length_dist == "fixed":
        lengths = fixed_lengths(input_len, output_len)
    elif length_dist == "lognormal":
        lengths = lognormal_lengths(input_len, output_len, sigma)
    else:
        raise KeyError(
            f"unknown length_dist {length_dist!r}; use fixed|lognormal"
        )
    if arrival == "poisson":
        return poisson_trace(qps, n_requests, lengths, seed)
    if arrival == "gamma":
        return gamma_trace(qps, n_requests, cv, lengths, seed)
    raise KeyError(
        f"unknown arrival {arrival!r}; use poisson|gamma|multiturn"
    )


#: trial parameters forwarded to :func:`build_scheduler` by name (trials
#: spell its ``capacity_bytes`` as ``capacity_gib``)
_SCHEDULER_KNOBS = tuple(inspect.signature(build_scheduler).parameters)[3:]


def _check_policy_knobs(p: dict) -> None:
    """Refuse a serving trial whose scheduler cannot use a policy knob it
    sets, naming the knob as the trial spells it (``capacity_gib``).

    Registered with every serving trial, so a sweep or a ``--set`` fails
    before any trial runs; :func:`_serve_trial` checks again, for callers
    that run a trial directly.
    """
    check_policy_knobs(
        p["scheduler"],
        {knob: p[knob] for knob in ("capacity_gib", "chunk_budget", "block_size")},
        spelling={"capacity_gib": "capacity_bytes"},
    )


#: cluster-trial parameters forwarded to :func:`build_cluster` by name
_CLUSTER_KNOBS = ("router", "shared_tier", "link_gbps")


def _serve_trial(
    p: dict, collector: Collector | None = None
) -> tuple[dict, SloSpec]:
    """Serve one serving trial's parameters ``p``; return (payload, slo).

    The one path from serving parameters to a served fleet: every
    serving trial and :func:`collect_timeline` build their trace and
    fleet here, so an exported timeline always comes from the
    configuration the cached metrics did.  A trial without a
    ``replicas`` parameter is single-node: it serves as a 1-replica
    ``round-robin`` cluster (bit-exact with the bare engine, tested) and
    reports only :class:`ServingReport` keys.  ``nodes`` builds the
    fleet from a ``"KIND[:phase],..."`` string (see :func:`parse_fleet`)
    instead of ``system`` x ``replicas``.
    """
    _check_policy_knobs(p)
    trace = build_arrival_trace(
        p["qps"], p["n_requests"], p["seed"], p["arrival"], p["cv"],
        p["length_dist"], p["input_len"], p["output_len"], p["sigma"],
        p["trace_file"], p["trace_sha"],
    )
    slo = SloSpec(ttft_s=p["slo_ttft_s"], tpot_s=p["slo_tpot_s"])
    node_kinds = phases = None
    n_replicas = p.get("replicas", 1)
    if p.get("nodes") is not None:
        node_kinds, phases = parse_fleet(p["nodes"], p["scale"])
        n_replicas = len(node_kinds)
    capacity_gib = p["capacity_gib"]
    cluster = build_cluster(
        build_system(SystemKind(p["system"]), p["scale"]),
        spec_for(p["model"], p["scale"]),
        n_replicas,
        node_kinds=node_kinds,
        phases=phases,
        scheduler=p["scheduler"],
        capacity_bytes=None if capacity_gib is None else capacity_gib * 2**30,
        **{k: p[k] for k in (*_CLUSTER_KNOBS, *_SCHEDULER_KNOBS) if k in p},
    )
    report = cluster.run(trace, collector=collector)
    if "replicas" in p:
        return report.to_payload(slo), slo
    return ServingReport.to_payload(report, slo), slo


@trial("serving_slo", check=_check_policy_knobs)
def serving_slo(
    system: str,
    qps: float,
    model: str = "Zamba2",
    scale: str = "small",
    scheduler: str = "fcfs",
    n_requests: int = 64,
    seed: int = 0,
    arrival: str = "poisson",
    cv: float = 2.0,
    length_dist: str = "fixed",
    input_len: int = 1024,
    output_len: int = 256,
    sigma: float = 0.5,
    max_batch: int = 32,
    step_stride: int = 32,
    capacity_gib: float | None = None,
    chunk_budget: int | None = None,
    block_size: int | None = None,
    slo_ttft_s: float = 2.0,
    slo_tpot_s: float = 0.018,
    trace_file: str | None = None,
    trace_sha: str | None = None,
) -> dict:
    """Serve one seeded arrival trace on one system; report SLO metrics.

    The trace is fully determined by ``(qps, n_requests, seed, arrival,
    cv, length_dist, ...)``, so every system sees the identical request
    stream and the results are directly comparable.  ``trace_file``
    replays a recorded JSON trace instead (overrides the generator);
    because the result cache keys on parameters, pair it with
    ``trace_sha`` — the file's content fingerprint, baked into the cache
    key by :func:`replay_spec` — so editing the trace file re-runs the
    trial instead of serving the old file's metrics (a mismatch between
    the two raises instead of answering stale).
    """
    return _serve_trial(locals())[0]


def trace_fingerprint(path: str | pathlib.Path) -> str:
    """Short content hash of a trace replay file."""
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()[:20]


def replay_spec(
    trace_file: str | pathlib.Path,
    systems: tuple[str, ...] = SERVING_SYSTEMS,
    name: str = "serving-replay",
    **fixed,
) -> ExperimentSpec:
    """A sweep replaying one recorded trace across ``systems``.

    The trace file's content fingerprint becomes part of every trial's
    cache key, so editing the file invalidates cached results instead of
    silently serving the old workload's metrics.
    """
    return ExperimentSpec(
        name=name,
        trial_fn="serving_slo",
        axes={"system": tuple(systems)},
        fixed={
            "qps": 0.0,  # unused: the replay file supplies arrivals
            "trace_file": str(trace_file),
            "trace_sha": trace_fingerprint(trace_file),
            **fixed,
        },
    )


@sweep("serving")
def serving_spec(smoke: bool = False) -> ExperimentSpec:
    """Latency-throughput sweep: all systems under rising Poisson load."""
    if smoke:
        return ExperimentSpec(
            name="serving",
            trial_fn="serving_slo",
            axes={"system": ("GPU", "Pimba"), "qps": (8.0,)},
            fixed={
                "model": "Zamba2",
                "scheduler": "fcfs",
                "n_requests": 12,
                "input_len": 512,
                "output_len": 64,
                "max_batch": 8,
            },
        )
    return ExperimentSpec(
        name="serving",
        trial_fn="serving_slo",
        axes={"system": SERVING_SYSTEMS, "qps": SERVING_QPS_GRID},
    )


def serving_assemble(report: RunReport) -> dict:
    """Reshape to ``{system: [(qps, slo payload), ...]}`` in grid order."""
    out: dict = {}
    for (system, qps), value in report.mapping("system", "qps").items():
        out.setdefault(system, []).append((qps, value))
    return out


#: a ``+`` between two fleet nodes: a whole kind name follows it, so the
#: ``+`` inside ``GPU+Q`` and ``GPU+PIM`` does not separate anything
_NODE_PLUS = re.compile(
    r"\+(?=\s*(?:%s)\s*(?:[:+,]|$))"
    % "|".join(re.escape(kind.value) for kind in SystemKind)
)


def parse_fleet(
    nodes: str, scale: str = "small"
) -> tuple[tuple, tuple[str, ...]]:
    """Parse a ``"KIND[:phase],..."`` fleet string into systems + phases.

    ``"GPU:prefill,GPU:prefill,Pimba:decode,Pimba:decode"`` is two GPU
    nodes dedicated to prefill feeding two Pimba decode nodes; a bare
    kind (``"GPU"``) serves both phases.  This is the CLI-friendly spelling
    of :func:`~repro.serving.cluster.build_cluster`'s
    ``node_kinds``/``phases`` pair, shared by the ``cluster_slo`` trial
    and ``repro trace export``.  ``+`` separates nodes too
    (``"GPU:prefill+Pimba:decode"``): ``--set`` splits its values on
    commas, so that is how a multi-node fleet reaches one trial from the
    command line.  A ``+`` inside a kind name (``GPU+Q``, ``GPU+PIM``)
    stays part of the name: ``"GPU+GPU+PIM"`` is a GPU node and a
    GPU+PIM node.  Nodes of one kind share one system, so a fleet of one
    kind is homogeneous (a shared prefix tier needs that).  Spaces
    around a kind or a phase are ignored.
    """
    systems = {}
    kinds = []
    phases = []
    for position, item in enumerate(_NODE_PLUS.sub(",", nodes).split(","), 1):
        name, _, phase = item.partition(":")
        try:
            kind = SystemKind(name.strip())
        except ValueError:
            valid = ", ".join(k.value for k in SystemKind)
            raise ValueError(
                f"fleet entry {position} of {nodes!r} names no node kind "
                f"({name.strip()!r}); valid kinds: {valid}"
            ) from None
        if kind not in systems:
            systems[kind] = build_system(kind, scale)
        kinds.append(systems[kind])
        phases.append(phase.strip() or "both")
    return tuple(kinds), tuple(phases)


@trial("cluster_slo", check=_check_policy_knobs)
def cluster_slo(
    system: str,
    qps: float,
    replicas: int = 2,
    router: str = "round-robin",
    nodes: str | None = None,
    model: str = "Zamba2",
    scale: str = "small",
    scheduler: str = "fcfs",
    n_requests: int = 64,
    seed: int = 0,
    arrival: str = "poisson",
    cv: float = 2.0,
    length_dist: str = "fixed",
    input_len: int = 1024,
    output_len: int = 256,
    sigma: float = 0.5,
    max_batch: int = 32,
    step_stride: int = 32,
    capacity_gib: float | None = None,
    chunk_budget: int | None = None,
    block_size: int | None = None,
    shared_tier: bool = False,
    link_gbps: float = DEFAULT_LINK_GBPS,
    slo_ttft_s: float = 2.0,
    slo_tpot_s: float = 0.018,
    trace_file: str | None = None,
    trace_sha: str | None = None,
) -> dict:
    """Serve one arrival trace on a router-fronted cluster of replicas.

    Identical parameters (minus ``replicas``/``router``) produce the
    identical request stream as :func:`serving_slo`, so cluster curves
    overlay single-node ones directly — and ``replicas=1`` reproduces the
    bare engine bit-for-bit under every router (the merge is the identity
    for one replica; the equivalence is tested).  ``shared_tier=True``
    (prefix scheduler only) joins the replicas' prefix pools into one
    cross-replica tier with KV pulls priced over ``link_gbps``.

    ``nodes`` builds a heterogeneous (and optionally phase-split) fleet
    from a ``"KIND[:phase],..."`` string (see :func:`parse_fleet`),
    overriding ``system`` and ``replicas`` — the replica count is the
    fleet's length.  Phase restrictions need ``router="disaggregated"``.
    """
    return _serve_trial(locals())[0]


#: the cluster sweeps run one system under deliberately saturating load —
#: one replica misses the TTFT SLO on most requests, so added replicas
#: convert queueing delay straight into goodput
CLUSTER_LOAD = dict(
    system="Pimba",
    qps=64.0,
    n_requests=128,
    input_len=512,
    output_len=64,
    max_batch=8,
)


@sweep("cluster")
def cluster_spec(smoke: bool = False) -> ExperimentSpec:
    """Cluster grid: replicas x router x scheduler under saturating load."""
    if smoke:
        return ExperimentSpec(
            name="cluster",
            trial_fn="cluster_slo",
            axes={"replicas": (1, 2), "router": ("round-robin",)},
            fixed={
                **CLUSTER_LOAD,
                "scheduler": "fcfs",
                "n_requests": 16,
                "qps": 16.0,
            },
        )
    return ExperimentSpec(
        name="cluster",
        trial_fn="cluster_slo",
        axes={
            "replicas": CLUSTER_REPLICA_GRID,
            "router": ROUTER_NAMES,
            "scheduler": ("fcfs", "memory", "chunked", "overlap"),
        },
        fixed=CLUSTER_LOAD,
    )


@sweep("scaling")
def scaling_spec(smoke: bool = False) -> ExperimentSpec:
    """Scaling figure: goodput and TTFT p99 vs replica count per router."""
    if smoke:
        return ExperimentSpec(
            name="scaling",
            trial_fn="cluster_slo",
            axes={"router": ("least-loaded",), "replicas": (1, 2)},
            fixed={
                **CLUSTER_LOAD,
                "scheduler": "fcfs",
                "n_requests": 16,
                "qps": 16.0,
            },
        )
    return ExperimentSpec(
        name="scaling",
        trial_fn="cluster_slo",
        axes={"router": ROUTER_NAMES, "replicas": SCALING_REPLICA_GRID},
        fixed={**CLUSTER_LOAD, "scheduler": "fcfs"},
    )


def scaling_assemble(report: RunReport) -> dict:
    """Reshape to ``{router: [(replicas, payload), ...]}`` in grid order."""
    out: dict = {}
    for (router, replicas), value in report.mapping("router", "replicas").items():
        out.setdefault(router, []).append((replicas, value))
    return out


def scaling_render(data: dict) -> tuple[list[str], list[list]]:
    header = [
        "router", "replicas", "goodput (req/s)", "SLO attainment",
        "ttft p99 (s)", "tpot p99 (ms)", "load imbalance", "tokens/s",
    ]
    rows = []
    for router, points in data.items():
        for replicas, m in points:
            rows.append([
                router,
                replicas,
                m.get("goodput_rps", float("nan")),
                m.get("slo_attainment", float("nan")),
                m["ttft_p99_s"],
                m["tpot_p99_s"] * 1e3,
                m["load_imbalance"],
                m["throughput_tokens_per_s"],
            ])
    return header, rows


#: fleets of the disaggregation face-off, one ``nodes`` string per row:
#: colocated references (every node serves both phases), the mixed
#: colocated fleet, and both directions of the 2+2 prefill/decode split.
#: All rows share the disaggregated router so the *only* moving part is
#: the phase assignment, never the routing policy.
DISAGG_FLEETS = (
    "GPU,GPU,GPU,GPU",
    "Pimba,Pimba,Pimba,Pimba",
    "GPU,GPU,Pimba,Pimba",
    "GPU:prefill,GPU:prefill,Pimba:decode,Pimba:decode",
    "Pimba:prefill,Pimba:prefill,GPU:decode,GPU:decode",
)

#: QPS axis of the disaggregation figure; the knee sits at 12-16, where
#: colocated admission stalls start missing the TPOT SLO
DISAGG_QPS_GRID = (8.0, 12.0, 16.0, 20.0)

#: the disaggregation sweep serves prefill-heavy prompts under a tight
#: TPOT SLO: every colocated admission injects a ~2k-token monolithic
#: prefill into the decode batch (FCFS — deliberately unchunked, this is
#: the interference disaggregation removes), pushing colocated TPOT p99
#: past 12 ms at the knee, while split decode nodes only ever pay the
#: ~3 ms KV handoff per admission over the 400 Gbps fabric.  The prefill
#: side pays for the split with queueing (its TTFT tail grows), which is
#: why the win only appears once interference dominates — past the knee.
DISAGG_LOAD = dict(
    system="GPU",  # overridden per row by ``nodes``; kept for the cache key
    router="disaggregated",
    scheduler="fcfs",
    n_requests=96,
    input_len=2048,
    output_len=128,
    max_batch=8,
    link_gbps=400.0,
    slo_ttft_s=1.0,
    slo_tpot_s=0.012,
)


@sweep("disaggregation")
def disaggregation_spec(smoke: bool = False) -> ExperimentSpec:
    """Prefill/decode disaggregation: split fleets vs colocated at the knee.

    Every cell serves the identical prefill-heavy trace on a four-node
    fleet under the disaggregated router; the ``nodes`` axis moves nodes
    between colocated, mixed, and phase-split arrangements.  Past the
    knee the GPU-prefill/Pimba-decode split wins goodput outright —
    decode nodes never stall behind an admission's monolithic prefill —
    which is the claim the ``disaggregation`` benchmark asserts and the
    reverse split (Pimba prefill, GPU decode) shows is a *placement*
    win, not a node-count artifact.
    """
    if smoke:
        return ExperimentSpec(
            name="disaggregation",
            trial_fn="cluster_slo",
            axes={
                "nodes": (
                    "GPU,Pimba",
                    "GPU:prefill,Pimba:decode",
                ),
                "qps": (12.0,),
            },
            fixed={**DISAGG_LOAD, "n_requests": 16},
        )
    return ExperimentSpec(
        name="disaggregation",
        trial_fn="cluster_slo",
        axes={"nodes": DISAGG_FLEETS, "qps": DISAGG_QPS_GRID},
        fixed=DISAGG_LOAD,
    )


def disaggregation_assemble(report: RunReport) -> dict:
    """Reshape to ``{nodes: [(qps, payload), ...]}`` in grid order."""
    out: dict = {}
    for (nodes, qps), value in report.mapping("nodes", "qps").items():
        out.setdefault(nodes, []).append((qps, value))
    return out


def disaggregation_render(data: dict) -> tuple[list[str], list[list]]:
    header = [
        "fleet", "qps", "goodput (req/s)", "SLO attainment",
        "ttft p99 (s)", "tpot p99 (ms)", "handoffs", "handoff (GiB)",
        "prefill util", "decode util",
    ]
    rows = []
    for nodes, points in data.items():
        for qps, m in points:
            rows.append([
                nodes,
                qps,
                m.get("goodput_rps", float("nan")),
                m.get("slo_attainment", float("nan")),
                m["ttft_p99_s"],
                m["tpot_p99_s"] * 1e3,
                m.get("n_handoffs", 0),
                m.get("handoff_bytes", 0.0) / 2**30,
                m.get("prefill_utilization", float("nan")),
                m.get("decode_utilization", float("nan")),
            ])
    return header, rows


#: light load shared by the prefill-shaping smoke grids
CHUNKING_SMOKE_LOAD = dict(
    qps=16.0,
    n_requests=12,
    input_len=512,
    output_len=64,
    max_batch=4,
)


@sweep("chunking")
def chunking_spec(smoke: bool = False) -> ExperimentSpec:
    """Prefill shaping: chunked vs overlap over the chunk-budget grid.

    The full grid is the GPU-vs-Pimba slice of the ``ttft_tradeoff``
    figure grid — derived from it, so the two sweeps can never drift
    apart and their overlapping cells share cache entries.
    """
    if smoke:
        return ExperimentSpec(
            name="chunking",
            trial_fn="serving_slo",
            axes={
                "scheduler": ("chunked", "overlap"),
                "chunk_budget": (128,),
            },
            fixed={"system": "Pimba", **CHUNKING_SMOKE_LOAD},
        )
    return dataclasses.replace(
        ttft_tradeoff_spec().with_axes(system=("GPU", "Pimba")),
        name="chunking",
    )


@sweep("ttft_tradeoff")
def ttft_tradeoff_spec(smoke: bool = False) -> ExperimentSpec:
    """TTFT/TPOT tradeoff figure: chunk budget axis on every system.

    The 1024-token budget covers the whole (fixed-length) prompt, so the
    ``chunked`` curve's first point is *exactly* the blocked FCFS
    baseline (the equivalence is tested) and every smaller budget reads
    as a delta against it.
    """
    if smoke:
        return ExperimentSpec(
            name="ttft_tradeoff",
            trial_fn="serving_slo",
            axes={"system": ("GPU", "Pimba"), "chunk_budget": (512, 128)},
            fixed={"scheduler": "overlap", **CHUNKING_SMOKE_LOAD},
        )
    return ExperimentSpec(
        name="ttft_tradeoff",
        trial_fn="serving_slo",
        axes={
            "system": SERVING_SYSTEMS,
            "scheduler": ("chunked", "overlap"),
            "chunk_budget": CHUNK_BUDGET_GRID,
        },
        fixed=CHUNKING_LOAD,
    )


def ttft_tradeoff_assemble(report: RunReport) -> dict:
    """Reshape to ``{(system, scheduler): [(budget, payload), ...]}``."""
    out: dict = {}
    mapping = report.mapping("system", "scheduler", "chunk_budget")
    for (system, scheduler, budget), value in mapping.items():
        out.setdefault((system, scheduler), []).append((budget, value))
    return out


def ttft_tradeoff_render(data: dict) -> tuple[list[str], list[list]]:
    header = [
        "system", "scheduler", "chunk budget", "ttft p50 (s)",
        "ttft p99 (s)", "tpot p99 (ms)", "goodput (req/s)", "SLO attainment",
    ]
    rows = []
    for (system, scheduler), points in data.items():
        for budget, m in points:
            rows.append([
                system,
                scheduler,
                budget,
                m["ttft_p50_s"],
                m["ttft_p99_s"],
                m["tpot_p99_s"] * 1e3,
                m.get("goodput_rps", float("nan")),
                m.get("slo_attainment", float("nan")),
            ])
    return header, rows


#: QPS axis of the preemption-tradeoff figure, from untroubled (both
#: reservation policies make identical decisions, zero preemptions) to a
#: saturating load where the paged pool thrashes
PAGED_QPS_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)

#: the paged sweeps run one system against a deliberately *tight* HBM
#: budget: the 9.7 GiB capacity holds the 9.07 GiB weights plus only ~6
#: full-context (128, 384) request footprints, so full-context
#: reservation queues hard while block-granular admission packs roughly
#: twice the residents (a prompt is ~57% of the final footprint) and
#: pays for the slack with preempt/restore thrashing instead
PAGED_LOAD = dict(
    system="Pimba",
    model="Zamba2",
    n_requests=64,
    input_len=128,
    output_len=384,
    max_batch=512,
    capacity_gib=9.7,
    # block_size stays unset: ``paged`` applies its default (64),
    # ``memory`` takes none, and the ``paged`` sweep makes it an axis
)


@sweep("preemption_tradeoff")
def preemption_tradeoff_spec(smoke: bool = False) -> ExperimentSpec:
    """Reservation-policy face-off: full-context vs paged as load rises.

    Both schedulers serve the identical seeded trace against the same
    tight HBM budget at every QPS.  At light load the two are
    indistinguishable (the capacity bound never binds); as load rises,
    paged admission converts reservation slack into goodput while
    preemptions (and their re-prefill work) push the decode tail out —
    the slack-vs-thrashing tradeoff, one row per (policy, qps).
    """
    if smoke:
        return ExperimentSpec(
            name="preemption_tradeoff",
            trial_fn="serving_slo",
            axes={"scheduler": ("memory", "paged"), "qps": (4.0,)},
            fixed={**PAGED_LOAD, "n_requests": 16},
        )
    return ExperimentSpec(
        name="preemption_tradeoff",
        trial_fn="serving_slo",
        axes={"scheduler": ("memory", "paged"), "qps": PAGED_QPS_GRID},
        fixed=PAGED_LOAD,
    )


@sweep("paged")
def paged_spec(smoke: bool = False) -> ExperimentSpec:
    """Block-size sensitivity of the paged policy at a capacity-bound load.

    Smaller blocks track each request's true context more tightly (less
    rounding slack per resident) at the price of more frequent growth
    claims; the sweep quantifies how much block granularity matters next
    to the headline full-context-vs-paged gap.
    """
    if smoke:
        return ExperimentSpec(
            name="paged",
            trial_fn="serving_slo",
            axes={"block_size": (64,)},
            fixed={
                **PAGED_LOAD,
                "scheduler": "paged",
                "qps": 4.0,
                "n_requests": 16,
            },
        )
    return ExperimentSpec(
        name="paged",
        trial_fn="serving_slo",
        axes={"block_size": (16, 64, 256, 1024)},
        fixed={**PAGED_LOAD, "scheduler": "paged", "qps": 4.0},
    )


#: session-rate axis of the prefix-reuse figure (sessions per second;
#: every session is four turns, so request rate is 4x this)
PREFIX_QPS_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)

#: the prefix sweeps serve multi-turn chat sessions whose turns re-send
#: the growing conversation: turn 4's prompt is ~2k tokens of which
#: ~60% is the session's own history.  Monolithic prefills of that size
#: dominate TTFT under a 0.5 s SLO, so past the knee (~1 session/s) the
#: paged baseline re-prefills history it already computed and misses the
#: SLO on the tail, while the prefix cache serves the history from
#: shared blocks and keeps attainment at 1.0 — the goodput gap *is* the
#: recomputed-token gap
PREFIX_LOAD = dict(
    system="Pimba",
    model="Zamba2",
    arrival="multiturn",
    n_requests=64,  # 16 sessions x 4 turns
    input_len=1024,
    output_len=64,
    max_batch=512,
    slo_ttft_s=0.5,
)


@sweep("prefix_cache")
def prefix_cache_spec(smoke: bool = False) -> ExperimentSpec:
    """Prefix reuse face-off: paged-without-reuse vs the radix cache.

    Both schedulers serve the identical seeded multi-turn trace at every
    session rate; the ``prefix`` scheduler is bit-exact with ``paged``
    until a shared prefix actually hits (tested), so every difference in
    the rows is attributable to reuse — skipped prefill work, lower
    TTFT, and the goodput win at the saturation knee that the
    ``prefix_reuse`` benchmark asserts and the perf gate watches via
    ``prefix_cache_hit_rate``.
    """
    if smoke:
        return ExperimentSpec(
            name="prefix_cache",
            trial_fn="serving_slo",
            axes={"scheduler": ("paged", "prefix"), "qps": (1.0,)},
            fixed={**PREFIX_LOAD, "n_requests": 16},
        )
    return ExperimentSpec(
        name="prefix_cache",
        trial_fn="serving_slo",
        axes={"scheduler": ("paged", "prefix"), "qps": PREFIX_QPS_GRID},
        fixed=PREFIX_LOAD,
    )


def prefix_reuse_assemble(report: RunReport) -> dict:
    """Reshape to ``{scheduler: [(qps, payload), ...]}`` in grid order."""
    out: dict = {}
    for (scheduler, qps), value in report.mapping("scheduler", "qps").items():
        out.setdefault(scheduler, []).append((qps, value))
    return out


def prefix_reuse_render(data: dict) -> tuple[list[str], list[list]]:
    header = [
        "policy", "sessions/s", "goodput (req/s)", "SLO attainment",
        "ttft p50 (s)", "ttft p99 (s)", "hit rate", "cached tokens",
        "evictions",
    ]
    rows = []
    for scheduler, points in data.items():
        for qps, m in points:
            rows.append([
                scheduler,
                qps,
                m.get("goodput_rps", float("nan")),
                m.get("slo_attainment", float("nan")),
                m["ttft_p50_s"],
                m["ttft_p99_s"],
                m.get("prefix_cache_hit_rate", 0.0),
                m.get("cache_hit_tokens", 0),
                m.get("cache_evictions", 0),
            ])
    return header, rows


#: replica axis of the cross-replica prefix figure (1 is the anchor where
#: every router is the identity and the tier has nobody to talk to)
CROSS_REPLICA_GRID = (1, 2, 4)

#: the cross-replica sweep replays the shipped multi-turn corpus on
#: single-request replicas under a tight TTFT SLO, so one replica misses
#: the SLO on half the turns and the knee sits at two: there, a router
#: that scatters a session's turns (round-robin) recomputes or transfers
#: history every turn, affinity keeps sessions warm but ignores load
#: (its hash leaves one replica oversubscribed), and cache-aware trades
#: the two explicitly — which is exactly where it wins the face-off
CROSS_REPLICA_LOAD = dict(
    system="Pimba",
    scheduler="prefix",
    shared_tier=True,
    max_batch=1,
    slo_ttft_s=0.1,
)

#: the router face-off of the cross-replica figure
CROSS_REPLICA_ROUTERS = ("round-robin", "affinity", "cache-aware")


@sweep("cross_replica_prefix")
def cross_replica_prefix_spec(smoke: bool = False) -> ExperimentSpec:
    """Cross-replica prefix reuse: router face-off over the shared tier.

    Every cell replays the pinned multi-turn chat corpus on a prefix
    cluster whose pools share one :class:`SharedPrefixTier`: round-robin
    scatters each session's turns and leans on priced KV transfers,
    affinity pins sessions (cold only on rebalance — never here, but
    also blind to load), and cache-aware folds cache warmth into the
    backlog estimate, migrating sessions exactly when the backlog gap
    outweighs the prefix.  The ``cluster_prefix_cache_hit_rate`` the
    perf gate watches is this sweep's ``prefix_cache_hit_rate`` column.
    """
    if smoke:
        return ExperimentSpec(
            name="cross_replica_prefix",
            trial_fn="trace_replay_slo",
            axes={
                "router": ("round-robin", "cache-aware"),
                "replicas": (2,),
            },
            fixed={
                **CROSS_REPLICA_LOAD,
                "trace": _corpus.pinned_trace("multiturn"),
            },
        )
    return ExperimentSpec(
        name="cross_replica_prefix",
        trial_fn="trace_replay_slo",
        axes={
            "router": CROSS_REPLICA_ROUTERS,
            "replicas": CROSS_REPLICA_GRID,
        },
        fixed={
            **CROSS_REPLICA_LOAD,
            "trace": _corpus.pinned_trace("multiturn"),
        },
    )


def cross_replica_prefix_assemble(report: RunReport) -> dict:
    """Reshape to ``{router: [(replicas, payload), ...]}`` in grid order."""
    out: dict = {}
    mapping = report.mapping("router", "replicas")
    for (router, replicas), value in mapping.items():
        out.setdefault(router, []).append((replicas, value))
    return out


def cross_replica_prefix_render(data: dict) -> tuple[list[str], list[list]]:
    header = [
        "router", "replicas", "goodput (req/s)", "SLO attainment",
        "ttft p99 (s)", "hit rate", "remote hit tokens",
        "transferred (MiB)", "transfers", "load imbalance",
    ]
    rows = []
    for router, points in data.items():
        for replicas, m in points:
            rows.append([
                router,
                replicas,
                m.get("goodput_rps", float("nan")),
                m.get("slo_attainment", float("nan")),
                m["ttft_p99_s"],
                m.get("prefix_cache_hit_rate", 0.0),
                m.get("remote_hit_tokens", 0),
                m.get("transferred_bytes", 0.0) / 2**20,
                m.get("kv_transfers", 0),
                m["load_imbalance"],
            ])
    return header, rows


def preemption_tradeoff_assemble(report: RunReport) -> dict:
    """Reshape to ``{scheduler: [(qps, payload), ...]}`` in grid order."""
    out: dict = {}
    for (scheduler, qps), value in report.mapping("scheduler", "qps").items():
        out.setdefault(scheduler, []).append((qps, value))
    return out


def preemption_tradeoff_render(data: dict) -> tuple[list[str], list[list]]:
    header = [
        "policy", "qps", "goodput (req/s)", "SLO attainment",
        "ttft p99 (s)", "tpot p99 (ms)", "preemptions", "prefill events",
    ]
    rows = []
    for scheduler, points in data.items():
        for qps, m in points:
            rows.append([
                scheduler,
                qps,
                m.get("goodput_rps", float("nan")),
                m.get("slo_attainment", float("nan")),
                m["ttft_p99_s"],
                m["tpot_p99_s"] * 1e3,
                m.get("n_preemptions", 0),
                m.get("n_prefills", 0),
            ])
    return header, rows


@trial("serving_timeline", check=_check_policy_knobs)
def serving_timeline(
    system: str,
    qps: float,
    model: str = "Zamba2",
    scale: str = "small",
    scheduler: str = "fcfs",
    n_requests: int = 64,
    seed: int = 0,
    arrival: str = "poisson",
    cv: float = 2.0,
    length_dist: str = "fixed",
    input_len: int = 1024,
    output_len: int = 256,
    sigma: float = 0.5,
    max_batch: int = 32,
    step_stride: int = 32,
    capacity_gib: float | None = None,
    chunk_budget: int | None = None,
    block_size: int | None = None,
    slo_ttft_s: float = 2.0,
    slo_tpot_s: float = 0.018,
    n_windows: int = 8,
    trace_file: str | None = None,
    trace_sha: str | None = None,
) -> dict:
    """:func:`serving_slo` with the flight recorder on: payload + windows.

    Identical parameters build the identical engine and trace as
    ``serving_slo`` (telemetry never changes the simulation — tested bit
    for bit), so the scalar metrics match that trial's exactly; the extra
    ``windows`` list is the run's per-window time-series
    (:meth:`~repro.serving.telemetry.Timeline.windowed`): TTFT/TPOT
    percentiles over the requests finishing in each window, engine
    occupancy, sampled queue depth, preemption deltas, and per-window
    goodput — what the ``utilization_timeline`` figure tabulates.
    """
    collector = TimelineCollector()
    payload, slo = _serve_trial(locals(), collector)
    payload["n_windows"] = n_windows
    payload["windows"] = collector.timeline.windowed(n_windows, slo)
    return payload


def _trial_defaults(fn) -> dict:
    return {
        name: p.default
        for name, p in inspect.signature(fn).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


def collect_timeline(
    trial_name: str = "serving_slo", **params
) -> tuple[Timeline, SloSpec, dict]:
    """Re-run one serving trial with the flight recorder attached.

    Serves ``params`` through the builder ``serving_slo`` /
    ``cluster_slo`` use (missing keys take the trial's own defaults;
    ``system``/``qps`` default to Pimba at 8 QPS) with a
    :class:`~repro.serving.telemetry.TimelineCollector` attached, and
    returns ``(timeline, slo, payload)`` — the payload is the trial's
    own.  This is what backs ``repro trace export``.
    """
    trials = {"serving_slo": serving_slo, "cluster_slo": cluster_slo}
    if trial_name not in trials:
        raise KeyError(
            f"unknown trial {trial_name!r}; use serving_slo|cluster_slo"
        )
    base = _trial_defaults(trials[trial_name])
    base.setdefault("system", "Pimba")
    base.setdefault("qps", 8.0)
    unknown = sorted(set(params) - set(base))
    if unknown:
        raise KeyError(
            f"unknown parameter(s) {unknown} for trial {trial_name!r}"
        )
    collector = TimelineCollector()
    payload, slo = _serve_trial({**base, **params}, collector)
    return collector.timeline, slo, payload


@sweep("utilization_timeline")
def utilization_timeline_spec(smoke: bool = False) -> ExperimentSpec:
    """Per-window utilization of the paged-vs-memory face-off.

    The same tight-HBM load as ``preemption_tradeoff`` at its knee
    (4 QPS), served with the flight recorder on: where the end-of-run
    rows of that figure show paged reservation winning goodput *overall*,
    the windows here show *when* — full-context admission stalls early
    (occupancy holds but the queue builds and TTFT climbs window over
    window) while paged admission keeps latency flat until the preemption
    columns start paying for the packing.
    """
    if smoke:
        return ExperimentSpec(
            name="utilization_timeline",
            trial_fn="serving_timeline",
            axes={"scheduler": ("memory", "paged")},
            fixed={
                **PAGED_LOAD,
                "qps": 4.0,
                "n_requests": 16,
                "n_windows": 4,
            },
        )
    return ExperimentSpec(
        name="utilization_timeline",
        trial_fn="serving_timeline",
        axes={"scheduler": ("memory", "paged")},
        fixed={**PAGED_LOAD, "qps": 4.0, "n_windows": 8},
    )


def utilization_timeline_assemble(report: RunReport) -> dict:
    """Reshape to ``{scheduler: trial payload}`` (one cell per policy)."""
    return report.mapping("scheduler")


def utilization_timeline_render(data: dict) -> tuple[list[str], list[list]]:
    header = [
        "policy", "window", "t0 (s)", "t1 (s)", "finished",
        "ttft p99 (s)", "occupancy", "queue depth", "preemptions",
        "goodput (req/s)",
    ]
    rows = []
    for scheduler, payload in data.items():
        for w in payload["windows"]:
            rows.append([
                scheduler,
                w["window"],
                w["t0_s"],
                w["t1_s"],
                w["n_finished"],
                w["ttft_p99_s"],
                w["occupancy"],
                w["mean_queue_depth"],
                w["preemptions"],
                w.get("goodput_rps"),
            ])
    return header, rows


#: load profile of the wall-clock benchmark: ~100k requests arriving fast
#: enough to keep the decode batch full, fixed lengths so the simulated
#: outcome (and therefore the simulation *work*) is identical run to run
WALLCLOCK_LOAD = dict(
    system="Pimba",
    model="Zamba2",
    scale="small",
    qps=2000.0,
    n_requests=100_000,
    input_len=128,
    output_len=128,
    max_batch=64,
    seed=0,
)

#: replicas of the ``cluster`` wall-clock engine (same trace, same knobs)
WALLCLOCK_REPLICAS = 4

#: every engine the ``wallclock`` sweep times, in report order
WALLCLOCK_ENGINES = ("reference", "slot", "slot+telemetry", "cluster")

#: every scheduler the ``wallclock`` sweep times each engine under: the
#: slot-bound policy and the two paged-KV policies (whose runs land
#: block claims as they go)
WALLCLOCK_SCHEDULERS = ("fcfs", "paged", "prefix")


@trial("wallclock")
def wallclock(
    engine: str,
    system: str = "Pimba",
    qps: float = 2000.0,
    model: str = "Zamba2",
    scale: str = "small",
    scheduler: str = "fcfs",
    n_requests: int = 100_000,
    input_len: int = 128,
    output_len: int = 128,
    max_batch: int = 64,
    seed: int = 0,
) -> dict:
    """Time one engine implementation serving a large seeded trace.

    ``engine`` selects the implementation under test: ``"slot"`` is the
    production :class:`~repro.serving.engine.ServingEngine` (slot-array
    coalesced hot path, streaming stats), ``"reference"`` the scalar
    :class:`~repro.serving._reference.ReferenceEngine` specification,
    ``"slot+telemetry"`` the production engine with a recording
    :class:`~repro.serving.telemetry.TimelineCollector` attached, and
    ``"cluster"`` a fleet of :data:`WALLCLOCK_REPLICAS` production
    engines behind the ``least-loaded`` router.
    All serve the *identical* trace under the same ``scheduler``, so the
    ratio of their ``wall_s`` is the hot path's speedup — what CI's
    ``perf-wallclock`` job asserts for every scheduler of
    :data:`WALLCLOCK_SCHEDULERS`, along with the telemetry overhead
    ceiling (``slot+telemetry`` ≤ 1.15 × ``slot``) and the fleet ceiling
    (``cluster`` ≤ 3 × ``slot``: routing and serving a trace over
    replicas must stay linear in its length), both under ``fcfs``.
    Only the serve call is timed into ``wall_s`` (for ``cluster``, the
    whole ``run``: routing, replicas and merge); the trace build has its
    own stopwatch, ``build_s``, and engine construction is timed by
    neither.  Never cache this
    trial's results (``repro sweep wallclock --no-cache``): a timing
    replayed from the cache says nothing about the code under test.
    """
    spec = spec_for(model, scale)
    serving = build_system(SystemKind(system), scale)
    t0 = time.perf_counter()
    trace = poisson_trace(
        qps, n_requests, fixed_lengths(input_len, output_len), seed
    )
    build_s = time.perf_counter() - t0
    policy = build_scheduler(
        scheduler, serving, spec, max_batch=max_batch
    )
    if engine == "slot":
        impl = ServingEngine(serving, spec, policy)
        t0 = time.perf_counter()
        stats = impl.serve_stats(trace)
        wall_s = time.perf_counter() - t0
        report = stats.report()
    elif engine == "slot+telemetry":
        impl = ServingEngine(serving, spec, policy)
        collector = TimelineCollector()
        t0 = time.perf_counter()
        stats = impl.serve_stats(trace, collector=collector)
        wall_s = time.perf_counter() - t0
        report = stats.report()
    elif engine == "reference":
        ref = ReferenceEngine(serving, spec, policy)
        t0 = time.perf_counter()
        run = ref.serve(trace)
        wall_s = time.perf_counter() - t0
        report = run.report()
    elif engine == "cluster":
        fleet = build_cluster(
            serving,
            spec,
            WALLCLOCK_REPLICAS,
            router="least-loaded",
            scheduler=scheduler,
            max_batch=max_batch,
        )
        t0 = time.perf_counter()
        report = fleet.run(trace)
        wall_s = time.perf_counter() - t0
    else:
        raise KeyError(
            f"unknown engine {engine!r}; "
            "use slot|slot+telemetry|reference|cluster"
        )
    return {
        "engine": engine,
        "scheduler": scheduler,
        "build_s": build_s,
        "wall_s": wall_s,
        "requests_per_wall_s": n_requests / wall_s,
        "sim_iterations_per_wall_s": report.n_iterations / wall_s,
        # Simulated-outcome fields: identical for the three single-node
        # engines (the bit-exactness the differential tests pin), so any
        # diff among them is a correctness regression, not noise.
        "n_requests": report.n_requests,
        "n_iterations": report.n_iterations,
        "makespan_s": report.makespan_s,
        "throughput_tokens_per_s": report.throughput_tokens_per_s,
        "ttft_p99_s": report.ttft_percentile(99),
    }


@sweep("wallclock")
def wallclock_spec(smoke: bool = False) -> ExperimentSpec:
    """Wall-clock benchmark: production engine vs scalar reference.

    Four engines — ``engine=reference``, ``engine=slot``,
    ``engine=slot+telemetry``, and ``engine=cluster`` — under each of
    the ``fcfs``, ``paged``, and ``prefix`` schedulers, over the same
    ~100k-request trace.  CI runs this serially and uncached (``repro
    sweep wallclock --serial --no-cache``) and fails the build if, under
    any scheduler, ``reference.wall_s / slot.wall_s`` drops below the
    floor the vectorized core was merged at (5x), or, under ``fcfs``, if
    the recording collector costs more than 15% over the bare engine
    (``slot+telemetry.wall_s / slot.wall_s`` > 1.15) or the routed fleet
    costs more than 3x the bare engine (``cluster.wall_s /
    slot.wall_s`` > 3) — ratios that do not depend on the machine and
    that a path quadratic in the trace length blows through.
    """
    axes = {"engine": WALLCLOCK_ENGINES, "scheduler": WALLCLOCK_SCHEDULERS}
    if smoke:
        return ExperimentSpec(
            name="wallclock",
            trial_fn="wallclock",
            axes=axes,
            fixed={**WALLCLOCK_LOAD, "n_requests": 2000},
        )
    return ExperimentSpec(
        name="wallclock",
        trial_fn="wallclock",
        axes=axes,
        fixed=WALLCLOCK_LOAD,
    )


def serving_render(data: dict) -> tuple[list[str], list[list]]:
    header = [
        "system", "qps", "ttft p50 (s)", "ttft p99 (s)", "tpot p99 (ms)",
        "tokens/s", "goodput (req/s)", "SLO attainment",
    ]
    rows = []
    for system, points in data.items():
        for qps, m in points:
            rows.append([
                system,
                qps,
                m["ttft_p50_s"],
                m["ttft_p99_s"],
                m["tpot_p99_s"] * 1e3,
                m["throughput_tokens_per_s"],
                m.get("goodput_rps", float("nan")),
                m.get("slo_attainment", float("nan")),
            ])
    return header, rows
