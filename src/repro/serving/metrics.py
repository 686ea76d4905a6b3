"""Per-request timings, SLOs, and streaming serving reports.

The serving literature's quality metrics, computed from the discrete-event
engine's raw timelines:

* **TTFT** — time to first token: arrival to the end of the first decode
  iteration (queueing + prefill + one step).
* **TPOT** — time per output token over the decode tail (first token to
  completion, averaged over the remaining tokens).
* **Goodput** — completed requests per second that met the SLO, the metric
  that actually prices a serving fleet (throughput counts late answers,
  goodput does not).

Aggregation is *streaming*: a :class:`RequestStats` accumulator folds each
completed request into O(1)-memory running counters plus a seeded
fixed-capacity reservoir over the ``(ttft, tpot, e2e)`` latency rows, so a
million-request trace costs the same report memory as a dozen-request one.
Below the reservoir capacity (default ``DEFAULT_SKETCH_CAPACITY``) the
sample *is* the population and every percentile, attainment fraction, and
goodput figure is exact — which is what keeps small-trace reports
bit-identical to the pre-streaming implementation.  Above capacity the
reservoir is a uniform sample (Algorithm R, fixed seed, so results are
reproducible) and a percentile estimate at rank ``p`` carries standard
error ``sqrt(p * (1 - p) / K)`` in rank space — about ±0.8 rank points at
the median for the default K = 4096, tighter in the tails.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: schedulers imports this module
    from repro.serving.schedulers import RunningRequest

#: reservoir rows kept per report; samples below this size are exact
DEFAULT_SKETCH_CAPACITY = 4096

#: fixed reservoir seed — identical streams always keep identical samples
_SKETCH_SEED = 0x51CE7C

#: fixed seed of the queue-depth segment reservoir (distinct from the
#: latency reservoir's, so the two sample streams stay independent)
_DEPTH_SEED = 0xDEE75C


def _latency_row(timing: RequestTiming | RunningRequest) -> tuple[float, float, float]:
    """The ``(ttft_s, tpot_s, e2e_s)`` row of one finished request.

    Reads the lifecycle fields a :class:`RequestTiming` and a finished
    :class:`~repro.serving.schedulers.RunningRequest` share, and raises
    ``ValueError`` unless arrival, admission, first token and finish are
    in order.  TPOT is seconds per output token after the first, and 0
    for a one-token request.
    """
    arrival_s = timing.arrival_s
    first_token_s = timing.first_token_s
    finished_s = timing.finished_s
    if not arrival_s <= timing.admitted_s <= first_token_s <= finished_s:
        raise ValueError("request timestamps must be ordered")
    output_len = timing.output_len
    if output_len <= 1:
        tpot_s = 0.0
    else:
        tpot_s = (finished_s - first_token_s) / (output_len - 1)
    return first_token_s - arrival_s, tpot_s, finished_s - arrival_s


@dataclasses.dataclass(frozen=True)
class RequestTiming:
    """Lifecycle timestamps of one served request (all in trace seconds)."""

    request_id: int
    input_len: int
    output_len: int
    arrival_s: float
    admitted_s: float  #: prefill start (left the waiting queue)
    first_token_s: float  #: end of the first decode iteration
    finished_s: float  #: end of the last decode iteration
    preemptions: int = 0  #: times a paged scheduler evicted this request
    #: prompt tokens served from a prefix cache instead of recomputed
    #: (0 for every scheduler without one)
    cached_tokens: int = 0
    #: the subset of :attr:`cached_tokens` pulled from another replica
    #: through the shared prefix tier (0 without a tier)
    remote_tokens: int = 0

    def __post_init__(self) -> None:
        _latency_row(self)  # refuses out-of-order timestamps

    @property
    def queue_s(self) -> float:
        return self.admitted_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        return _latency_row(self)[0]

    @property
    def tpot_s(self) -> float:
        """Seconds per output token after the first (0 for one-token jobs)."""
        return _latency_row(self)[1]

    @property
    def e2e_s(self) -> float:
        return _latency_row(self)[2]


@dataclasses.dataclass(frozen=True)
class SloSpec:
    """A latency service-level objective on TTFT and TPOT."""

    ttft_s: float
    tpot_s: float

    def __post_init__(self) -> None:
        if self.ttft_s <= 0 or self.tpot_s <= 0:
            raise ValueError("SLO bounds must be positive")

    def met_by(self, timing: RequestTiming) -> bool:
        return timing.ttft_s <= self.ttft_s and timing.tpot_s <= self.tpot_s


def percentile(values: list[float] | tuple[float, ...], p: float) -> float:
    """The ``p``-th percentile (0-100), linearly interpolated."""
    if not values:
        raise ValueError("cannot take a percentile of no values")
    return float(np.percentile(np.asarray(values, dtype=float), p))


class RequestStats:
    """Streaming accumulator over completed requests (O(1) memory).

    Running token counters plus a seeded Algorithm-R reservoir of
    ``(ttft_s, tpot_s, e2e_s)`` rows, capped at ``capacity``.  While the
    stream fits the reservoir (``exact`` is True) the rows are the whole
    population and every derived statistic is exact; past capacity the
    rows are a uniform sample and SLO counts are scaled estimates.

    Equality ignores observation order (and the reservoir's RNG state):
    two accumulators are equal when their counters match and their row
    *multisets* match — so a cluster merge and a request-id-ordered
    replay of the same completions compare equal.
    """

    __slots__ = (
        "capacity", "count", "rows", "prompt_tokens", "generated_tokens",
        "_rng",
    )

    def __init__(self, capacity: int = DEFAULT_SKETCH_CAPACITY):
        if capacity < 1:
            raise ValueError("sketch capacity must be positive")
        self.capacity = capacity
        self.count = 0
        #: plain tuples, not arrays: cheap to append, safe under deepcopy
        self.rows: list[tuple[float, float, float]] = []
        self.prompt_tokens = 0
        self.generated_tokens = 0
        self._rng = random.Random(_SKETCH_SEED)

    @property
    def n(self) -> int:
        """Requests observed (the whole stream, not just the sample)."""
        return self.count

    @property
    def exact(self) -> bool:
        """True while the reservoir still holds every observed row."""
        return self.count <= self.capacity

    def observe(self, timing: RequestTiming | RunningRequest) -> None:
        """Fold one completed request into the counters and the reservoir.

        ``timing`` is a :class:`RequestTiming` or a finished
        :class:`~repro.serving.schedulers.RunningRequest`: both carry the
        two lengths and four timestamps read here, so the engine folds a
        finisher without building its timing, into the same row and the
        same reservoir slot.
        """
        row = _latency_row(timing)
        self.prompt_tokens += timing.input_len
        self.generated_tokens += timing.output_len
        self.count += 1
        if len(self.rows) < self.capacity:
            self.rows.append(row)
        else:
            j = self._rng.randrange(self.count)
            if j < self.capacity:
                self.rows[j] = row

    # -- derived statistics ---------------------------------------------------

    def _column_percentile(self, column: int, p: float) -> float:
        if not self.rows:
            return float("nan")
        return percentile([row[column] for row in self.rows], p)

    def ttft_percentile(self, p: float) -> float:
        return self._column_percentile(0, p)

    def tpot_percentile(self, p: float) -> float:
        return self._column_percentile(1, p)

    def e2e_percentile(self, p: float) -> float:
        return self._column_percentile(2, p)

    def slo_met(self, slo: SloSpec) -> float:
        """(Estimated) number of observed requests that met ``slo``.

        Exact — an integer-valued float — while :attr:`exact` holds;
        otherwise the sample fraction scaled to the stream size.
        """
        if not self.rows:
            return 0.0
        met = sum(
            1
            for ttft, tpot, _ in self.rows
            if ttft <= slo.ttft_s and tpot <= slo.tpot_s
        )
        return met * (self.count / len(self.rows))

    # -- composition ----------------------------------------------------------

    @classmethod
    def merge(
        cls,
        parts: Iterable["RequestStats"],
        capacity: int | None = None,
    ) -> "RequestStats":
        """Fold several accumulators (e.g. cluster replicas) into one.

        When the concatenated rows fit ``capacity`` the merge is exact.
        Otherwise each part contributes a seeded subsample sized in
        proportion to its *stream* length (not its sample length), so
        overflowed parts keep their fair weight in the merged reservoir.
        """
        parts = [p for p in parts if p is not None]
        if capacity is None:
            capacity = max(
                (p.capacity for p in parts), default=DEFAULT_SKETCH_CAPACITY
            )
        merged = cls(capacity)
        merged.count = sum(p.count for p in parts)
        merged.prompt_tokens = sum(p.prompt_tokens for p in parts)
        merged.generated_tokens = sum(p.generated_tokens for p in parts)
        if sum(len(p.rows) for p in parts) <= capacity:
            for p in parts:
                merged.rows.extend(p.rows)
            return merged
        quotas = [capacity * p.count / merged.count for p in parts]
        take = [int(q) for q in quotas]
        # Hand the rounded-away remainder to the largest fractions.
        by_fraction = sorted(
            range(len(parts)), key=lambda i: quotas[i] - take[i], reverse=True
        )
        for i in by_fraction[: capacity - sum(take)]:
            take[i] += 1
        rng = random.Random(_SKETCH_SEED)
        for p, k in zip(parts, take):
            k = min(k, len(p.rows))
            merged.rows.extend(
                p.rows if k == len(p.rows) else rng.sample(p.rows, k)
            )
        return merged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RequestStats):
            return NotImplemented
        return (
            self.capacity,
            self.count,
            self.prompt_tokens,
            self.generated_tokens,
            sorted(self.rows),
        ) == (
            other.capacity,
            other.count,
            other.prompt_tokens,
            other.generated_tokens,
            sorted(other.rows),
        )

    def __repr__(self) -> str:
        kind = "exact" if self.exact else f"sampled({len(self.rows)})"
        return f"RequestStats(n={self.count}, {kind})"


class DepthSketch:
    """Weighted reservoir over time-at-depth segments (O(1) memory).

    The engine's waiting-queue depth is a piecewise-constant function of
    the simulated clock.  Each *segment* — a depth held for some span of
    simulated seconds — is one weighted observation: ``observe(depth,
    seconds)``.  The sketch keeps at most ``capacity`` segments using the
    A-ES weighted reservoir rule (each segment draws the key
    ``u ** (1 / weight)`` from a seeded RNG and the largest keys
    survive), so a segment's survival probability is proportional to the
    *time* the queue actually spent at that depth — which makes
    :meth:`percentile` a time-weighted depth percentile, the p50/p99
    companions to the exact ``mean_queue_depth`` integral.

    Segments flush only when the depth *changes* (the engine coalesces
    constant-depth stretches), so the RNG cost is O(queue mutations),
    not O(iterations) — the vectorized hot path never pays per step.
    While the stream fits the reservoir the kept segments are the whole
    population and the percentiles are exact.

    Equality ignores heap layout and RNG state: two sketches are equal
    when their counters match and their kept segment *multisets* match
    (like :class:`RequestStats`, so the bit-exactness tests can compare
    engine records containing sketches).  :meth:`merge` is deterministic
    — pooled segments keep the globally largest keys — so cluster merges
    are order-insensitive.
    """

    __slots__ = ("capacity", "count", "total_weight", "_items", "_rng")

    def __init__(self, capacity: int = DEFAULT_SKETCH_CAPACITY):
        if capacity < 1:
            raise ValueError("sketch capacity must be positive")
        self.capacity = capacity
        self.count = 0  #: segments observed (the whole stream)
        self.total_weight = 0.0  #: total simulated seconds observed
        #: min-heap of (key, depth, weight); the smallest key is evicted
        self._items: list[tuple[float, int, float]] = []
        self._rng = random.Random(_DEPTH_SEED)

    @property
    def exact(self) -> bool:
        """True while the reservoir still holds every observed segment."""
        return self.count <= self.capacity

    def observe(self, depth: int, weight: float) -> None:
        """One constant-depth segment: ``depth`` held for ``weight`` s."""
        if weight <= 0.0:
            return
        self.count += 1
        self.total_weight += weight
        key = self._rng.random() ** (1.0 / weight)
        if len(self._items) < self.capacity:
            heapq.heappush(self._items, (key, depth, weight))
        elif key > self._items[0][0]:
            heapq.heapreplace(self._items, (key, depth, weight))

    def percentile(self, p: float) -> float:
        """Time-weighted depth percentile (NaN on an empty sketch)."""
        if not self._items:
            return float("nan")
        segments = sorted((depth, weight) for _, depth, weight in self._items)
        kept = sum(weight for _, weight in segments)
        target = kept * min(max(p, 0.0), 100.0) / 100.0
        cumulative = 0.0
        for depth, weight in segments:
            cumulative += weight
            if cumulative >= target:
                return float(depth)
        return float(segments[-1][0])

    @classmethod
    def merge(
        cls,
        parts: Sequence["DepthSketch"],
        capacity: int | None = None,
    ) -> "DepthSketch":
        """Fold several sketches (e.g. cluster replicas) into one.

        Deterministic and order-insensitive: every part's kept segments
        pool together and the ``capacity`` largest keys survive — the
        same rule a single reservoir over the concatenated stream would
        apply, so merging is exact while the pooled segments fit.
        """
        parts = [p for p in parts if p is not None]
        if not parts:
            raise ValueError("cannot merge zero depth sketches")
        if len(parts) == 1:
            return parts[0]
        if capacity is None:
            capacity = max(p.capacity for p in parts)
        merged = cls(capacity)
        merged.count = sum(p.count for p in parts)
        merged.total_weight = sum(p.total_weight for p in parts)
        pooled = sorted(item for p in parts for item in p._items)
        merged._items = pooled[-capacity:]
        heapq.heapify(merged._items)
        return merged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DepthSketch):
            return NotImplemented
        return (
            self.capacity,
            self.count,
            self.total_weight,
            sorted(self._items),
        ) == (
            other.capacity,
            other.count,
            other.total_weight,
            sorted(other._items),
        )

    def __repr__(self) -> str:
        kind = "exact" if self.exact else f"sampled({len(self._items)})"
        return f"DepthSketch(n={self.count}, {kind})"


@dataclasses.dataclass(frozen=True, kw_only=True)
class EngineCounters:
    """The run-level counters of one engine run, declared once.

    :class:`~repro.serving.engine.EngineTrace`, :class:`EngineStats` and
    :class:`ServingReport` inherit these fields, so a conversion passes
    them through by field (:meth:`counters`) and a cluster merge sums
    each one (:func:`merge_runs`).  A new counter added here reaches
    every record, merge and report with no other edit.  Every counter
    defaults to zero: a run without the feature that produces it (a
    prefix cache, a shared tier, a phase-split fleet) leaves it there.
    """

    #: prompt tokens served from a prefix cache / actually computed
    #: under one, and cached blocks reclaimed for live KV
    cache_hit_tokens: int = 0
    cache_miss_tokens: int = 0
    cache_evictions: int = 0
    #: prompt tokens pulled from another replica through the shared
    #: tier, the KV bytes those pulls moved, and how many pulls there were
    remote_hit_tokens: int = 0
    transferred_bytes: float = 0.0
    kv_transfers: int = 0
    #: prefill→decode KV handoffs this engine *received* and their bytes
    handoffs: int = 0
    handoff_bytes: float = 0.0
    #: seconds spent pricing work (makespan minus arrival idle) — the
    #: numerator of a replica's utilization; summed across replicas in
    #: a cluster merge, so divide per replica
    busy_s: float = 0.0

    def counters(self) -> dict[str, float]:
        """The counter fields by name, to pass on to another record."""
        return {name: getattr(self, name) for name in COUNTER_NAMES}


#: :class:`EngineCounters` field names, in declaration order
COUNTER_NAMES = tuple(f.name for f in dataclasses.fields(EngineCounters))


def merge_runs(parts: Sequence) -> dict:
    """The run-level fields of several replica records, merged by name.

    ``parts`` are :class:`~repro.serving.engine.EngineTrace` or
    :class:`EngineStats` records.  The merged span runs from the first
    start to the last end, and the time-weighted queue depth re-averages
    over it (per-replica depth areas add; spans overlap).  Preemptions
    and every :class:`EngineCounters` field sum in replica order, and
    the depth sketches merge.
    """
    start = min(p.start_s for p in parts)
    end = max(p.end_s for p in parts)
    span = max(end - start, 1e-12)
    depth_area = sum(p.mean_queue_depth * p.makespan_s for p in parts)
    depths = [p.depth for p in parts if p.depth is not None]
    return dict(
        start_s=start,
        end_s=end,
        mean_queue_depth=depth_area / span,
        max_queue_depth=max(p.max_queue_depth for p in parts),
        preemptions=sum(p.preemptions for p in parts),
        depth=DepthSketch.merge(depths) if depths else None,
        **{name: sum(getattr(p, name) for p in parts) for name in COUNTER_NAMES},
    )


@dataclasses.dataclass(frozen=True)
class ServingReport(EngineCounters):
    """Aggregate view of one trace served on one system.

    Holds a streaming :class:`RequestStats` instead of per-request
    timings, so its memory is O(1) in the trace length.  A report may
    cover *zero* completed requests (e.g. a run cut while everything was
    still queued): rates are then 0, latency percentiles are NaN — never
    a crash — so downstream tabulation stays total.
    """

    stats: RequestStats
    makespan_s: float  #: first arrival to last completion
    mean_queue_depth: float  #: time-weighted waiting-queue depth
    max_queue_depth: int
    n_iterations: int  #: decode iterations the engine priced
    n_prefills: int  #: prefill events (admissions, chunks, or restores)
    #: paged evictions (each pays a re-prefill); keyword-only so that
    #: subclasses (ClusterReport) can keep required positional fields
    n_preemptions: int = dataclasses.field(default=0, kw_only=True)
    #: time-weighted queue-depth sketch (p50/p99 companions to the exact
    #: mean/max); optional so hand-built reports stay valid without one
    depth: DepthSketch | None = dataclasses.field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        if self.stats.n and self.makespan_s <= 0:
            raise ValueError("makespan must be positive")
        if self.makespan_s < 0:
            raise ValueError("makespan must be non-negative")

    @classmethod
    def from_timings(
        cls,
        timings: Sequence[RequestTiming],
        makespan_s: float,
        mean_queue_depth: float,
        max_queue_depth: int,
        n_iterations: int,
        n_prefills: int,
        *,
        n_preemptions: int = 0,
        depth: DepthSketch | None = None,
    ) -> "ServingReport":
        """Build a report by streaming ``timings`` through the accumulator."""
        stats = RequestStats()
        for timing in timings:
            stats.observe(timing)
        return cls(
            stats=stats,
            makespan_s=makespan_s,
            mean_queue_depth=mean_queue_depth,
            max_queue_depth=max_queue_depth,
            n_iterations=n_iterations,
            n_prefills=n_prefills,
            n_preemptions=n_preemptions,
            depth=depth,
        )

    @property
    def n_requests(self) -> int:
        return self.stats.n

    @property
    def generated_tokens(self) -> int:
        return self.stats.generated_tokens

    @property
    def throughput_tokens_per_s(self) -> float:
        if not self.n_requests:
            return 0.0
        return self.generated_tokens / self.makespan_s

    @property
    def completed_per_s(self) -> float:
        if not self.n_requests:
            return 0.0
        return self.n_requests / self.makespan_s

    # -- latency distributions -------------------------------------------------

    def ttft_percentile(self, p: float) -> float:
        return self.stats.ttft_percentile(p)

    def tpot_percentile(self, p: float) -> float:
        return self.stats.tpot_percentile(p)

    def e2e_percentile(self, p: float) -> float:
        return self.stats.e2e_percentile(p)

    def queue_depth_percentile(self, p: float) -> float:
        """Time-weighted depth percentile (NaN without a depth sketch)."""
        if self.depth is None:
            return float("nan")
        return self.depth.percentile(p)

    @property
    def prefix_cache_hit_rate(self) -> float:
        """Fraction of prompt tokens served from the prefix cache.

        0.0 when the run priced no prompt tokens through a cache at all
        (schedulers without one report zero hits *and* zero misses).
        """
        total = self.cache_hit_tokens + self.cache_miss_tokens
        if total == 0:
            return 0.0
        return self.cache_hit_tokens / total

    @property
    def remote_prefix_hit_rate(self) -> float:
        """Fraction of cache-priced prompt tokens pulled from a remote
        replica through the shared tier (a sub-rate of
        :attr:`prefix_cache_hit_rate`; 0.0 without a tier)."""
        total = self.cache_hit_tokens + self.cache_miss_tokens
        if total == 0:
            return 0.0
        return self.remote_hit_tokens / total

    # -- SLO-conditioned metrics ----------------------------------------------

    def slo_attainment(self, slo: SloSpec) -> float:
        """Fraction of requests that met the SLO (0 when none completed)."""
        if not self.n_requests:
            return 0.0
        return self.stats.slo_met(slo) / self.n_requests

    def goodput(self, slo: SloSpec) -> float:
        """SLO-meeting completions per second of makespan."""
        if not self.n_requests:
            return 0.0
        return self.stats.slo_met(slo) / self.makespan_s

    def to_payload(self, slo: SloSpec | None = None) -> dict:
        """JSON-serializable summary (what the ``serving_slo`` trial caches)."""
        payload = {
            "n_requests": self.n_requests,
            "makespan_s": self.makespan_s,
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "completed_per_s": self.completed_per_s,
            "ttft_p50_s": self.ttft_percentile(50),
            "ttft_p95_s": self.ttft_percentile(95),
            "ttft_p99_s": self.ttft_percentile(99),
            "tpot_p50_s": self.tpot_percentile(50),
            "tpot_p99_s": self.tpot_percentile(99),
            "e2e_p50_s": self.e2e_percentile(50),
            "e2e_p99_s": self.e2e_percentile(99),
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "n_iterations": self.n_iterations,
            "n_prefills": self.n_prefills,
            "n_preemptions": self.n_preemptions,
        }
        if self.depth is not None:
            # Conditional: hand-built reports without a sketch keep their
            # historical payload keys (and NaN would not survive a JSON
            # round-trip anyway).
            payload["queue_depth_p50"] = self.queue_depth_percentile(50)
            payload["queue_depth_p99"] = self.queue_depth_percentile(99)
        if self.cache_hit_tokens or self.cache_miss_tokens:
            # Conditional like the depth keys: runs under a cacheless
            # scheduler keep their historical payload shape.
            payload["cache_hit_tokens"] = self.cache_hit_tokens
            payload["cache_miss_tokens"] = self.cache_miss_tokens
            payload["cache_evictions"] = self.cache_evictions
            payload["prefix_cache_hit_rate"] = self.prefix_cache_hit_rate
        if self.remote_hit_tokens or self.kv_transfers:
            # Conditional again: only shared-tier runs grow these keys.
            payload["remote_hit_tokens"] = self.remote_hit_tokens
            payload["transferred_bytes"] = self.transferred_bytes
            payload["kv_transfers"] = self.kv_transfers
            payload["remote_prefix_hit_rate"] = self.remote_prefix_hit_rate
        if self.handoffs:
            # And only disaggregated fleets grow the handoff keys.
            payload["n_handoffs"] = self.handoffs
            payload["handoff_bytes"] = self.handoff_bytes
        if slo is not None:
            payload["slo_ttft_s"] = slo.ttft_s
            payload["slo_tpot_s"] = slo.tpot_s
            payload["slo_attainment"] = self.slo_attainment(slo)
            payload["goodput_rps"] = self.goodput(slo)
        return payload


@dataclasses.dataclass(frozen=True)
class EngineStats(EngineCounters):
    """Streaming outcome of one engine run (the O(1)-memory EngineTrace).

    What :meth:`ServingEngine.serve_stats` returns: the per-request
    stream already folded into a :class:`RequestStats`, plus the same
    run-level fields :class:`~repro.serving.engine.EngineTrace`
    carries — everything :meth:`report` needs, nothing per-event.
    """

    requests: RequestStats
    start_s: float  #: first arrival
    end_s: float  #: last completion
    mean_queue_depth: float
    max_queue_depth: int
    n_iterations: int
    n_prefills: int
    preemptions: int = 0
    depth: DepthSketch | None = None

    @property
    def makespan_s(self) -> float:
        return self.end_s - self.start_s

    def report(self) -> ServingReport:
        return ServingReport(
            stats=self.requests,
            makespan_s=self.makespan_s,
            mean_queue_depth=self.mean_queue_depth,
            max_queue_depth=self.max_queue_depth,
            n_iterations=self.n_iterations,
            n_prefills=self.n_prefills,
            n_preemptions=self.preemptions,
            depth=self.depth,
            **self.counters(),
        )

    @classmethod
    def merge(cls, parts: Sequence["EngineStats"]) -> "EngineStats":
        """Fold replica stats into one, mirroring ``ClusterTrace.merged``:
        identity for a single part, :func:`merge_runs` for many."""
        if not parts:
            raise ValueError("cannot merge zero engine stats")
        if len(parts) == 1:
            return parts[0]
        return cls(
            requests=RequestStats.merge(p.requests for p in parts),
            n_iterations=sum(p.n_iterations for p in parts),
            n_prefills=sum(p.n_prefills for p in parts),
            **merge_runs(parts),
        )
