"""Flight recorder for the serving engine: spans, gauges, exporters.

End-of-run aggregates (a :class:`~repro.serving.metrics.ServingReport`)
can say *that* goodput fell past the knee or *that* preemptions rose —
never *when* or *why*.  This module adds the time axis back: a
:class:`Collector` taps the engine's event loop and records

* **spans** — every priced stretch of simulated time, tagged with the
  requests it served: monolithic prefills, prefill chunks, restore
  re-prefills, KV handoffs, and whole decode runs (one span per run;
  the batch provably cannot change mid-run, so the span's members hold
  for its entire ``[t0, t1]`` — expanding it per request at export
  time is exact, not an approximation);
* **gauges** — sampled at every batch-composition event: waiting-queue
  depth, running batch size, :class:`~repro.serving.memory.BlockPool`
  blocks in use, cumulative preemptions, cumulative prefill/decode
  token counters, and the scheduler's cumulative prefix-cache and
  shared-tier counters (:data:`GAUGED_COUNTERS`, zero without a cache);
* **preempt spans** — each eviction paired with the start of its restore
  re-prefill, so the time a request's KV spent evicted is a first-class
  interval.

**Overhead contract.**  The engine guards every telemetry touch behind a
single ``tel`` bool (``collector is not None and collector.enabled``), so
serving without telemetry (``None``, or a disabled base
:class:`Collector`) costs one falsy check per event and the simulation
stays bit-exact — asserted by
``tests/serving/test_telemetry.py`` across every scheduler configuration
and enforced by the CI ``perf-wallclock`` job, which also bounds the
telemetry-*on* wall-clock overhead (≤ 15% over the bare engine on the
100k-request trace).  Hooks store plain values — request ids,
timestamps, counts — in flat tuples and lists, never dicts and never a
reference to the engine's request objects, so a recorded run keeps no
:class:`RunningRequest` alive for the garbage collector to traverse;
request timings materialize from the stored fields at export.

Exporters on the collected :class:`Timeline`:

* :meth:`Timeline.to_trace_events` — Chrome trace-event / Perfetto JSON:
  one process per replica, an ``engine`` thread carrying every priced
  span plus counter tracks, and one thread per request so its lifecycle
  reads as a row (``repro trace export`` on the CLI);
* :meth:`Timeline.windowed` — a per-window time-series (TTFT/TPOT
  percentiles via the same :class:`~repro.serving.metrics.RequestStats`
  reservoir the reports use, goodput, engine occupancy, sampled queue
  depth, preemption deltas) consumed by the ``utilization_timeline``
  figure.
"""

from __future__ import annotations

import dataclasses
import json
import math
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from operator import attrgetter

from repro.serving.metrics import (
    EngineCounters,
    RequestStats,
    RequestTiming,
    SloSpec,
)
from repro.serving.schedulers import RunningRequest

#: span kinds a collector may receive (restore = post-preemption
#: re-prefill; handoff = a disaggregated continuation's KV landing over
#: the wire, always 0 tokens — nothing is computed during one)
SPAN_KINDS = ("prefill", "chunk", "restore", "handoff", "decode")

#: the cumulative counters a gauge row keeps, in row order (slots 7-11)
GAUGED_COUNTERS = (
    "cache_hit_tokens", "cache_miss_tokens", "cache_evictions",
    "remote_hit_tokens", "transferred_bytes",
)
#: their values when the scheduler produces none (the field defaults)
_UNGAUGED = tuple(getattr(EngineCounters(), name) for name in GAUGED_COUNTERS)

#: a span member's request id
_ID = attrgetter("request_id")
#: a finished request's :class:`RequestTiming` fields, in field order,
#: and how many there are
_TIMING_NAMES = tuple(f.name for f in dataclasses.fields(RequestTiming))
_TIMING_FIELDS = attrgetter(*_TIMING_NAMES)
_ROW = len(_TIMING_NAMES)


class Collector:
    """The engine's telemetry seam: no-op hooks, disabled by default.

    The engine calls these at every batch-composition event; with
    :attr:`enabled` False it never gets past its one guard bool, so this
    base class is free on the hot path: ``Collector()`` and ``None``
    serve identically.
    Subclasses that record set ``enabled = True`` and override the hooks
    they care about.  ``t``/``t0``/``t1`` are simulated-clock seconds.
    """

    #: the engine hoists this into a local once per run — False means no
    #: hook is ever called, not even as a no-op
    enabled: bool = False

    def fork(self, replica: int) -> "Collector":
        """A child collector for one cluster replica's run."""
        del replica
        return self

    def prefill_span(
        self,
        t0: float,
        t1: float,
        tokens: int,
        members: Sequence[RunningRequest],
        kind: str,
    ) -> None:
        """A priced prefill-side stretch: monolithic prefill, one chunk,
        a restore, or a zero-token KV handoff."""

    def decode_span(
        self,
        t0: float,
        t1: float,
        steps: int,
        tokens: int,
        members: Sequence[RunningRequest],
    ) -> None:
        """A priced decode stretch: one iteration or a coalesced run."""

    def preempt(self, t: float, victims: Sequence[RunningRequest]) -> None:
        """A paged scheduler just evicted ``victims`` at time ``t``."""

    def finish(self, request: RunningRequest) -> None:
        """``request`` completed (its timestamps are final from now on)."""

    def gauge(
        self,
        t: float,
        queue_depth: int,
        n_running: int,
        blocks_in_use: int,
        preemptions: int,
        counters: Mapping[str, float],
    ) -> None:
        """Iteration gauges at a batch-composition event.

        ``counters`` is the scheduler's
        :meth:`~repro.serving.schedulers.Scheduler.counters` mapping:
        the run's cumulative
        :class:`~repro.serving.metrics.EngineCounters` by field name,
        empty for a policy without a prefix cache (a missing counter
        reads as zero).
        """


class Track:
    """One replica's recorded stream: spans, gauges, preempt intervals.

    Storage is plain values appended in event order: a span is a flat
    tuple naming its members by request id, and a finish appends the
    ten :class:`RequestTiming` fields to one flat list.  Timings
    materialize from those fields on demand, so the hot path never
    builds a :class:`RequestTiming`.
    """

    __slots__ = (
        "replica", "spans", "gauges", "preempt_spans", "finished",
        "prefill_tokens", "decode_tokens", "_open_preempt", "_timings",
    )

    def __init__(self, replica: int):
        self.replica = replica
        #: (kind, t0, t1, tokens, steps, member request ids) — kind in
        #: SPAN_KINDS; steps is 0 for prefill kinds, >= 1 for decode spans
        self.spans: list[tuple] = []
        #: (t, queue_depth, n_running, blocks_in_use, preemptions,
        #:  prefill_tokens_cum, decode_tokens_cum, *GAUGED_COUNTERS)
        self.gauges: list[tuple] = []
        #: (request_id, t_preempt, t_restore_start)
        self.preempt_spans: list[tuple[int, float, float]] = []
        #: the :class:`RequestTiming` fields of every finish, flat and in
        #: finish order.  Not a tuple per finish: the garbage collector
        #: tracks every tuple it has not yet scanned, so 100k of them
        #: cost more young collections, and one more full collection,
        #: than the recorder's own work
        self.finished: list = []
        self.prefill_tokens = 0
        self.decode_tokens = 0
        self._open_preempt: dict[int, float] = {}
        self._timings: list[RequestTiming] | None = None

    @property
    def empty(self) -> bool:
        return not (self.spans or self.gauges or self.finished)

    def timings(self) -> list[RequestTiming]:
        """Completed-request timings, sorted by request id (cached)."""
        fields = self.finished
        if self._timings is None or len(self._timings) * _ROW != len(fields):
            self._timings = sorted(
                (
                    RequestTiming(*fields[i : i + _ROW])
                    for i in range(0, len(fields), _ROW)
                ),
                key=lambda t: t.request_id,
            )
        return self._timings

    def busy_intervals(self) -> list[tuple[float, float]]:
        """Union of all span intervals (the engine was pricing *something*)."""
        raw = sorted((s[1], s[2]) for s in self.spans)
        merged: list[tuple[float, float]] = []
        for lo, hi in raw:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        return merged

    def bounds(self) -> tuple[float, float]:
        """(earliest, latest) simulated time this track covers."""
        if self.empty:
            raise ValueError("cannot take the bounds of an empty track")
        lows: list[float] = []
        highs: list[float] = []
        if self.spans:
            lows.append(min(s[1] for s in self.spans))
            highs.append(max(s[2] for s in self.spans))
        if self.gauges:
            lows.append(self.gauges[0][0])
            highs.append(self.gauges[-1][0])
        if self.finished:
            lows.append(min(t.arrival_s for t in self.timings()))
            highs.append(max(t.finished_s for t in self.timings()))
        return min(lows), max(highs)


class _TrackCollector(Collector):
    """Records one engine run into a :class:`Track`."""

    enabled = True
    __slots__ = ("track",)

    def __init__(self, track: Track):
        self.track = track

    def prefill_span(self, t0, t1, tokens, members, kind):
        track = self.track
        track.prefill_tokens += tokens
        track.spans.append((kind, t0, t1, tokens, 0, tuple(map(_ID, members))))
        if kind == "restore":
            # Close the matching eviction interval: a request cannot be
            # preempted twice without a restore in between.
            rid = members[0].request_id
            t_preempt = track._open_preempt.pop(rid, None)
            if t_preempt is not None:
                track.preempt_spans.append((rid, t_preempt, t0))

    def decode_span(self, t0, t1, steps, tokens, members):
        track = self.track
        track.decode_tokens += tokens
        track.spans.append(("decode", t0, t1, tokens, steps, tuple(map(_ID, members))))

    def preempt(self, t, victims):
        open_preempt = self.track._open_preempt
        for v in victims:
            open_preempt[v.request_id] = t

    def finish(self, request):
        self.track.finished.extend(_TIMING_FIELDS(request))

    def gauge(self, t, queue_depth, n_running, blocks_in_use, preemptions, counters):
        track = self.track
        track.gauges.append(
            (
                t, queue_depth, n_running, blocks_in_use, preemptions,
                track.prefill_tokens, track.decode_tokens,
            )
            + (
                tuple(map(counters.get, GAUGED_COUNTERS, _UNGAUGED))
                if counters
                else _UNGAUGED
            )
        )


class Timeline:
    """Every track of one run (a bare engine holds one, a cluster N)."""

    def __init__(self):
        self._tracks: dict[int, Track] = {}

    def track(self, replica: int) -> Track:
        """The replica's track, created on first use."""
        track = self._tracks.get(replica)
        if track is None:
            track = self._tracks[replica] = Track(replica)
        return track

    @property
    def tracks(self) -> list[Track]:
        """Non-empty tracks, ordered by replica index."""
        return [
            t
            for _, t in sorted(self._tracks.items())
            if not t.empty
        ]

    def bounds(self) -> tuple[float, float]:
        tracks = self.tracks
        if not tracks:
            raise ValueError("cannot take the bounds of an empty timeline")
        per = [t.bounds() for t in tracks]
        return min(lo for lo, _ in per), max(hi for _, hi in per)

    # -- exporter 1: windowed time-series -----------------------------------

    def windowed(
        self, n_windows: int, slo: SloSpec | None = None
    ) -> list[dict]:
        """Per-window serving quality over the run's ``[start, end]`` span.

        Each row aggregates the requests that *finished* inside the
        window through a fresh :class:`RequestStats` (so percentiles are
        computed exactly as the end-of-run report computes them), plus:
        ``occupancy`` — the fraction of window × track time covered by
        the union of priced spans; ``mean_queue_depth`` — the average of
        the gauge samples falling in the window (``None`` when none do);
        ``preemptions`` — the delta of the cumulative preemption counter
        across the window.  Latency fields are ``None`` (not NaN — rows
        must survive a JSON round-trip) for windows nothing finished in.
        """
        if n_windows < 1:
            raise ValueError("n_windows must be positive")
        tracks = self.tracks
        t0, t1 = self.bounds()
        span = max(t1 - t0, 1e-12)
        width = span / n_windows
        busy = [t.busy_intervals() for t in tracks]
        gauge_ts = [[g[0] for g in t.gauges] for t in tracks]
        rows: list[dict] = []
        for w in range(n_windows):
            w0 = t0 + w * width
            w1 = t1 if w == n_windows - 1 else t0 + (w + 1) * width
            stats = RequestStats()
            busy_s = 0.0
            depth_sum = 0.0
            depth_n = 0
            preempt_delta = 0
            for track, intervals, ts in zip(tracks, busy, gauge_ts):
                for timing in track.timings():
                    # Half-open windows; the final window also takes its
                    # right edge so the last completion is never dropped.
                    if w0 <= timing.finished_s < w1 or (
                        w == n_windows - 1 and timing.finished_s == w1
                    ):
                        stats.observe(timing)
                for lo, hi in intervals:
                    if hi <= w0 or lo >= w1:
                        continue
                    busy_s += min(hi, w1) - max(lo, w0)
                lo_i = bisect_right(ts, w0)
                hi_i = bisect_right(ts, w1)
                for g in track.gauges[lo_i:hi_i]:
                    depth_sum += g[1]
                    depth_n += 1
                # Cumulative counter delta across the window's edges.
                before = track.gauges[lo_i - 1][4] if lo_i > 0 else 0
                after = track.gauges[hi_i - 1][4] if hi_i > 0 else 0
                preempt_delta += after - before
            n = stats.n
            row: dict = {
                "window": w,
                "t0_s": w0,
                "t1_s": w1,
                "n_finished": n,
                "ttft_p50_s": stats.ttft_percentile(50) if n else None,
                "ttft_p99_s": stats.ttft_percentile(99) if n else None,
                "tpot_p99_s": stats.tpot_percentile(99) if n else None,
                "occupancy": busy_s / ((w1 - w0) * max(len(tracks), 1)),
                "mean_queue_depth": (
                    depth_sum / depth_n if depth_n else None
                ),
                "preemptions": preempt_delta,
            }
            if slo is not None:
                met = stats.slo_met(slo)
                row["slo_attainment"] = met / n if n else None
                row["goodput_rps"] = met / (w1 - w0)
            rows.append(row)
        return rows

    # -- exporter 2: Chrome trace-event / Perfetto JSON ----------------------

    def to_trace_events(self) -> dict:
        """The run as trace-event JSON (load in Perfetto / chrome://tracing).

        Layout: one *process* per replica.  Thread 0 (``engine``) carries
        every priced span exactly once plus the counter tracks; thread
        ``request_id + 1`` carries that request's own row — its spans
        re-emitted per member (exact for coalesced runs: the batch could
        not change mid-run) and its ``preempted`` gap intervals — so a
        request's whole lifecycle reads left to right.  Timestamps are
        simulated-clock microseconds (the trace-event unit).
        """

        def us(seconds: float) -> float:
            return round(seconds * 1e6, 3)

        events: list[dict] = []
        for track in self.tracks:
            pid = track.replica
            events.append(
                {
                    "ph": "M", "pid": pid, "tid": 0,
                    "name": "process_name",
                    "args": {"name": f"replica {pid}"},
                }
            )
            events.append(
                {
                    "ph": "M", "pid": pid, "tid": 0,
                    "name": "thread_name",
                    "args": {"name": "engine"},
                }
            )
            rids = sorted({rid for s in track.spans for rid in s[5]})
            for rid in rids:
                events.append(
                    {
                        "ph": "M", "pid": pid, "tid": rid + 1,
                        "name": "thread_name",
                        "args": {"name": f"request {rid}"},
                    }
                )
            for kind, t0, t1, tokens, steps, members in track.spans:
                base = {
                    "ph": "X", "pid": pid, "cat": "serving",
                    "name": kind, "ts": us(t0), "dur": us(t1 - t0),
                }
                args = {"tokens": tokens, "batch": len(members)}
                if steps:
                    args["steps"] = steps
                events.append({**base, "tid": 0, "args": args})
                for rid in members:
                    events.append({**base, "tid": rid + 1, "args": args})
            for rid, t_preempt, t_restore in track.preempt_spans:
                events.append(
                    {
                        "ph": "X", "pid": pid, "tid": rid + 1,
                        "cat": "serving", "name": "preempted",
                        "ts": us(t_preempt),
                        "dur": us(t_restore - t_preempt),
                        "args": {},
                    }
                )
            any_cache = any(
                g[7] or g[8] or g[9] for g in track.gauges
            )
            any_remote = any(
                g[10] or g[11] for g in track.gauges
            )
            for (
                t, depth, running, blocks, preempts, pf_tok, dc_tok,
                hit_tok, miss_tok, evictions, remote_tok, xfer_bytes,
            ) in track.gauges:
                ts = us(t)
                counters = [
                    ("queue_depth", {"requests": depth}),
                    ("running", {"requests": running}),
                    ("blocks_in_use", {"blocks": blocks}),
                    ("preemptions", {"count": preempts}),
                    ("tokens", {"prefill": pf_tok, "decode": dc_tok}),
                ]
                if any_cache:
                    # Only runs under a prefix-caching scheduler grow the
                    # extra track; cacheless exports keep their shape.
                    counters.append((
                        "prefix_cache",
                        {
                            "hit_tokens": hit_tok,
                            "miss_tokens": miss_tok,
                            "evictions": evictions,
                        },
                    ))
                if any_remote:
                    # And only shared-tier runs grow the transfer track.
                    counters.append((
                        "kv_transfer",
                        {
                            "remote_hit_tokens": remote_tok,
                            "transferred_bytes": xfer_bytes,
                        },
                    ))
                for name, args in counters:
                    events.append(
                        {
                            "ph": "C", "pid": pid, "tid": 0,
                            "name": name, "ts": ts, "args": args,
                        }
                    )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulated seconds, exported as microseconds",
                "tracks": len(self.tracks),
            },
        }


def validate_trace_events(payload: object) -> list[str]:
    """Schema-check a trace-event payload; returns problems (empty = ok).

    Checks what Perfetto/chrome://tracing actually require to load the
    file: a ``traceEvents`` list of dict events, each with a known phase
    and pid/tid/name, complete (``X``) events carrying finite numeric
    ``ts`` and non-negative ``dur``, and counter (``C``) events carrying
    only numeric series values.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload has no traceEvents list"]

    def numeric(value: object) -> bool:
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
        )

    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M", "C"):
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        for key in ("pid", "tid", "name"):
            if key not in event:
                errors.append(f"{where}: missing {key!r}")
        if ph in ("X", "C"):
            if not numeric(event.get("ts")):
                errors.append(f"{where}: ts is not finite")
        if ph == "X":
            dur = event.get("dur")
            if not numeric(dur) or dur < 0:
                errors.append(f"{where}: dur is not a finite non-negative")
        if ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                errors.append(f"{where}: counter without series args")
            else:
                for series, value in args.items():
                    if not numeric(value):
                        errors.append(
                            f"{where}: counter series {series!r} "
                            "is not numeric"
                        )
        if ph == "M" and not isinstance(event.get("args"), dict):
            errors.append(f"{where}: metadata without args")
    return errors


def write_trace_file(timeline: Timeline, path: str) -> dict:
    """Export ``timeline`` as validated trace-event JSON at ``path``."""
    payload = timeline.to_trace_events()
    errors = validate_trace_events(payload)
    if errors:
        raise ValueError(
            "refusing to write an invalid trace: " + "; ".join(errors[:5])
        )
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return payload


class TimelineCollector(_TrackCollector):
    """The collector to hand an engine (or cluster) run.

    Records into an owned :class:`Timeline`: a bare
    :class:`~repro.serving.engine.ServingEngine` writes track 0
    directly; a :class:`~repro.serving.cluster.ClusterEngine` calls
    :meth:`fork` per dispatched replica and each child writes its own
    track.  After the run, export via :attr:`timeline`
    (:meth:`Timeline.to_trace_events` / :meth:`Timeline.windowed`).
    """

    __slots__ = ("timeline",)

    def __init__(self):
        self.timeline = Timeline()
        super().__init__(self.timeline.track(0))

    def fork(self, replica: int) -> Collector:
        return _TrackCollector(self.timeline.track(replica))
