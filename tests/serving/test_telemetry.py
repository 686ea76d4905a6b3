"""The flight recorder: zero-cost seam, conservation laws, exporters.

Three contracts keep the telemetry honest.  First, *observation must not
perturb*: serving with ``None``, a disabled :class:`Collector`, or a full
:class:`TimelineCollector` attached must produce the bit-identical
:class:`~repro.serving.engine.EngineTrace` across every scheduler
configuration — the collector reads the simulation, it never steers it.
Second, *conservation*: the spans a collector records must re-add to the
engine's own priced totals (prefill/decode token sums, preemption
counts, completed requests) — a span stream that disagrees with the
report it annotates is worse than none.  Third, the *exporters* are
load-bearing: the Perfetto JSON must stay schema-valid (pinned by a
golden file regenerated from a deterministic run) and the windowed
time-series must partition the run without losing requests.
"""

import copy
import dataclasses
import importlib.util
import json
import math
import pathlib

import pytest

from repro.models import spec_for
from repro.perf.system import SystemKind, build_system
from repro.serving import (
    Collector,
    MemoryAwareScheduler,
    MemoryModel,
    PagedScheduler,
    PrefixCachingScheduler,
    ServingEngine,
    SloSpec,
    TimelineCollector,
    build_cluster,
    build_scheduler,
    fixed_lengths,
    gamma_trace,
    multiturn_chat_trace,
    poisson_trace,
    validate_trace_events,
    write_trace_file,
)
from repro.workloads.requests import Request, TimedRequest, Trace

BUDGET = 96

SCHEDULERS = (
    "static", "fcfs", "memory", "chunked", "overlap", "chunked+hbm",
    "paged", "paged+tight", "prefix", "prefix+tight",
)

SLO = SloSpec(ttft_s=2.0, tpot_s=0.018)

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "perfetto_golden.json"

_spec = importlib.util.spec_from_file_location(
    "make_perfetto_golden",
    pathlib.Path(__file__).resolve().parents[2] / "tools" / "make_perfetto_golden.py",
)
make_perfetto_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_perfetto_golden)


@pytest.fixture(scope="module")
def zamba_spec():
    return spec_for("Zamba2")


@pytest.fixture(scope="module")
def pimba_system():
    return build_system(SystemKind.PIMBA, "small")


def make_scheduler(name, system, spec):
    """The equivalence harness's scheduler grid (same configs, same knobs)."""
    if name == "chunked+hbm":
        return MemoryAwareScheduler(
            MemoryModel.for_system(system, spec),
            system.capacity_bytes,
            max_batch=8,
            chunk_budget=BUDGET,
        )
    if name in ("paged+tight", "prefix+tight"):
        cls = PagedScheduler if name == "paged+tight" else (
            PrefixCachingScheduler
        )
        memory = MemoryModel.for_system(system, spec)
        return cls(
            memory,
            memory.weights_bytes + 2.93 * memory.request_bytes(256, 32),
            block_size=16,
            max_batch=8,
        )
    shape = {"chunk_budget": BUDGET} if name in ("chunked", "overlap") else {}
    return build_scheduler(name, system, spec, max_batch=8, **shape)


def bursty_trace():
    """Bursty enough to queue, sized to preempt under ``paged+tight``."""
    return gamma_trace(8.0, 24, cv=3.0, lengths=fixed_lengths(256, 32), seed=1)


def recorded_run(system, spec, scheduler_name="paged+tight", trace=None):
    trace = bursty_trace() if trace is None else trace
    engine = ServingEngine(
        system, spec, make_scheduler(scheduler_name, system, spec)
    )
    collector = TimelineCollector()
    record = engine.serve(trace, collector=collector)
    return record, collector.timeline


@pytest.mark.parametrize("scheduler_name", SCHEDULERS)
class TestObservationDoesNotPerturb:
    """Any collector — null or recording — leaves the simulation bit-exact."""

    def test_null_collector_is_absent_collector(
        self, scheduler_name, pimba_system, zamba_spec
    ):
        trace = bursty_trace()
        bare = ServingEngine(
            pimba_system,
            zamba_spec,
            make_scheduler(scheduler_name, pimba_system, zamba_spec),
        ).serve(trace)
        nulled = ServingEngine(
            pimba_system,
            zamba_spec,
            make_scheduler(scheduler_name, pimba_system, zamba_spec),
        ).serve(trace, collector=Collector())
        assert dataclasses.asdict(nulled) == dataclasses.asdict(bare)

    def test_recording_collector_is_absent_collector(
        self, scheduler_name, pimba_system, zamba_spec
    ):
        trace = bursty_trace()
        bare = ServingEngine(
            pimba_system,
            zamba_spec,
            make_scheduler(scheduler_name, pimba_system, zamba_spec),
        ).serve(trace)
        recorded, timeline = recorded_run(
            pimba_system, zamba_spec, scheduler_name, trace
        )
        assert dataclasses.asdict(recorded) == dataclasses.asdict(bare)
        assert timeline.tracks  # and it actually recorded something


class TestConservation:
    """Spans and gauges must re-add to the engine's own priced totals."""

    def test_span_token_sums_match_engine_totals(
        self, pimba_system, zamba_spec
    ):
        record, timeline = recorded_run(pimba_system, zamba_spec)
        (track,) = timeline.tracks
        prefill = sum(s[3] for s in track.spans if s[0] != "decode")
        decode = sum(s[3] for s in track.spans if s[0] == "decode")
        assert prefill == sum(record.prefill_tokens)
        assert decode == sum(record.decode_tokens)
        assert track.prefill_tokens == prefill
        assert track.decode_tokens == decode

    @pytest.mark.parametrize("scheduler_name", ["paged", "paged+tight", "prefix+tight"])
    def test_decode_spans_partition_the_iterations(
        self, scheduler_name, pimba_system, zamba_spec
    ):
        """Each decode span covers at least one priced iteration and a
        positive stretch of time, and the spans cover every iteration
        once: a run that a block claim opened splits off the claim's own
        span, and never an empty remainder."""
        record, timeline = recorded_run(pimba_system, zamba_spec, scheduler_name)
        (track,) = timeline.tracks
        decode = [s for s in track.spans if s[0] == "decode"]
        assert all(s[4] >= 1 and s[2] > s[1] for s in decode)
        assert sum(s[4] for s in decode) == len(record.iteration_seconds)

    def test_preempt_spans_match_preemption_count(
        self, pimba_system, zamba_spec
    ):
        record, timeline = recorded_run(pimba_system, zamba_spec)
        (track,) = timeline.tracks
        # Every evicted request restores before it can finish, and the
        # run drains completely — so every eviction closes an interval.
        assert record.preemptions > 0  # the config must actually thrash
        assert len(track.preempt_spans) == record.preemptions
        for _rid, t_preempt, t_restore in track.preempt_spans:
            assert t_preempt < t_restore

    def test_finished_requests_match_engine_timings(
        self, pimba_system, zamba_spec
    ):
        record, timeline = recorded_run(pimba_system, zamba_spec)
        (track,) = timeline.tracks
        assert track.timings() == sorted(
            record.timings, key=lambda t: t.request_id
        )

    def test_finished_requests_match_engine_timings_with_shared_tier(
        self, pimba_system, zamba_spec
    ):
        """Every timing field survives the recorder, including the
        remote-token count only a shared prefix tier makes nonzero."""
        chat = multiturn_chat_trace(
            3.0, 12, turns=4, first_input=512, output_len=64, seed=0
        )
        cluster = build_cluster(
            pimba_system, zamba_spec, 4,
            router="cache-aware", scheduler="prefix", max_batch=512,
            capacity_bytes=10 * 2**30, shared_tier=True,
        )
        collector = TimelineCollector()
        record = cluster.serve(chat, collector=collector)
        assert record.merged().remote_hit_tokens > 0
        tracks = collector.timeline.tracks
        assert tracks
        for track in tracks:
            assert track.timings() == sorted(
                record.replicas[track.replica].timings,
                key=lambda t: t.request_id,
            )
        assert sum(
            t.remote_tokens for track in tracks for t in track.timings()
        ) == record.merged().remote_hit_tokens

    def test_gauge_counters_are_cumulative(self, pimba_system, zamba_spec):
        record, timeline = recorded_run(pimba_system, zamba_spec)
        (track,) = timeline.tracks
        for prev, cur in zip(track.gauges, track.gauges[1:]):
            assert cur[0] >= prev[0]  # time
            assert cur[4] >= prev[4]  # preemptions
            assert cur[5] >= prev[5]  # prefill tokens
            assert cur[6] >= prev[6]  # decode tokens
        assert track.gauges[-1][4] == record.preemptions
        assert max(g[1] for g in track.gauges) <= record.max_queue_depth

    def test_paged_gauges_see_blocks_in_use(self, pimba_system, zamba_spec):
        _, timeline = recorded_run(pimba_system, zamba_spec)
        (track,) = timeline.tracks
        assert max(g[3] for g in track.gauges) > 0

    def test_non_paged_gauges_report_zero_blocks(
        self, pimba_system, zamba_spec
    ):
        _, timeline = recorded_run(pimba_system, zamba_spec, "fcfs")
        (track,) = timeline.tracks
        assert all(g[3] == 0 for g in track.gauges)


class TestQueueDepthPercentiles:
    """Satellite: depth p50/p99 ride every report, sketch-backed."""

    def test_report_payload_carries_depth_percentiles(
        self, pimba_system, zamba_spec
    ):
        engine = ServingEngine(
            pimba_system,
            zamba_spec,
            make_scheduler("fcfs", pimba_system, zamba_spec),
        )
        report = engine.run(bursty_trace())
        payload = report.to_payload(SLO)
        p50 = payload["queue_depth_p50"]
        p99 = payload["queue_depth_p99"]
        assert 0.0 <= p50 <= p99 <= report.max_queue_depth
        assert report.queue_depth_percentile(50) == p50

    def test_depthless_report_omits_the_keys(self):
        from repro.serving.metrics import RequestStats, ServingReport

        report = ServingReport(
            stats=RequestStats(),
            makespan_s=1.0,
            mean_queue_depth=0.0,
            max_queue_depth=0,
            n_iterations=0,
            n_prefills=0,
        )
        payload = report.to_payload()
        assert "queue_depth_p50" not in payload
        assert "queue_depth_p99" not in payload
        assert math.isnan(report.queue_depth_percentile(50))


class TestIdleTailSpan:
    """Satellite: event-record and streaming reports agree on the depth
    integral's ``[start, end]`` span even when the run has a long idle
    stretch (queue empty, clock jumping) before a straggler arrives."""

    def idle_tail_trace(self):
        burst = [
            TimedRequest(Request(i, 128, 16), arrival_s=0.01 * i)
            for i in range(6)
        ]
        straggler = TimedRequest(Request(6, 128, 16), arrival_s=60.0)
        return Trace(requests=(*burst, straggler))

    def test_streaming_report_matches_event_record(
        self, pimba_system, zamba_spec
    ):
        trace = self.idle_tail_trace()
        recorded = ServingEngine(
            pimba_system,
            zamba_spec,
            make_scheduler("fcfs", pimba_system, zamba_spec),
        ).serve(trace).report()
        streamed = ServingEngine(
            pimba_system,
            zamba_spec,
            make_scheduler("fcfs", pimba_system, zamba_spec),
        ).run(trace)
        assert streamed.to_payload(SLO) == recorded.to_payload(SLO)
        assert streamed.mean_queue_depth == recorded.mean_queue_depth
        # The idle stretch dominates the span, so the time-weighted
        # depth percentile must see it as depth zero.
        assert streamed.makespan_s > 60.0
        assert streamed.queue_depth_percentile(50) == 0.0


class TestPerfettoExport:
    def test_golden_trace_is_reproduced(self):
        """The exporter's byte-level schema is pinned by a committed
        golden file, replayed from the run the tool that writes it
        declares; regenerate with
        ``python tools/make_perfetto_golden.py`` when the format
        changes *on purpose*."""
        payload = json.loads(json.dumps(make_perfetto_golden.golden_payload()))
        golden = json.loads(GOLDEN_PATH.read_text())
        assert payload == golden

    def test_golden_trace_is_schema_valid(self):
        assert validate_trace_events(json.loads(GOLDEN_PATH.read_text())) == []

    def test_prefix_cache_counter_track_only_when_cache_engaged(
        self, pimba_system, zamba_spec
    ):
        """A prefix-caching run with hits grows a ``prefix_cache``
        counter track; cacheless runs keep the historical export shape
        byte for byte (which is why the golden file did not change)."""
        chat = multiturn_chat_trace(
            0.5, 4, turns=3, first_input=256, user_tokens=32,
            output_len=32, think_s=2.0, seed=0,
        )
        record, timeline = recorded_run(
            pimba_system, zamba_spec, "prefix", chat
        )
        assert record.cache_hit_tokens > 0
        payload = timeline.to_trace_events()
        assert validate_trace_events(payload) == []
        cached = [
            e for e in payload["traceEvents"]
            if e.get("ph") == "C" and e.get("name") == "prefix_cache"
        ]
        assert cached
        assert max(e["args"]["hit_tokens"] for e in cached) == (
            record.cache_hit_tokens
        )
        _, cold = recorded_run(pimba_system, zamba_spec, "paged+tight", chat)
        assert not any(
            e.get("name") == "prefix_cache"
            for e in cold.to_trace_events()["traceEvents"]
        )

    def test_validator_rejects_corruption(self):
        golden = json.loads(GOLDEN_PATH.read_text())

        broken = copy.deepcopy(golden)
        broken["traceEvents"][0]["ph"] = "Z"
        assert validate_trace_events(broken)

        broken = copy.deepcopy(golden)
        first_x = next(
            e for e in broken["traceEvents"] if e["ph"] == "X"
        )
        first_x["dur"] = float("nan")
        assert validate_trace_events(broken)

        broken = copy.deepcopy(golden)
        first_c = next(
            e for e in broken["traceEvents"] if e["ph"] == "C"
        )
        first_c["args"] = {"requests": "many"}
        assert validate_trace_events(broken)

        broken = copy.deepcopy(golden)
        del broken["traceEvents"][0]["pid"]
        assert validate_trace_events(broken)

        assert validate_trace_events([]) == ["payload is not a JSON object"]
        assert validate_trace_events({}) == ["payload has no traceEvents list"]

    def test_every_span_reaches_engine_and_member_rows(
        self, pimba_system, zamba_spec
    ):
        _, timeline = recorded_run(pimba_system, zamba_spec)
        (track,) = timeline.tracks
        events = timeline.to_trace_events()["traceEvents"]
        engine_spans = [
            e for e in events if e["ph"] == "X" and e["tid"] == 0
        ]
        member_spans = [
            e
            for e in events
            if e["ph"] == "X" and e["tid"] != 0 and e["name"] != "preempted"
        ]
        assert len(engine_spans) == len(track.spans)
        assert len(member_spans) == sum(len(s[5]) for s in track.spans)

    def test_write_trace_file_round_trips(
        self, pimba_system, zamba_spec, tmp_path
    ):
        _, timeline = recorded_run(pimba_system, zamba_spec)
        out = tmp_path / "trace.json"
        payload = write_trace_file(timeline, str(out))
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(payload)
        )


class TestWindowedTimeline:
    def test_windows_partition_the_run(self, pimba_system, zamba_spec):
        record, timeline = recorded_run(pimba_system, zamba_spec)
        rows = timeline.windowed(6, SLO)
        assert len(rows) == 6
        assert sum(r["n_finished"] for r in rows) == len(record.timings)
        assert sum(r["preemptions"] for r in rows) == record.preemptions
        t0, t1 = timeline.bounds()
        assert rows[0]["t0_s"] == t0
        assert rows[-1]["t1_s"] == t1
        for prev, cur in zip(rows, rows[1:]):
            assert cur["t0_s"] == prev["t1_s"]
        for row in rows:
            assert 0.0 <= row["occupancy"] <= 1.0
            if row["n_finished"] == 0:
                assert row["ttft_p99_s"] is None
            else:
                assert row["ttft_p99_s"] >= 0.0

    def test_rows_survive_a_strict_json_round_trip(
        self, pimba_system, zamba_spec
    ):
        """No NaN/inf may ever reach a windowed row (the figure payloads
        and ``--json`` artifacts are plain JSON)."""
        _, timeline = recorded_run(pimba_system, zamba_spec)
        rows = timeline.windowed(5, SLO)
        assert json.loads(json.dumps(rows, allow_nan=False)) == rows

    def test_single_window_is_the_whole_run(self, pimba_system, zamba_spec):
        record, timeline = recorded_run(pimba_system, zamba_spec)
        (row,) = timeline.windowed(1, SLO)
        assert row["n_finished"] == len(record.timings)
        assert row["preemptions"] == record.preemptions

    def test_zero_windows_rejected(self, pimba_system, zamba_spec):
        _, timeline = recorded_run(pimba_system, zamba_spec)
        with pytest.raises(ValueError):
            timeline.windowed(0)


class TestClusterTimeline:
    def test_fork_keeps_one_track_per_replica(self, pimba_system, zamba_spec):
        trace = poisson_trace(20.0, 40, seed=0)
        cluster = build_cluster(
            pimba_system, zamba_spec, 2, router="round-robin", max_batch=8
        )
        collector = TimelineCollector()
        record = cluster.serve(trace, collector=collector)
        tracks = collector.timeline.tracks
        assert [t.replica for t in tracks] == [0, 1]
        total_finished = sum(len(t.timings()) for t in tracks)
        assert total_finished == len(record.merged().timings)
        assert validate_trace_events(
            collector.timeline.to_trace_events()
        ) == []

    def test_cluster_observation_does_not_perturb(
        self, pimba_system, zamba_spec
    ):
        trace = poisson_trace(20.0, 40, seed=0)

        def fleet():
            return build_cluster(
                pimba_system,
                zamba_spec,
                2,
                router="least-loaded",
                max_batch=8,
            )

        bare = fleet().run(trace).to_payload(SLO)
        watched = fleet().run(
            trace, collector=TimelineCollector()
        ).to_payload(SLO)
        assert watched == bare


class TestSplitClusterTimeline:
    """A disaggregated fleet's timeline carries the handoff story."""

    def split_fleet(self, pimba_system, zamba_spec):
        return build_cluster(
            pimba_system, zamba_spec, 2,
            router="disaggregated",
            scheduler="fcfs",
            max_batch=8,
            phases=("prefill", "decode"),
        )

    def split_trace(self):
        return poisson_trace(10.0, 24, fixed_lengths(256, 32), seed=6)

    def test_handoff_spans_land_on_decode_tracks(
        self, pimba_system, zamba_spec
    ):
        collector = TimelineCollector()
        record = self.split_fleet(pimba_system, zamba_spec).serve(
            self.split_trace(), collector=collector
        )
        by_replica = {t.replica: t for t in collector.timeline.tracks}
        handoffs = {
            replica: [s for s in track.spans if s[0] == "handoff"]
            for replica, track in by_replica.items()
        }
        # the prefill side never receives KV; one handoff span covers
        # every continuation admitted together, so the span *members*
        # across the decode track re-add to the merged handoff count
        assert handoffs[0] == []
        members = sum(len(s[5]) for s in handoffs[1])
        assert members == record.merged().handoffs
        assert members == len(record.split_ids) > 0
        # a handoff moves state, not tokens — priced time, zero work
        assert all(s[3] == 0 for s in handoffs[1])

    def test_split_span_tokens_still_conserve(
        self, pimba_system, zamba_spec
    ):
        collector = TimelineCollector()
        record = self.split_fleet(pimba_system, zamba_spec).serve(
            self.split_trace(), collector=collector
        )
        merged = record.merged()
        spans = [
            s for t in collector.timeline.tracks for s in t.spans
        ]
        prefill = sum(
            s[3] for s in spans if s[0] not in ("decode", "handoff")
        )
        decode = sum(s[3] for s in spans if s[0] == "decode")
        assert prefill == sum(merged.prefill_tokens)
        assert decode == sum(merged.decode_tokens)
        assert validate_trace_events(
            collector.timeline.to_trace_events()
        ) == []

    def test_split_observation_does_not_perturb(
        self, pimba_system, zamba_spec
    ):
        trace = self.split_trace()
        bare = self.split_fleet(pimba_system, zamba_spec).run(
            trace
        ).to_payload(SLO)
        watched = self.split_fleet(pimba_system, zamba_spec).run(
            trace, collector=TimelineCollector()
        ).to_payload(SLO)
        assert watched == bare
