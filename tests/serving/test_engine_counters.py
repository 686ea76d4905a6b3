"""Every run-level counter survives every conversion and merge.

The counters are declared once, as the fields of ``EngineCounters``.
These tests iterate over ``dataclasses.fields(EngineCounters)``, never
over a hand-written list, so a counter added there is covered here with
no edit: a conversion or merge that forgets one fails.
"""

import dataclasses

from repro.models import spec_for
from repro.perf.system import SystemKind, build_system
from repro.serving import (
    ClusterTrace,
    DepthSketch,
    EngineCounters,
    EngineStats,
    EngineTrace,
    build_cluster,
    multiturn_chat_trace,
)

COUNTERS = [f.name for f in dataclasses.fields(EngineCounters)]


def replica_record(replica: int) -> EngineTrace:
    """A hand-built replica record whose every counter is nonzero and
    distinct, from each other and from the other replicas' counters."""
    return EngineTrace(
        timings=(),
        iteration_seconds=(0.5,),
        decode_tokens=(1,),
        prefill_seconds=(0.25,),
        prefill_tokens=(8,),
        start_s=float(replica),
        end_s=replica + 2.0,
        mean_queue_depth=1.0,
        max_queue_depth=2,
        depth=DepthSketch(),
        **{
            f.name: type(f.default)(100 * (replica + 1) + i + 1)
            for i, f in enumerate(dataclasses.fields(EngineCounters))
        },
    )


PARTS = (replica_record(0), replica_record(1), replica_record(2))


def assert_counters(record, expected: dict) -> None:
    for name in COUNTERS:
        assert getattr(record, name) == expected[name], name


def summed(parts) -> dict:
    return {name: sum(getattr(p, name) for p in parts) for name in COUNTERS}


class TestConversions:
    def test_hand_built_counters_are_distinct_and_nonzero(self):
        values = [getattr(p, name) for p in PARTS for name in COUNTERS]
        assert all(values)
        assert len(set(values)) == len(values)

    def test_stats_and_report_carry_every_counter(self):
        record = PARTS[0]
        stats = record.stats()
        assert_counters(stats, record.counters())
        assert_counters(stats.report(), record.counters())
        assert_counters(record.report(), record.counters())

    def test_empty_record_counts_nothing(self):
        empty = EngineTrace.empty()
        assert_counters(empty, dict.fromkeys(COUNTERS, 0))
        assert_counters(empty.report(), dict.fromkeys(COUNTERS, 0))


class TestMerges:
    def test_cluster_trace_merge_sums_every_counter(self):
        merged = ClusterTrace(
            assignments=(),
            replicas=PARTS,
            router="round-robin",
            phases=("both",) * len(PARTS),
        ).merged()
        assert_counters(merged, summed(PARTS))

    def test_cluster_trace_report_sums_every_counter(self):
        report = ClusterTrace(
            assignments=(),
            replicas=(*PARTS, None),
            router="round-robin",
            phases=("both",) * (len(PARTS) + 1),
        ).report()
        assert_counters(report, summed(PARTS))
        for entry, part in zip(report.per_replica, PARTS):
            assert_counters(entry.stats, part.counters())

    def test_streaming_merge_sums_every_counter(self):
        merged = EngineStats.merge([p.stats() for p in PARTS])
        assert_counters(merged, summed(PARTS))
        assert_counters(merged.report(), summed(PARTS))


class TestServedCounters:
    def test_streaming_and_recorded_merges_agree(self):
        """On a colocated 4-replica shared-tier cluster, the streaming
        merge (``run``) and the event-record merge (``serve().report()``)
        agree on every counter, ``busy_s`` included."""
        system = build_system(SystemKind.PIMBA, "small")
        cluster = build_cluster(
            system, spec_for("Zamba2"), 4, router="cache-aware",
            scheduler="prefix", max_batch=64, shared_tier=True,
        )
        trace = multiturn_chat_trace(
            2.0, 16, turns=4, first_input=512, output_len=32, seed=0
        )
        streamed = cluster.run(trace)
        recorded = cluster.serve(trace).report()
        # The run exercises the cache, the tier and the busy clock.
        assert streamed.cache_hit_tokens > 0
        assert streamed.kv_transfers > 0
        assert streamed.busy_s > 0.0
        assert_counters(streamed, recorded.counters())
        for a, b in zip(streamed.per_replica, recorded.per_replica):
            assert_counters(a.stats, b.stats.counters())
        assert streamed.to_payload() == recorded.to_payload()
