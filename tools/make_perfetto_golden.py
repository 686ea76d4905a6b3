#!/usr/bin/env python
"""Regenerate the committed Perfetto golden trace.

``tests/serving/test_telemetry.py`` pins the trace-event exporter's
output byte-for-byte against ``tests/serving/data/perfetto_golden.json``
by replaying :func:`golden_payload`, the one declaration of the golden
run.  When the export format changes *on purpose*, rerun this script and
commit the refreshed golden together with the exporter change:

    PYTHONPATH=src python tools/make_perfetto_golden.py
"""

import json
import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.models import spec_for  # noqa: E402
from repro.perf.system import SystemKind, build_system  # noqa: E402
from repro.serving import (  # noqa: E402
    MemoryModel,
    PagedScheduler,
    ServingEngine,
    TimelineCollector,
    fixed_lengths,
    poisson_trace,
    validate_trace_events,
)


def golden_payload() -> dict:
    """The golden run's trace-event payload.

    The ``paged+tight`` scheduler from the equivalence grid on an
    8-request poisson trace (seed 3), so the golden covers prefills,
    coalesced decode runs, preemption/restore intervals, and every
    counter track.
    """
    spec = spec_for("Zamba2")
    system = build_system(SystemKind.PIMBA, "small")
    memory = MemoryModel.for_system(system, spec)
    scheduler = PagedScheduler(
        memory,
        memory.weights_bytes + 2.93 * memory.request_bytes(256, 32),
        block_size=16,
        max_batch=8,
    )
    trace = poisson_trace(10.0, 8, fixed_lengths(256, 32), seed=3)
    collector = TimelineCollector()
    ServingEngine(system, spec, scheduler).serve(trace, collector=collector)
    return collector.timeline.to_trace_events()


def main() -> int:
    payload = golden_payload()
    errors = validate_trace_events(payload)
    if errors:
        print("refusing to write an invalid golden:", *errors, sep="\n  ")
        return 1
    out = (
        pathlib.Path(__file__).resolve().parent.parent
        / "tests" / "serving" / "data" / "perfetto_golden.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(payload['traceEvents'])} events to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
