"""Perf-regression diffing of two ``BENCH_*.json`` reports.

CI uploads every sweep's raw trial results as a machine-readable report
(``repro ... --json BENCH_x.json``).  This module turns those artifacts
into a regression *gate*: ``repro bench diff OLD.json NEW.json`` matches
trials across the two reports by their full parameter dict, compares
every serving metric whose good direction is known (goodput and
throughput must not drop; TTFT/TPOT/e2e tails and queue-depth
percentiles must not grow), and fails when any change exceeds the
tolerance — so a commit that silently slows the serving path turns the
pipeline red instead of shipping.

Only direction-known metrics participate.  Neutral payload entries
(counts, makespans, mean queue depth) and non-dict trial values are ignored:
a diff should flag *regressions*, not every jitter in bookkeeping.
A direction-known metric present in only *one* report (a payload gained
or lost a field between commits) is surfaced as added/removed in the
summary but never fails the gate — schema evolution is a review concern,
not a perf regression.

Wall-clock metrics (``WALL_METRICS``) compare real elapsed time rather
than simulated outcomes, so they carry their own — much looser —
tolerance: CI runners are noisy neighbors, and a 5% band that is right
for deterministic simulation numbers would turn scheduler jitter into
red builds.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.experiments.spec import canonical_json

#: metric name -> True when larger is better, False when smaller is better
METRIC_DIRECTIONS: dict[str, bool] = {
    # serving quality (the gate's reason to exist)
    "goodput_rps": True,
    "slo_attainment": True,
    "throughput_tokens_per_s": True,
    "completed_per_s": True,
    "ttft_p50_s": False,
    "ttft_p95_s": False,
    "ttft_p99_s": False,
    "tpot_p50_s": False,
    "tpot_p99_s": False,
    "e2e_p50_s": False,
    "e2e_p99_s": False,
    "queue_depth_p50": False,
    "queue_depth_p99": False,
    # prefix-cache reuse: hit rate must not shrink (a later PR that
    # quietly breaks reuse turns the gate red, not just a dashboard)
    "prefix_cache_hit_rate": True,
    # cross-replica reuse: same contract for the shared tier's share
    "remote_prefix_hit_rate": True,
    # disaggregation: both sides of a split fleet must stay busy, and
    # the KV moved over the wire per run must not silently grow
    "prefill_utilization": True,
    "decode_utilization": True,
    "handoff_bytes": False,
    # batch-level throughput trials
    "tokens_per_second": True,
    "generation_throughput": True,
    # wall-clock benchmarks (real time, not simulated time)
    "build_s": False,
    "wall_s": False,
    "requests_per_wall_s": True,
    "sim_iterations_per_wall_s": True,
}

#: metrics measuring real elapsed time — compared under the (looser)
#: wall tolerance because runner noise is part of the measurement
WALL_METRICS = frozenset(
    {"build_s", "wall_s", "requests_per_wall_s", "sim_iterations_per_wall_s"}
)


@dataclasses.dataclass(frozen=True)
class MetricDelta:
    """One metric of one matched trial, compared across two reports."""

    label: str  #: compact trial identity (the changed axes)
    metric: str
    old: float
    new: float
    tolerance_pct: float

    @property
    def change_pct(self) -> float:
        """Signed relative change, oriented so positive = *better*."""
        if self.old == 0:
            if self.new == self.old:
                return 0.0
            raw = float("inf") if self.new > self.old else float("-inf")
            return raw if METRIC_DIRECTIONS[self.metric] else -raw
        raw = (self.new - self.old) / abs(self.old) * 100.0
        return raw if METRIC_DIRECTIONS[self.metric] else -raw

    @property
    def regressed(self) -> bool:
        return self.change_pct < -self.tolerance_pct

    def describe(self) -> str:
        arrow = "WORSE" if self.regressed else "ok"
        return (
            f"{self.label} {self.metric}: {self.old:.6g} -> {self.new:.6g} "
            f"({self.change_pct:+.2f}% {arrow})"
        )


@dataclasses.dataclass(frozen=True)
class BenchDiff:
    """The full comparison of two bench reports."""

    name: str
    tolerance_pct: float
    deltas: tuple[MetricDelta, ...]
    unmatched_old: tuple[str, ...]  #: trials only the old report has
    unmatched_new: tuple[str, ...]  #: trials only the new report has
    #: "label metric" strings for direction-known metrics present in only
    #: one report's payload — surfaced, never failed on
    removed_metrics: tuple[str, ...] = ()
    added_metrics: tuple[str, ...] = ()

    @property
    def regressions(self) -> tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        lines = [
            f"bench diff {self.name!r}: {len(self.deltas)} metric(s) across "
            f"matched trials, tolerance {self.tolerance_pct:g}%"
        ]
        for delta in sorted(self.deltas, key=lambda d: d.change_pct):
            lines.append("  " + delta.describe())
        if self.unmatched_old:
            lines.append(
                f"  only in old report ({len(self.unmatched_old)}): "
                + "; ".join(self.unmatched_old[:4])
            )
        if self.unmatched_new:
            lines.append(
                f"  only in new report ({len(self.unmatched_new)}): "
                + "; ".join(self.unmatched_new[:4])
            )
        if self.removed_metrics:
            lines.append(
                f"  metric(s) removed ({len(self.removed_metrics)}): "
                + "; ".join(self.removed_metrics[:4])
            )
        if self.added_metrics:
            lines.append(
                f"  metric(s) added ({len(self.added_metrics)}): "
                + "; ".join(self.added_metrics[:4])
            )
        verdict = (
            "OK: no regression beyond tolerance"
            if self.ok
            else f"FAIL: {len(self.regressions)} metric(s) regressed"
        )
        lines.append(verdict)
        return "\n".join(lines)


def load_report(path: str | pathlib.Path) -> dict:
    """Read one ``--json`` report written by the CLI."""
    payload = json.loads(pathlib.Path(path).read_text())
    if "results" not in payload:
        raise ValueError(f"{path} is not a repro --json report (no 'results')")
    return payload


def _trial_label(params: dict, shared: dict) -> str:
    """Compact identity: only the parameters that vary between trials."""
    varying = {k: v for k, v in params.items() if shared.get(k, object()) != v}
    inner = ", ".join(f"{k}={v}" for k, v in sorted(varying.items()))
    return f"({inner})" if inner else "(only trial)"


def _index(report: dict) -> tuple[dict[str, dict], dict]:
    """Trials keyed by canonical params, plus the params every trial shares."""
    results = report["results"]
    shared: dict = dict(results[0]["params"]) if results else {}
    for entry in results[1:]:
        params = entry["params"]
        shared = {
            k: v for k, v in shared.items() if params.get(k, object()) == v
        }
    return {
        canonical_json(entry["params"]): entry for entry in results
    }, shared


def diff_reports(
    old: dict,
    new: dict,
    tolerance_pct: float = 5.0,
    wall_tolerance_pct: float = 30.0,
) -> BenchDiff:
    """Compare two bench reports; see module docstring for the rules."""
    if tolerance_pct < 0 or wall_tolerance_pct < 0:
        raise ValueError("tolerance must be non-negative")
    old_index, shared = _index(old)
    new_index, _ = _index(new)

    deltas: list[MetricDelta] = []
    removed: list[str] = []
    added: list[str] = []
    for key, old_entry in old_index.items():
        new_entry = new_index.get(key)
        if new_entry is None:
            continue
        old_value, new_value = old_entry["value"], new_entry["value"]
        if not isinstance(old_value, dict) or not isinstance(new_value, dict):
            continue
        label = _trial_label(old_entry["params"], shared)
        for metric in METRIC_DIRECTIONS:
            in_old, in_new = metric in old_value, metric in new_value
            if in_old and in_new:
                deltas.append(
                    MetricDelta(
                        label=label,
                        metric=metric,
                        old=float(old_value[metric]),
                        new=float(new_value[metric]),
                        tolerance_pct=wall_tolerance_pct
                        if metric in WALL_METRICS
                        else tolerance_pct,
                    )
                )
            elif in_old:
                removed.append(f"{label} {metric}")
            elif in_new:
                added.append(f"{label} {metric}")

    return BenchDiff(
        name=new.get("name", old.get("name", "?")),
        tolerance_pct=tolerance_pct,
        deltas=tuple(deltas),
        removed_metrics=tuple(removed),
        added_metrics=tuple(added),
        unmatched_old=tuple(
            _trial_label(old_index[k]["params"], shared)
            for k in old_index
            if k not in new_index
        ),
        unmatched_new=tuple(
            _trial_label(new_index[k]["params"], shared)
            for k in new_index
            if k not in old_index
        ),
    )


def diff_report_files(
    old_path: str | pathlib.Path,
    new_path: str | pathlib.Path,
    tolerance_pct: float = 5.0,
    wall_tolerance_pct: float = 30.0,
) -> BenchDiff:
    """File-level entry point used by ``repro bench diff``."""
    return diff_reports(
        load_report(old_path),
        load_report(new_path),
        tolerance_pct,
        wall_tolerance_pct,
    )
