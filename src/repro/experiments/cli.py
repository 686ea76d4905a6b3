"""The ``repro`` command line: run sweeps and regenerate paper figures.

Usage::

    repro list                      # what can I run?
    repro figure fig12 [--smoke]    # regenerate a figure's table
    repro sweep fig12 --set batch=32,64
    repro sweep serving --set system=GPU,Pimba --json results.json
    repro sweep chunking --set chunk_budget=128,512   # prefill shaping
    repro figure ttft_tradeoff              # chunk budget vs TTFT/TPOT
    repro bench diff OLD.json NEW.json --tolerance 5   # CI perf gate
    repro trace export --trial serving_slo --out trace.json  # Perfetto
    repro cache info                # where is the cache, how big is it?
    repro cache clear
    python -m repro ...             # same thing without the console script

Every run goes through the parallel cached engine: a second invocation of
the same figure is served from ``~/.cache/repro`` (or ``$REPRO_CACHE_DIR``)
without re-running trials.  ``--json PATH`` additionally writes the raw
trial results as a machine-readable report (what CI uploads as the perf
artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from collections.abc import Sequence

from repro.experiments import registry
from repro.experiments.benchdiff import diff_report_files
from repro.experiments.cache import ResultCache
from repro.experiments.figures import FIGURES
from repro.experiments.runner import Runner, RunReport, TrialResult
from repro.experiments.spec import ExperimentSpec
from repro.experiments.tabulate import format_table


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run a tiny subset of the grid (CI smoke mode)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: one per CPU)",
    )
    parser.add_argument(
        "--serial",
        action="store_true",
        help="run trials in-process, one at a time",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every trial and do not touch the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print each trial as it completes",
    )
    parser.add_argument(
        "--json",
        default=None,
        dest="json_path",
        metavar="PATH",
        help="also write the trial results as a JSON report",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel, cached experiment engine for the Pimba reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list figures, sweeps and trial functions")

    figure = commands.add_parser("figure", help="regenerate one paper figure/table")
    figure.add_argument("figure_name", choices=sorted(FIGURES))
    _add_run_options(figure)

    sweep = commands.add_parser("sweep", help="run a registered sweep by name")
    sweep.add_argument("sweep_name", choices=registry.sweep_names())
    sweep.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="AXIS=V1[,V2]",
        help="narrow an axis to the given comma-separated values",
    )
    _add_run_options(sweep)

    bench = commands.add_parser(
        "bench", help="work with BENCH_*.json perf reports"
    )
    bench_actions = bench.add_subparsers(dest="bench_action", required=True)
    diff = bench_actions.add_parser(
        "diff",
        help="compare two --json reports and fail on perf regressions",
    )
    diff.add_argument("old_report", metavar="OLD.json")
    diff.add_argument("new_report", metavar="NEW.json")
    diff.add_argument(
        "--tolerance",
        type=float,
        default=5.0,
        metavar="PCT",
        help="allowed regression per metric in percent (default: 5)",
    )
    diff.add_argument(
        "--wall-tolerance",
        type=float,
        default=30.0,
        metavar="PCT",
        help="allowed regression for wall-clock metrics, which carry "
        "runner noise (default: 30)",
    )

    trace = commands.add_parser(
        "trace", help="export flight-recorder timelines from a serving trial"
    )
    trace_actions = trace.add_subparsers(dest="trace_action", required=True)
    export = trace_actions.add_parser(
        "export",
        help="run one trial with the collector attached and write a "
        "Perfetto/chrome-tracing JSON file",
    )
    export.add_argument(
        "--trial",
        default="serving_slo",
        choices=("serving_slo", "cluster_slo"),
        help="trial function to instrument (default: serving_slo)",
    )
    export.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="PARAM=VALUE",
        help="override one trial parameter (repeatable)",
    )
    export.add_argument(
        "--out",
        required=True,
        metavar="PATH",
        help="output path for the trace-event JSON",
    )

    cache = commands.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=("info", "clear"))
    cache.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )

    return parser


def parse_axis_override(text: str) -> tuple[str, tuple]:
    """Parse ``axis=v1,v2`` into an axis name and a tuple of typed values."""
    axis, sep, raw = text.partition("=")
    if not sep or not axis or not raw:
        raise ValueError(f"expected AXIS=V1[,V2,...], got {text!r}")
    values = []
    for item in raw.split(","):
        try:
            values.append(json.loads(item))
        except ValueError:
            values.append(item)
    return axis, tuple(values)


def _print_progress(result: TrialResult) -> None:
    origin = "cache" if result.cached else f"{result.elapsed:.2f}s"
    print(f"  [{origin}] {result.trial.label()}")


def _runner_for(args: argparse.Namespace) -> Runner:
    max_workers = 1 if args.serial else args.jobs
    return Runner(
        cache_dir=args.cache_dir,
        max_workers=max_workers,
        use_cache=not args.no_cache,
    )


def _run(args: argparse.Namespace, spec: ExperimentSpec) -> RunReport:
    progress = _print_progress if args.verbose else None
    report = _runner_for(args).run(spec, progress=progress)
    if args.json_path:
        write_json_report(report, args.json_path)
    return report


def report_payload(report: RunReport) -> dict:
    """A ``RunReport`` as plain JSON data (params, values, provenance)."""
    return {
        "name": report.spec.name,
        "trial_fn": report.spec.trial_fn,
        "axes": {k: list(v) for k, v in report.spec.axes.items()},
        "fixed": dict(report.spec.fixed),
        "wall_seconds": report.wall_seconds,
        "n_cached": report.n_cached,
        "n_executed": report.n_executed,
        "results": [
            {
                "params": dict(r.trial.params),
                "value": r.value,
                "cached": r.cached,
                "elapsed": r.elapsed,
            }
            for r in report.results
        ],
    }


def write_json_report(report: RunReport, path: str) -> None:
    pathlib.Path(path).write_text(json.dumps(report_payload(report), indent=1))
    print(f"wrote {len(report)} trial results to {path}")


def format_number(value: object) -> object:
    """Round floats for the compact JSON result column."""
    if isinstance(value, float):
        return round(value, 6)
    return value


def _cmd_list() -> int:
    print("figures:")
    for name in sorted(FIGURES):
        print(f"  {name:14s} {FIGURES[name].title}")
    print("sweeps:")
    for name in registry.sweep_names():
        doc = (registry.get_sweep(name).__doc__ or "").strip().splitlines()
        print(f"  {name:14s} {doc[0] if doc else ''}")
    print("trial functions:")
    for name in registry.trial_names():
        print(f"  {name}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    fig = FIGURES[args.figure_name]
    report = _run(args, fig.spec(args.smoke))
    title, header, rows = fig.table(report)
    print(format_table(title, header, rows))
    print(f"\n{report.summary()}")
    return 0


def _refuse(err: Exception) -> int:
    """Print a refused argument as one ``repro:`` line; exit status 2.

    ``str`` of a ``KeyError`` is the repr of its message, quotes and all,
    so its message is printed instead.
    """
    message = err.args[0] if isinstance(err, KeyError) else err
    print(f"repro: {message}", file=sys.stderr)
    return 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = registry.get_sweep(args.sweep_name)(args.smoke)
    try:
        for text in args.overrides:
            axis, values = parse_axis_override(text)
            spec = spec.with_axes(**{axis: values})
        spec.validate()
    except (KeyError, ValueError) as err:
        return _refuse(err)
    report = _run(args, spec)
    header = [*spec.axis_names, "result"]
    rows = []
    for result in report.results:
        value = result.value
        if isinstance(value, dict):
            value = json.dumps({k: format_number(v) for k, v in value.items()})
        rows.append([*(result.trial.params[a] for a in spec.axis_names), value])
    print(format_table(f"sweep {spec.name} ({spec.trial_fn})", header, rows))
    print(f"\n{report.summary()}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        diff = diff_report_files(
            args.old_report,
            args.new_report,
            args.tolerance,
            args.wall_tolerance,
        )
    except (OSError, ValueError, json.JSONDecodeError) as err:
        return _refuse(err)
    print(diff.summary())
    return 0 if diff.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.serving.experiments import collect_timeline
    from repro.serving.telemetry import write_trace_file

    params = {}
    try:
        for text in args.overrides:
            name, values = parse_axis_override(text)
            if len(values) != 1:
                raise ValueError(
                    f"trace export takes one value per --set, got {text!r}"
                )
            params[name] = values[0]
        timeline, _slo, payload = collect_timeline(args.trial, **params)
    except (KeyError, ValueError) as err:
        return _refuse(err)
    wrapper = write_trace_file(timeline, args.out)
    tracks = timeline.tracks
    n_spans = sum(len(t.spans) for t in tracks)
    print(
        f"wrote {len(wrapper['traceEvents'])} trace events "
        f"({len(tracks)} track(s), {n_spans} spans) to {args.out}"
    )
    print(
        "goodput {goodput_rps:.3f} req/s, ttft p99 {ttft_p99_s:.4f} s".format(
            **payload
        )
    )
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"cache root: {stats.root}")
    print(f"entries:    {stats.n_entries} ({stats.total_bytes / 1024:.1f} KiB)")
    for trial_fn in sorted(stats.by_trial_fn):
        print(f"  {trial_fn:24s} {stats.by_trial_fn[trial_fn]}")
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "cache":
        return _cmd_cache(args)
    return _cmd_sweep(args)


def main(argv: Sequence[str] | None = None) -> int:
    # Bad *arguments* (unknown axis, malformed --set) exit 2 with a one-line
    # message from _refuse; errors raised while trials run propagate as
    # tracebacks so real bugs are never masked as usage errors.
    args = build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        # Flush inside the guard: a block-buffered stdout whose reader is
        # gone raises here, not at interpreter shutdown.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro list | head``).  Point fd 1
        # at devnull so the interpreter's last flush has somewhere to go
        # (the Python docs' "Note on SIGPIPE"), and fail quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
