"""Host-time benchmark of the serving simulator: one workload per call.

    python3 perfbench/run.py --workload chat-prefix-fleet --seed 0 --seconds 55 --trace 0

``--trace 0`` measures end to end with tracing off: one process, one
thread, a closed host loop that builds and serves one simulation at a
time for ``--seconds`` seconds, reporting the fastest of them.  The
first simulation of the process is an untimed warm-up whose peak RSS
is ``peak_rss_mb``.

``--trace 1`` is the separate traced run: two untraced simulations, then
the layer wrappers of ``tracing.py`` go in and the same workload runs
traced at half size and at full size.  It reports each layer's self
time, calls and share of the traced wall, the ratios listed in the
README, and each layer's growth from half to full size.

Every simulation is one operation.  Its simulated outcome must equal the
one committed in ``expected.json`` for that seed (when recorded) and the
run's other simulations; a mismatch or an exception counts as failed.
The last line of standard output is the JSON result.  ``--record`` runs
each given seed once and rewrites its entry in ``expected.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
SPANS_DIR = ROOT / ".perfbench"

#: growth (full-size self time / half-size self time) worth listing
GROWTH_LIMIT = 2.3
#: fewest timed simulations per ``--trace 0`` run, however short ``--seconds``
MIN_TIMED = 3


def _import_simulator():
    src = ROOT / "src"
    if not (src / "repro" / "serving").is_dir():
        sys.exit(f"perfbench: simulator sources not found under {src}")
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    return workloads, tracing


def _load_expected() -> dict:
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text())


class Checker:
    """Counts operations and compares each outcome with its references."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0

    def check(
        self, result: dict, n_requests: int, label: str, problems=()
    ) -> None:
        """Compare one operation's outcome; count it failed on any problem."""
        problems = list(problems)
        if result["n_requests"] != n_requests:
            problems.append(
                f"served {result['n_requests']} of {n_requests} requests"
            )
        for name, ref in (
            ("committed", self.expected),
            ("run's first", self.first),
        ):
            if ref is None:
                continue
            diff = sorted(k for k in ref if ref[k] != result.get(k))
            if diff:
                problems.append(f"differs from the {name} outcome on {diff}")
        if self.first is None:
            self.first = result
        if problems:
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1

    def attempt(self, fn, label: str):
        """Run one operation; ``None`` (and a failure) if it raises."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            traceback.print_exc()
            print(f"FAILED {label}: exception", file=sys.stderr)
            self.failed += 1
            return None


def _simulate(workloads, workload, seed: int, n_requests: int):
    """Build and serve once; (outcome, setup_s, wall_s, simulation)."""
    gc.collect()
    sim = workloads.build(workload, seed, n_requests)
    t0 = time.perf_counter()
    report = sim.run()
    wall = time.perf_counter() - t0
    return workloads.outcome(report), sim.setup_s, wall, sim


def untraced(workloads, workload, seed: int, seconds: float, checker: Checker):
    """The end-to-end metrics: closed loop, tracing off, best of the run."""
    n = workload.n_requests
    label = f"{workload.name} seed {seed}"
    warm = checker.attempt(
        lambda: _simulate(workloads, workload, seed, n), label + " warm-up"
    )
    if warm is not None:
        checker.check(warm[0], n, label + " warm-up")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups, walls = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (
        len(walls) < MIN_TIMED and checker.attempted < 4 * MIN_TIMED
    ):
        done = checker.attempt(
            lambda: _simulate(workloads, workload, seed, n), label
        )
        if done is None:
            continue
        # A wrong outcome fails the operation, but its time still counts:
        # the run reports what it measured, marked incorrect.
        result, setup_s, wall_s, _ = done
        checker.check(result, n, label)
        setups.append(setup_s)
        walls.append(wall_s)
    if not walls:
        return None
    # The fastest sample, as timeit reports: host slowdowns on a shared
    # machine come in episodes lasting seconds to minutes and only ever
    # add time, so the minimum tracks the simulator's own speed while a
    # median or quartile moves with how much of the run an episode
    # covered (measurements in the README).
    wall_s = min(walls)
    print(
        f"timed simulations: {len(walls)} of {n} requests each; "
        f"wall min {min(walls):.4f} s, median {statistics.median(walls):.4f} s, "
        f"max {max(walls):.4f} s"
    )
    return {
        "sim_requests_per_s": (n / wall_s, "req/s"),
        "wall_s": (wall_s, "s"),
        "host_us_per_event": (
            wall_s / workloads.events(checker.first) * 1e6, "us"
        ),
        "setup_s": (min(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _traced_sim(workloads, tracer, workload, seed: int, n: int):
    """One traced simulation from a clean tracer.

    Returns (outcome, traced wall, layer totals, outermost span seconds,
    simulation, report); the traced wall covers set-up and ``run``.
    """
    gc.collect()
    tracer.reset()
    t0 = time.perf_counter()
    sim = workloads.build(workload, seed, n)
    report = sim.run()
    wall = time.perf_counter() - t0
    result = workloads.outcome(report)
    totals = tracer.layer_totals()
    return result, wall, totals, tracer.top_level_s(), sim, report


def traced(workloads, tracing, workload, seed: int, checker: Checker):
    """The per-layer metrics: untraced once, then traced at N/2 and N."""
    n = workload.n_requests
    half = n // 2
    label = f"{workload.name} seed {seed}"
    # Twice, keeping the faster: the first also warms the process up.
    untraced_walls = []
    for _ in range(2):
        base = checker.attempt(
            lambda: _simulate(workloads, workload, seed, n),
            label + " untraced",
        )
        if base is None:
            return None
        checker.check(base[0], n, label + " untraced")
        untraced_walls.append(base[1] + base[2])
    untraced_wall = min(untraced_walls)

    # Wrappers go in before any traced engine is built: the engine picks
    # its coalesced path in __init__ from the scheduler's method identities.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        small = checker.attempt(
            lambda: _traced_sim(workloads, tracer, workload, seed, half),
            label + " traced half",
        )
        if small is not None and small[0]["n_requests"] != half:
            print(f"FAILED {label} traced half: lost requests", file=sys.stderr)
            checker.failed += 1
        full = checker.attempt(
            lambda: _traced_sim(workloads, tracer, workload, seed, n),
            label + " traced",
        )
        tree = tracer.tree()
        extend = (tracer.extend_calls, tracer.extend_failures)
        cold = {kind: tuple(v) for kind, v in tracer.cold.items()}
    finally:
        tracer.uninstall()
    if small is None or full is None:
        return None
    result, wall, totals, top_level, sim, report = full
    # The traced outcome is also compared with the untraced one (the
    # checker's first), so tracing cannot change what is simulated.
    problems = []
    if workload.coalescable and totals["slots"]["calls"] == 0:
        problems.append("traced run left the coalesced path")
    self_sum = sum(t["self_s"] for t in totals.values())
    unattributed = wall - top_level
    if abs(self_sum - top_level) > 1e-6 * wall or unattributed < 0:
        problems.append(
            f"self times {self_sum!r} + unattributed {unattributed!r} "
            f"do not close on traced wall {wall!r}"
        )
    checker.check(result, n, label + " traced", problems)

    SPANS_DIR.mkdir(exist_ok=True)
    (SPANS_DIR / f"{workload.name}-seed{seed}-spans.json").write_text(
        json.dumps(
            {"workload": workload.name, "seed": seed, "n_requests": n,
             "traced_wall_s": wall, "tree": tree},
            indent=1,
        )
    )

    metrics: dict[str, tuple[float, str]] = {}
    half_totals = small[2]
    over = []
    for layer, t in totals.items():
        metrics[f"{layer}.self_s"] = (t["self_s"], "s")
        metrics[f"{layer}.calls"] = (t["calls"], "count")
        metrics[f"{layer}.share"] = (t["self_s"] / wall, "fraction")
        before = half_totals[layer]["self_s"]
        growth = t["self_s"] / before if before > 0 else 0.0
        metrics[f"{layer}.growth_2x"] = (growth, "ratio")
        if growth > GROWTH_LIMIT:
            over.append(f"{layer} {growth:.2f}x")
    n_events = workloads.events(result)
    runs = totals["slots"]["calls"]
    steps_per_run = result["n_iterations"] / runs if runs else 0.0
    transfers, recomputes = workloads.tier_counters(sim.target)
    lookups = transfers + recomputes
    cold_calls = sum(c for c, _ in cold.values())
    costs_calls = totals["costs"]["calls"]
    metrics.update(
        {
            "routing.us_per_request": (
                totals["routing"]["self_s"] / n * 1e6, "us"
            ),
            "engine.ns_per_event": (
                totals["engine"]["self_s"] / n_events * 1e9, "ns"
            ),
            "slots.steps_per_run": (steps_per_run, "steps/run"),
            "memory.extend_fail_ratio": (
                extend[1] / extend[0] if extend[0] else 0.0, "fraction"
            ),
            "memory.evictions": (report.cache_evictions, "count"),
            "tier.transfer_ratio": (
                transfers / lookups if lookups else 0.0, "fraction"
            ),
            "costs.hit_ratio": (
                1.0 - cold_calls / costs_calls if costs_calls else 0.0,
                "fraction",
            ),
        }
    )
    for kind in ("Pimba", "GPU"):
        calls, seconds = cold.get(kind, (0, 0.0))
        metrics[f"perf.us_per_cold_call.{kind}"] = (
            seconds / calls * 1e6 if calls else 0.0, "us"
        )
    metrics["unattributed_s"] = (unattributed, "s")
    metrics["tracing_overhead"] = (wall / untraced_wall, "ratio")
    metrics["layers_over_2.3x"] = (len(over), "count")
    print(f"traced wall {wall:.3f} s, untraced {untraced_wall:.3f} s")
    print(f"layers above {GROWTH_LIMIT}x growth: {', '.join(over) or 'none'}")
    _print_roles(totals)
    return metrics


def _print_roles(totals: dict) -> None:
    """The layer with most self time among the three role layers."""
    roles = ("routing", "memory", "perf")
    leader = max(roles, key=lambda layer: totals[layer]["self_s"])
    print(f"largest self time among {'/'.join(roles)}: {leader}")
    for layer in ("routing", "memory", "tier"):
        print(f"  {layer}.calls = {totals[layer]['calls']}")


def record(workloads, names: list[str], seeds: list[int]) -> None:
    """Run each (workload, seed) once and commit its outcome."""
    expected = _load_expected()
    for name in names:
        workload = workloads.WORKLOADS[name]
        for seed in seeds:
            n = workload.n_requests
            result = _simulate(workloads, workload, seed, n)[0]
            expected.setdefault(name, {})[str(seed)] = result
            print(f"recorded {name} seed {seed}: {result}")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="rewrite expected.json entries for every workload and seed given",
    )
    args = parser.parse_args(argv)
    workloads, tracing = _import_simulator()
    unknown = sorted(set(args.workload) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(
            f"unknown workload(s) {unknown}; "
            f"pick from {sorted(workloads.WORKLOADS)}"
        )
    seeds = args.seed or [0]
    if args.record:
        record(workloads, args.workload, seeds)
        return 0
    if len(args.workload) != 1 or len(seeds) != 1:
        parser.error("give one --workload and one --seed (except with --record)")
    workload = workloads.WORKLOADS[args.workload[0]]
    seed = seeds[0]
    committed = _load_expected().get(workload.name, {}).get(str(seed))
    print(
        f"workload {workload.name}: {workload.why}\n"
        f"seed {seed}: committed outcome "
        f"{'found' if committed else 'not recorded; checking determinism only'}"
    )
    checker = Checker(committed)
    if args.trace:
        metrics = traced(workloads, tracing, workload, seed, checker)
    else:
        metrics = untraced(workloads, workload, seed, args.seconds, checker)
    if metrics is None:
        print("perfbench: no simulation completed", file=sys.stderr)
        return 1
    if checker.first is not None:
        for name, value in checker.first.items():
            print(f"outcome {name} = {value!r}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"operations: {checker.attempted} attempted, {checker.failed} failed")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
