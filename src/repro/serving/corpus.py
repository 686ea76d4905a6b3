"""The shipped trace corpus: replayable request streams under ``traces/``.

Two small JSON replay files converted from public-trace *shapes* ship with
the repository (the upstream datasets are far too large to vendor, so each
file is a seeded resample of the published arrival/length statistics in
the repo's own ``save_trace`` schema):

* ``bursty`` — BurstGPT-style chat traffic: strongly clustered arrivals
  (gamma gaps, cv 4) with long-tailed lognormal prompt/answer lengths.
* ``steady`` — Azure-LLM-inference-style API traffic: near-Poisson
  arrivals at a steady rate with tightly concentrated lengths.
* ``multiturn`` — multi-turn chat sessions
  (:func:`~repro.serving.arrivals.multiturn_chat_trace`): each session's
  turns re-send the growing conversation as the prompt and carry a
  ``session_id``, so the file exercises the prefix cache's shared-prefix
  reuse path (the sessionless files never do).

:func:`trace_path` resolves a corpus name to its file, and the
``trace-replay`` sweep serves every shipped trace on every system through
the cluster engine — each trial's cache identity includes the file's
content hash, so editing a trace re-runs it instead of answering stale.
"""

from __future__ import annotations

import pathlib

from repro.experiments.registry import sweep, trial
from repro.experiments.spec import ExperimentSpec
from repro.serving.costs import DEFAULT_LINK_GBPS
from repro.serving.schedulers import check_policy_knobs

#: corpus name -> file name under ``traces/``
SHIPPED_TRACES = {
    "bursty": "bursty_chat.json",
    "multiturn": "multiturn_chat.json",
    "steady": "steady_api.json",
}

#: repository-root ``traces/`` directory (source/editable layouts)
TRACE_DIR = pathlib.Path(__file__).resolve().parents[3] / "traces"


def trace_path(name: str) -> pathlib.Path:
    """Absolute path of a shipped corpus trace, by registry name."""
    if name not in SHIPPED_TRACES:
        raise KeyError(
            f"unknown corpus trace {name!r}; "
            f"shipped: {', '.join(sorted(SHIPPED_TRACES))}"
        )
    path = TRACE_DIR / SHIPPED_TRACES[name]
    if not path.is_file():
        raise FileNotFoundError(
            f"corpus trace {path} is missing — the trace corpus ships with "
            "the repository checkout, not with wheel installs"
        )
    return path


def pinned_trace(name: str) -> str:
    """A ``name@sha`` axis value pinning a corpus trace to its content.

    The hash rides inside the *trace axis value*, so each trial's cache
    identity covers exactly its own file: editing one trace re-runs (and
    perf-gate-unmatches) only that trace's trials, never its siblings'.
    """
    from repro.serving.experiments import trace_fingerprint

    return f"{name}@{trace_fingerprint(trace_path(name))}"


def _check_scheduler(p: dict) -> None:
    """An unknown scheduler, or a malformed ``max_batch`` or
    ``step_stride``, fails before any replay runs (a replay sets no
    policy knob)."""
    check_policy_knobs(
        p["scheduler"], {knob: p[knob] for knob in ("max_batch", "step_stride")}
    )


@trial("trace_replay_slo", check=_check_scheduler)
def trace_replay_slo(
    system: str,
    trace: str,
    replicas: int = 1,
    router: str = "round-robin",
    scheduler: str = "fcfs",
    max_batch: int = 32,
    step_stride: int = 32,
    model: str = "Zamba2",
    scale: str = "small",
    shared_tier: bool = False,
    link_gbps: float = DEFAULT_LINK_GBPS,
    slo_ttft_s: float = 2.0,
    slo_tpot_s: float = 0.018,
) -> dict:
    """Replay one shipped corpus trace (optionally on a cluster).

    A thin wrapper over :func:`~repro.serving.experiments.cluster_slo`
    that resolves a corpus name — or a :func:`pinned_trace` ``name@sha``
    value — to its file.  When a hash is pinned it feeds the replay
    guard, so the cache can never serve metrics of an edited trace; a
    bare name (e.g. ``--set trace=bursty`` on the CLI) replays unguarded.
    ``shared_tier``/``link_gbps`` pass straight through to the cluster
    builder (the ``cross_replica_prefix`` sweep sets ``shared_tier``).
    """
    from repro.serving.experiments import cluster_slo

    name, _, sha = trace.partition("@")
    path = trace_path(name)
    return cluster_slo(
        system,
        qps=0.0,  # unused: the replay file supplies arrivals
        replicas=replicas,
        router=router,
        scheduler=scheduler,
        max_batch=max_batch,
        step_stride=step_stride,
        model=model,
        scale=scale,
        shared_tier=shared_tier,
        link_gbps=link_gbps,
        slo_ttft_s=slo_ttft_s,
        slo_tpot_s=slo_tpot_s,
        trace_file=str(path),
        trace_sha=sha or None,
    )


@sweep("trace-replay")
def trace_replay_spec(smoke: bool = False) -> ExperimentSpec:
    """Replay the shipped corpus on every system (smoke: steady, 2 systems)."""
    from repro.serving.experiments import SERVING_SYSTEMS

    names = ("steady",) if smoke else tuple(sorted(SHIPPED_TRACES))
    systems = ("GPU", "Pimba") if smoke else SERVING_SYSTEMS
    return ExperimentSpec(
        name="trace-replay",
        trial_fn="trace_replay_slo",
        axes={
            "system": systems,
            "trace": tuple(pinned_trace(n) for n in names),
        },
        fixed={"max_batch": 8},
    )
