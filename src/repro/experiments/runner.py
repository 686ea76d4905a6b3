"""Parallel, cached execution of experiment sweeps.

The :class:`Runner` expands an :class:`~repro.experiments.spec.ExperimentSpec`
into trials, satisfies as many as possible from the on-disk JSON cache, and
fans the remainder out over a :class:`~concurrent.futures.ProcessPoolExecutor`
(or runs them inline when only one worker is available).  Results are always
reported in the spec's deterministic grid order, regardless of which worker
finished first — a parallel run and a serial run of the same sweep return
identical reports.

Trials cross the process boundary as ``(trial_fn_name, params)`` pairs and
are resolved through :mod:`repro.experiments.registry` inside the worker, so
nothing is pickled beyond plain JSON-compatible data.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import pathlib
import time
from collections.abc import Callable, Mapping

from repro.experiments.cache import ResultCache
from repro.experiments.registry import get_trial, trial_origin
from repro.experiments.spec import ExperimentSpec, Trial


@dataclasses.dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial: its value plus execution provenance."""

    trial: Trial
    value: object
    cached: bool
    elapsed: float


@dataclasses.dataclass(frozen=True)
class RunReport:
    """All trial results of one sweep, in grid order."""

    spec: ExperimentSpec
    results: tuple[TrialResult, ...]
    wall_seconds: float

    def __len__(self) -> int:
        return len(self.results)

    @property
    def values(self) -> list:
        return [r.value for r in self.results]

    @property
    def n_cached(self) -> int:
        return sum(r.cached for r in self.results)

    @property
    def n_executed(self) -> int:
        return len(self.results) - self.n_cached

    def mapping(self, *axes: str) -> dict:
        """Results keyed by parameter values.

        With one axis the keys are scalars; with several they are tuples in
        the given order.
        """
        if not axes:
            axes = self.spec.axis_names
        out = {}
        for r in self.results:
            key = tuple(r.trial.params[a] for a in axes)
            out[key[0] if len(axes) == 1 else key] = r.value
        return out

    def summary(self) -> str:
        return (
            f"{self.spec.name}: {len(self)} trials "
            f"({self.n_cached} cached, {self.n_executed} executed) "
            f"in {self.wall_seconds:.2f}s"
        )


#: below this many pending trials, process-pool startup costs more than it
#: saves — run inline instead
MIN_POOL_TRIALS = 4


def _execute(
    trial_fn: str,
    params: Mapping[str, object],
    module: str | None = None,
) -> tuple[object, float]:
    """Worker entry point: resolve the trial function by name and run it."""
    fn = get_trial(trial_fn, module=module)
    start = time.perf_counter()
    value = fn(**params)
    return value, time.perf_counter() - start


class Runner:
    """Runs sweeps with an on-disk result cache and process-level fan-out.

    Args:
        cache_dir: cache root (default: ``$REPRO_CACHE_DIR`` or
            ``~/.cache/repro``).
        max_workers: process fan-out; ``None`` means one worker per CPU,
            values ``<= 1`` force in-process serial execution.
        use_cache: disable to always recompute (results are not stored
            either).
    """

    def __init__(
        self,
        cache_dir: pathlib.Path | str | None = None,
        max_workers: int | None = None,
        use_cache: bool = True,
    ):
        self.cache = ResultCache(cache_dir) if use_cache else None
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        self.max_workers = max_workers

    def run(
        self,
        spec: ExperimentSpec,
        progress: Callable[[TrialResult], None] | None = None,
    ) -> RunReport:
        """Execute every trial of ``spec`` and return results in grid order.

        The grid is validated first (:meth:`ExperimentSpec.validate`), so
        a trial its check refuses stops the run before any trial runs.
        """
        spec.validate()
        start = time.perf_counter()
        trials = list(spec.trials())
        results: list[TrialResult | None] = [None] * len(trials)

        pending: list[int] = []
        for i, trial in enumerate(trials):
            hit = self.cache.load(trial) if self.cache else None
            if hit is not None:
                results[i] = TrialResult(trial, hit.value, True, hit.elapsed)
                if progress is not None:
                    progress(results[i])
            else:
                pending.append(i)

        if pending and (self.max_workers <= 1 or len(pending) < MIN_POOL_TRIALS):
            for i in pending:
                value, elapsed = _execute(trials[i].trial_fn, trials[i].params)
                results[i] = self._finish(trials[i], value, elapsed, progress)
        elif pending:
            workers = min(self.max_workers, len(pending))
            # The origin module lets spawn-started workers re-register
            # trials defined outside the built-in catalog.
            origin = trial_origin(spec.trial_fn)
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(
                        _execute, trials[i].trial_fn, trials[i].params, origin
                    ): i
                    for i in pending
                }
                for future in concurrent.futures.as_completed(futures):
                    i = futures[future]
                    value, elapsed = future.result()
                    results[i] = self._finish(trials[i], value, elapsed, progress)

        done = [r for r in results if r is not None]
        assert len(done) == len(trials)
        return RunReport(
            spec=spec,
            results=tuple(done),
            wall_seconds=time.perf_counter() - start,
        )

    def _finish(
        self,
        trial: Trial,
        value: object,
        elapsed: float,
        progress: Callable[[TrialResult], None] | None,
    ) -> TrialResult:
        if self.cache is not None:
            self.cache.store(trial, value, elapsed)
            # Re-read through the cache so every consumer — first run or
            # warm rerun — sees the identical JSON-round-tripped value.
            hit = self.cache.load(trial)
            if hit is not None:
                value = hit.value
        result = TrialResult(trial, value, False, elapsed)
        if progress is not None:
            progress(result)
        return result
