"""Declarative experiment sweeps.

An :class:`ExperimentSpec` names a registered trial function and a
cartesian grid of parameter axes (system kind, model, batch size, context
length, precision, ...).  Expanding the grid yields :class:`Trial` points
in a deterministic order — axis insertion order, row-major — so that a
sweep's results can be keyed, cached, and compared across runs and across
serial/parallel execution.

Every parameter value must be a JSON-serializable scalar/container: the
trial's identity is the canonical JSON of ``(trial_fn, params)``, and its
result is persisted as JSON by the cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from collections.abc import Iterator, Mapping


def canonical_json(payload: object) -> str:
    """Serialize a payload to a byte-stable JSON string (sorted keys)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def stable_hash(payload: object) -> str:
    """A short, content-stable hex digest of a JSON-serializable payload."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:20]


@dataclasses.dataclass(frozen=True, eq=True)
class Trial:
    """One point of a sweep: a trial function name plus its kwargs."""

    trial_fn: str
    params: Mapping[str, object]

    @property
    def key(self) -> str:
        """Stable cache key of this trial's full configuration."""
        return stable_hash({"trial_fn": self.trial_fn, "params": dict(self.params)})

    def label(self) -> str:
        """Compact human-readable form, e.g. ``serving(system=GPU, batch=32)``."""
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.trial_fn}({inner})"


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """A named sweep: a cartesian grid of axes over one trial function.

    Args:
        name: sweep name (used for display and cache grouping).
        trial_fn: registry name of the per-trial function
            (see :mod:`repro.experiments.registry`).
        axes: ordered mapping of axis name -> tuple of values to sweep.
        fixed: constant parameters passed to every trial.
    """

    name: str
    trial_fn: str
    axes: Mapping[str, tuple]
    fixed: Mapping[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        axes = {k: tuple(v) for k, v in self.axes.items()}
        for axis, values in axes.items():
            if not values:
                raise ValueError(f"axis {axis!r} of sweep {self.name!r} is empty")
        overlap = set(axes) & set(self.fixed)
        if overlap:
            raise ValueError(f"axes and fixed params overlap: {sorted(overlap)}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "fixed", dict(self.fixed))
        # Fail fast on parameters the cache could not serialize.
        canonical_json({"axes": axes, "fixed": self.fixed})

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(self.axes)

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def trials(self) -> Iterator[Trial]:
        """Yield the grid's trials in deterministic row-major order."""
        names = self.axis_names
        for point in itertools.product(*(self.axes[a] for a in names)):
            params = dict(self.fixed)
            params.update(zip(names, point))
            yield Trial(trial_fn=self.trial_fn, params=params)

    def with_axes(self, **axes: tuple) -> ExperimentSpec:
        """A copy of this spec with some axes' values replaced.

        Axis positions (and therefore grid order) are kept; only the
        listed axes' value tuples change.  A name that is *not* an axis
        but is a parameter of the trial function is threaded through as
        an override instead (``--set`` on the CLI lands here): one value
        pins it in ``fixed``, several open a new axis after the existing
        ones.  Anything else — a typo, a parameter the trial does not
        take — still raises.
        """
        unknown = set(axes) - set(self.axes)
        overrides = unknown & self._trial_parameters()
        unknown -= overrides
        if unknown:
            raise KeyError(
                f"unknown axes {sorted(unknown)}; sweep {self.name!r} has "
                f"{list(self.axis_names)} and trial {self.trial_fn!r} "
                "takes no such parameter"
            )
        merged = {k: tuple(axes.get(k, v)) for k, v in self.axes.items()}
        fixed = dict(self.fixed)
        for name in sorted(overrides):
            values = tuple(axes[name])
            fixed.pop(name, None)
            if len(values) == 1:
                fixed[name] = values[0]
            else:
                merged[name] = values
        return dataclasses.replace(self, axes=merged, fixed=fixed)

    def validate(self) -> None:
        """Refuse the grid before any trial runs: each trial's parameters
        go through the check its trial function registered, if any (see
        :func:`~repro.experiments.registry.trial`)."""
        from repro.experiments import registry  # deferred: import cycle

        for trial in self.trials():
            registry.check_params(trial.trial_fn, trial.params)

    def _trial_parameters(self) -> set[str]:
        """Parameter names the trial function accepts (empty if unknown)."""
        import inspect

        from repro.experiments import registry  # deferred: import cycle

        try:
            fn = registry.get_trial(self.trial_fn)
        except KeyError:
            return set()
        return set(inspect.signature(fn).parameters)
