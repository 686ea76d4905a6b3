"""Registries for trial functions and named sweeps.

Trial functions compute one grid point and return a JSON-serializable
value; sweeps build :class:`~repro.experiments.spec.ExperimentSpec` grids
over them.  Both are addressed by name so that trials can be shipped to
worker processes (and cached on disk) as plain strings, never as pickled
callables.
"""

from __future__ import annotations

import importlib
import inspect
from collections.abc import Callable, Mapping

from repro.experiments.spec import ExperimentSpec

#: module whose import registers the built-in paper trials and sweeps
_CATALOG_MODULE = "repro.experiments.catalog"

_TRIALS: dict[str, Callable] = {}
_TRIAL_MODULES: dict[str, str] = {}
_CHECKS: dict[str, Callable[[dict], None]] = {}
_SWEEPS: dict[str, Callable[..., ExperimentSpec]] = {}


def trial(
    name: str, check: Callable[[dict], None] | None = None
) -> Callable[[Callable], Callable]:
    """Decorator: register ``fn`` as the trial function called ``name``.

    ``check``, if given, vets one trial's parameters before any trial of
    a grid runs (see :func:`check_params`): it raises ``ValueError`` (or
    ``KeyError``) for parameters the trial would refuse.
    """

    def register(fn: Callable) -> Callable:
        if name in _TRIALS:
            raise ValueError(f"trial function {name!r} is already registered")
        _TRIALS[name] = fn
        _TRIAL_MODULES[name] = fn.__module__
        if check is not None:
            _CHECKS[name] = check
        return fn

    return register


def check_params(name: str, params: Mapping[str, object]) -> None:
    """Run trial function ``name``'s registered check on ``params``,
    with the function's own defaults filled in.

    A no-op for a trial without a check, and for a name no module
    registers (running such a trial reports it).
    """
    try:
        fn = get_trial(name)
    except KeyError:
        return
    check = _CHECKS.get(name)
    if check is not None:
        defaults = {
            key: p.default
            for key, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty
        }
        check({**defaults, **params})


def sweep(name: str) -> Callable[[Callable], Callable]:
    """Decorator: register a sweep builder ``(smoke: bool) -> ExperimentSpec``."""

    def register(fn: Callable[..., ExperimentSpec]) -> Callable:
        if name in _SWEEPS:
            raise ValueError(f"sweep {name!r} is already registered")
        _SWEEPS[name] = fn
        return fn

    return register


def _ensure_catalog() -> None:
    importlib.import_module(_CATALOG_MODULE)


def get_trial(name: str, module: str | None = None) -> Callable:
    """Look up a trial function, importing its defining module on demand.

    ``module`` is the trial's origin module recorded at registration time;
    worker processes pass it so that custom trials registered outside the
    built-in catalog resolve even under the ``spawn`` start method, where
    the parent's registry is not inherited.
    """
    if name not in _TRIALS and module:
        importlib.import_module(module)
    if name not in _TRIALS:
        _ensure_catalog()
    try:
        return _TRIALS[name]
    except KeyError:
        raise KeyError(
            f"unknown trial function {name!r}; registered: {trial_names()}"
        ) from None


def trial_origin(name: str) -> str:
    """The module that registered ``name`` (resolving the trial if needed)."""
    get_trial(name)
    return _TRIAL_MODULES[name]


def get_sweep(name: str) -> Callable[..., ExperimentSpec]:
    """Look up a sweep builder, importing the built-in catalog on demand."""
    if name not in _SWEEPS:
        _ensure_catalog()
    try:
        return _SWEEPS[name]
    except KeyError:
        raise KeyError(f"unknown sweep {name!r}; registered: {sweep_names()}") from None


def trial_names() -> tuple[str, ...]:
    _ensure_catalog()
    return tuple(sorted(_TRIALS))


def sweep_names() -> tuple[str, ...]:
    _ensure_catalog()
    return tuple(sorted(_SWEEPS))
