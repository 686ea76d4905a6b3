"""Engine tests: grid expansion, cache hit/miss, parallel/serial equality,
figure-path equivalence, and CLI argument parsing."""

import json

import pytest

from repro.experiments import (
    ExperimentSpec,
    ResultCache,
    Runner,
    Trial,
    stable_hash,
    trial,
)
from repro.experiments.catalog import fig12_assemble, fig12_spec, table3_spec
from repro.experiments.cli import build_parser, main, parse_axis_override
from repro.models import spec_for
from repro.perf import SystemKind, build_system


# ---------------------------------------------------------------------------
# spec / grid
# ---------------------------------------------------------------------------


def test_grid_expansion_is_deterministic_row_major():
    spec = ExperimentSpec(
        name="g", trial_fn="f",
        axes={"a": (1, 2), "b": ("x", "y")}, fixed={"c": 3},
    )
    assert len(spec) == 4
    points = [t.params for t in spec.trials()]
    assert points == [
        {"c": 3, "a": 1, "b": "x"},
        {"c": 3, "a": 1, "b": "y"},
        {"c": 3, "a": 2, "b": "x"},
        {"c": 3, "a": 2, "b": "y"},
    ]
    # Two expansions agree, point by point, including cache keys.
    assert [t.key for t in spec.trials()] == [t.key for t in spec.trials()]


def test_trial_key_is_order_insensitive_and_value_sensitive():
    a = Trial("f", {"x": 1, "y": 2})
    b = Trial("f", {"y": 2, "x": 1})
    c = Trial("f", {"x": 1, "y": 3})
    assert a.key == b.key
    assert a.key != c.key
    assert stable_hash({"k": 1}) == stable_hash({"k": 1})


def test_spec_validation():
    with pytest.raises(ValueError, match="empty"):
        ExperimentSpec(name="g", trial_fn="f", axes={"a": ()})
    with pytest.raises(ValueError, match="overlap"):
        ExperimentSpec(name="g", trial_fn="f", axes={"a": (1,)}, fixed={"a": 2})
    with pytest.raises(TypeError):
        ExperimentSpec(name="g", trial_fn="f", axes={"a": (object(),)})
    spec = ExperimentSpec(name="g", trial_fn="f", axes={"a": (1, 2, 3)})
    assert [t.params["a"] for t in spec.with_axes(a=(2,)).trials()] == [2]
    with pytest.raises(KeyError, match="unknown axes"):
        spec.with_axes(nope=(1,))


def test_with_axes_threads_trial_parameters_through():
    """``--set`` also reaches non-axis trial parameters: one value pins
    the parameter in ``fixed``, several open a new axis — while a name
    the trial function does not take still raises."""
    spec = ExperimentSpec(
        name="g",
        trial_fn="serving_slo",
        axes={"system": ("GPU",)},
        fixed={"qps": 4.0},
    )
    pinned = spec.with_axes(scheduler=("paged",), block_size=(32,))
    assert pinned.fixed["scheduler"] == "paged"
    assert pinned.fixed["block_size"] == 32
    assert pinned.axes == spec.axes
    widened = spec.with_axes(block_size=(16, 64))
    assert widened.axes["block_size"] == (16, 64)
    assert "block_size" not in widened.fixed
    refixed = spec.with_axes(qps=(8.0,))  # override an existing fixed value
    assert refixed.fixed["qps"] == 8.0
    with pytest.raises(KeyError, match="takes no such parameter"):
        spec.with_axes(schedular=("paged",))


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def test_result_cache_roundtrip_and_invalidation(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="fp-a")
    t = Trial("f", {"x": 1})
    assert cache.load(t) is None
    path = cache.store(t, {"v": 1.5}, elapsed=0.25)
    assert path.is_file() and path.parent.name == "f"
    hit = cache.load(t)
    assert hit.value == {"v": 1.5}
    assert hit.elapsed == 0.25
    # A different code fingerprint invalidates the entry...
    assert ResultCache(tmp_path, fingerprint="fp-b").load(t) is None
    # ...and a corrupt file counts as a miss, not an error.
    path.write_text("{not json")
    assert cache.load(t) is None


@trial("test_counting_trial")
def _counting_trial(counter_file: str, x: int) -> int:
    with open(counter_file, "a") as fh:
        fh.write("tick\n")
    return x * 10


def _count(counter_file) -> int:
    try:
        return len(counter_file.read_text().splitlines())
    except FileNotFoundError:
        return 0


def test_runner_cache_miss_then_hit(tmp_path):
    counter = tmp_path / "count"
    spec = ExperimentSpec(
        name="counted", trial_fn="test_counting_trial",
        axes={"x": (1, 2, 3)}, fixed={"counter_file": str(counter)},
    )
    runner = Runner(cache_dir=tmp_path / "cache", max_workers=1)
    first = runner.run(spec)
    assert first.values == [10, 20, 30]
    assert (first.n_cached, first.n_executed) == (0, 3)
    assert _count(counter) == 3

    second = Runner(cache_dir=tmp_path / "cache", max_workers=1).run(spec)
    assert (second.n_cached, second.n_executed) == (3, 0)
    assert second.values == first.values
    assert _count(counter) == 3  # nothing re-ran

    # Widening the grid only runs the new points.
    third = Runner(cache_dir=tmp_path / "cache", max_workers=1).run(
        spec.with_axes(x=(1, 2, 3, 4))
    )
    assert (third.n_cached, third.n_executed) == (3, 1)
    assert third.values == [10, 20, 30, 40]
    assert _count(counter) == 4


def _odd_x_only(params: dict) -> None:
    if params["x"] % 2 == 0:
        raise ValueError(f"x={params['x']} is even")


@trial("test_checked_trial", check=_odd_x_only)
def _checked_trial(counter_file: str, x: int = 1) -> int:
    return _counting_trial(counter_file, x)


def test_a_registered_check_refuses_the_grid_before_any_trial_runs(tmp_path):
    counter = tmp_path / "count"
    spec = ExperimentSpec(
        name="checked",
        trial_fn="test_checked_trial",
        axes={"x": (1, 3, 4)},
        fixed={"counter_file": str(counter)},
    )
    with pytest.raises(ValueError, match="x=4 is even"):
        Runner(use_cache=False, max_workers=1).run(spec)
    assert _count(counter) == 0
    # The check sees the trial's defaults for parameters the grid omits.
    defaulted = ExperimentSpec(
        name="checked",
        trial_fn="test_checked_trial",
        axes={"counter_file": (str(counter),)},
    )
    defaulted.validate()
    assert Runner(use_cache=False, max_workers=1).run(defaulted).values == [10]
    assert _count(counter) == 1


def test_runner_no_cache_always_recomputes(tmp_path):
    counter = tmp_path / "count"
    spec = ExperimentSpec(
        name="counted", trial_fn="test_counting_trial",
        axes={"x": (5,)}, fixed={"counter_file": str(counter)},
    )
    runner = Runner(use_cache=False, max_workers=1)
    runner.run(spec)
    runner.run(spec)
    assert _count(counter) == 2


# ---------------------------------------------------------------------------
# parallel execution
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_parallel_and_serial_runs_agree(tmp_path):
    spec = fig12_spec(smoke=True)
    serial = Runner(use_cache=False, max_workers=1).run(spec)
    parallel = Runner(use_cache=False, max_workers=2).run(spec)
    assert [r.trial for r in serial.results] == [r.trial for r in parallel.results]
    assert serial.values == parallel.values


# ---------------------------------------------------------------------------
# figure-path equivalence (acceptance criterion)
# ---------------------------------------------------------------------------


def test_engine_fig12_matches_direct_computation(tmp_path):
    spec = fig12_spec(smoke=True)
    report = Runner(cache_dir=tmp_path, max_workers=1).run(spec)
    data = fig12_assemble(report)

    for (scale, model, batch), by_system in data.items():
        direct = {
            kind.value: build_system(kind, scale)
            .generation_metrics(spec_for(model, scale), batch).tokens_per_second
            for kind in (SystemKind.GPU, SystemKind.GPU_Q,
                         SystemKind.GPU_PIM, SystemKind.PIMBA)
        }
        base = direct["GPU"]
        for system, normalized in by_system.items():
            assert normalized == direct[system] / base

    # The identical numbers come back from cache on a second invocation.
    again = Runner(cache_dir=tmp_path, max_workers=1).run(spec)
    assert again.n_executed == 0
    assert fig12_assemble(again) == data


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_parses_figure_options():
    args = build_parser().parse_args(
        ["figure", "fig12", "--smoke", "--jobs", "3", "--no-cache"]
    )
    assert args.command == "figure"
    assert args.figure_name == "fig12"
    assert args.smoke and args.no_cache
    assert args.jobs == 3 and not args.serial


def test_cli_parses_sweep_overrides():
    args = build_parser().parse_args(
        ["sweep", "fig12", "--serial", "--set", "batch=32,64", "--set", "scale=small"]
    )
    assert args.command == "sweep"
    assert args.sweep_name == "fig12"
    assert args.overrides == ["batch=32,64", "scale=small"]
    assert parse_axis_override("batch=32,64") == ("batch", (32, 64))
    assert parse_axis_override("model=Mamba-2") == ("model", ("Mamba-2",))
    with pytest.raises(ValueError):
        parse_axis_override("no-equals-sign")


def test_cli_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig99"])
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_figure_end_to_end_uses_cache(tmp_path, capsys):
    argv = ["figure", "fig12", "--smoke", "--serial", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "Fig. 12" in first
    assert "(0 cached, 8 executed)" in first

    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "(8 cached, 0 executed)" in second
    # Identical table either way: cache changes cost, never numbers.
    def table(text):
        return text.split("===")[2].split("\n\nfig12:")[0]

    assert table(first) == table(second)
    assert "Pimba" in table(first)

    entries = list(tmp_path.rglob("*.json"))
    assert len(entries) == 8
    payload = json.loads(entries[0].read_text())
    assert payload["trial_fn"] == "serving_throughput"
    assert "tokens_per_second" in payload["value"]


def test_cli_sweep_end_to_end(tmp_path, capsys):
    argv = [
        "sweep", "table3", "--serial", "--cache-dir", str(tmp_path), "--verbose",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "unit_area_power" in out
    assert "Pimba" in out and "HBM-PIM" in out
    assert "(0 cached, 2 executed)" in out


def test_cli_sweep_rejects_unknown_axis(tmp_path, capsys):
    argv = [
        "sweep", "table3", "--serial", "--cache-dir", str(tmp_path),
        "--set", "nope=1",
    ]
    assert main(argv) == 2
    assert "unknown axes" in capsys.readouterr().err


def test_table3_spec_is_tiny():
    assert len(table3_spec()) == 2
