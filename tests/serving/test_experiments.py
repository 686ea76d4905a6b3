"""Serving trials/sweeps: engine integration, replay-file caching, and
the one build path every serving trial and ``repro trace export`` share."""

import inspect
import json

import pytest

from repro.experiments import Runner
from repro.experiments.cli import main
from repro.perf import SystemKind
from repro.serving import experiments as serving_experiments
from repro.serving.arrivals import poisson_trace, save_trace
from repro.serving.corpus import trace_replay_slo
from repro.serving.experiments import (
    CHUNK_BUDGET_GRID,
    MULTITURN_TURNS,
    PAGED_LOAD,
    _SCHEDULER_KNOBS,
    _serve_trial,
    _trial_defaults,
    build_arrival_trace,
    chunking_spec,
    cluster_slo,
    collect_timeline,
    parse_fleet,
    replay_spec,
    serving_assemble,
    serving_render,
    serving_slo,
    serving_spec,
    serving_timeline,
    trace_fingerprint,
    ttft_tradeoff_assemble,
    ttft_tradeoff_render,
    ttft_tradeoff_spec,
)
from repro.serving.schedulers import build_scheduler
from repro.serving.telemetry import validate_trace_events

#: a small load every one-path test serves
SMALL = dict(n_requests=8, input_len=256, output_len=32, max_batch=4)


class TestServingSloTrial:
    def test_payload_shape(self):
        payload = serving_slo(
            "Pimba", 8.0, n_requests=8, input_len=256, output_len=32,
            max_batch=4,
        )
        assert payload["n_requests"] == 8
        assert payload["goodput_rps"] <= payload["completed_per_s"]
        assert payload["ttft_p50_s"] <= payload["ttft_p99_s"]

    def test_unknown_knobs_rejected(self):
        with pytest.raises(KeyError, match="arrival"):
            serving_slo("GPU", 1.0, n_requests=2, arrival="uniform")
        with pytest.raises(KeyError, match="length_dist"):
            serving_slo("GPU", 1.0, n_requests=2, length_dist="zipf")

    def test_scheduler_axis(self):
        for scheduler in ("static", "fcfs", "memory", "chunked", "overlap"):
            shape = {"chunk_budget": 48} if scheduler in ("chunked", "overlap") else {}
            payload = serving_slo(
                "GPU", 20.0, scheduler=scheduler, n_requests=6,
                input_len=128, output_len=16, max_batch=2, **shape,
            )
            assert payload["n_requests"] == 6

    def test_chunk_budget_changes_the_outcome(self):
        """The knob reaches the engine: finer chunks -> more prefill
        events; a whole-prompt budget reproduces plain FCFS."""
        kwargs = dict(
            n_requests=8, input_len=256, output_len=32, max_batch=4,
        )
        fine = serving_slo(
            "Pimba", 20.0, scheduler="chunked", chunk_budget=64, **kwargs
        )
        whole = serving_slo(
            "Pimba", 20.0, scheduler="chunked", chunk_budget=256, **kwargs
        )
        fcfs = serving_slo("Pimba", 20.0, scheduler="fcfs", **kwargs)
        assert fine["n_prefills"] > whole["n_prefills"]
        assert whole == fcfs


class TestSweepSpecs:
    def test_smoke_is_tiny_and_full_covers_all_systems(self):
        assert len(serving_spec(smoke=True)) == 2
        full = serving_spec()
        assert len(full) == 20
        assert set(full.axes["system"]) == {
            "GPU", "GPU+Q", "GPU+PIM", "Pimba", "NeuPIMs",
        }

    def test_assemble_and_render(self):
        report = Runner(use_cache=False, max_workers=1).run(
            serving_spec(smoke=True)
        )
        data = serving_assemble(report)
        assert set(data) == {"GPU", "Pimba"}
        header, rows = serving_render(data)
        assert header[0] == "system" and len(rows) == 2


class TestPrefillShapingSpecs:
    def test_smoke_grids_are_tiny(self):
        assert len(chunking_spec(smoke=True)) == 2
        assert len(ttft_tradeoff_spec(smoke=True)) == 4

    def test_full_grids_cover_budgets_and_schedulers(self):
        chunking = chunking_spec()
        assert chunking.axes["chunk_budget"] == CHUNK_BUDGET_GRID
        assert set(chunking.axes["scheduler"]) == {"chunked", "overlap"}
        tradeoff = ttft_tradeoff_spec()
        assert tradeoff.axes["chunk_budget"] == CHUNK_BUDGET_GRID
        assert len(tradeoff.axes["system"]) == 5
        # The widest budget covers the whole fixed-length prompt, so the
        # chunked curve is anchored on the blocked FCFS baseline.
        assert max(CHUNK_BUDGET_GRID) == tradeoff.fixed["input_len"]

    def test_tradeoff_assemble_and_render(self):
        report = Runner(use_cache=False, max_workers=1).run(
            ttft_tradeoff_spec(smoke=True)
        )
        data = ttft_tradeoff_assemble(report)
        assert set(data) == {("GPU", "overlap"), ("Pimba", "overlap")}
        header, rows = ttft_tradeoff_render(data)
        assert header[:3] == ["system", "scheduler", "chunk budget"]
        assert len(rows) == 4


class TestMultiturnArrivals:
    def test_sessions_have_the_fixed_turn_count(self):
        trace = build_arrival_trace(
            1.0, 3 * MULTITURN_TURNS, 0, "multiturn", 1.0, "fixed", 256, 32, 0.5
        )
        sessions = [r.session_id for r in trace.requests]
        assert [sessions.count(s) for s in set(sessions)] == [MULTITURN_TURNS] * 3

    def test_partial_sessions_rejected(self):
        with pytest.raises(ValueError, match="not a whole number of 4-turn"):
            build_arrival_trace(1.0, 6, 0, "multiturn", 1.0, "fixed", 256, 32, 0.5)


class TestTraceReplayCaching:
    def test_replay_spec_keys_cache_on_content(self, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(poisson_trace(20.0, 4, seed=0), path)
        fixed = dict(n_requests=4, input_len=64, output_len=8, max_batch=2)
        spec_a = replay_spec(path, systems=("GPU",), **fixed)
        assert spec_a.fixed["trace_sha"] == trace_fingerprint(path)

        save_trace(poisson_trace(20.0, 4, seed=1), path)
        spec_b = replay_spec(path, systems=("GPU",), **fixed)
        keys = [next(s.trials()).key for s in (spec_a, spec_b)]
        assert keys[0] != keys[1]  # edited file -> different cache identity

    def test_stale_sha_raises_instead_of_serving_old_numbers(self, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(poisson_trace(20.0, 4, seed=0), path)
        sha = trace_fingerprint(path)
        save_trace(poisson_trace(20.0, 4, seed=1), path)
        with pytest.raises(ValueError, match="no longer matches"):
            serving_slo("GPU", 0.0, trace_file=str(path), trace_sha=sha)

    def test_replay_runs_end_to_end(self, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(poisson_trace(20.0, 5, seed=0), path)
        spec = replay_spec(path, systems=("GPU", "Pimba"), max_batch=4)
        report = Runner(cache_dir=tmp_path / "cache", max_workers=1).run(spec)
        by_system = report.mapping("system")
        assert by_system["GPU"]["n_requests"] == 5
        assert by_system["Pimba"]["n_requests"] == 5


class _ReadRecorder(dict):
    """A parameter dict that remembers which keys were read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestOneServingPath:
    """Every serving trial and the trace export build the same fleet."""

    @pytest.mark.parametrize(
        "fn, own",
        [
            (serving_slo, set()),
            (cluster_slo, set()),
            (serving_timeline, {"n_windows"}),
        ],
        ids=["serving_slo", "cluster_slo", "serving_timeline"],
    )
    def test_every_trial_parameter_is_read(self, fn, own):
        """Parameters reach the builders by name, so a trial parameter
        left behind when its builder knob goes would be ignored silently
        under ``--set``.  Only ``own`` is read by the trial itself."""
        params = _ReadRecorder(system="Pimba", qps=8.0, **_trial_defaults(fn))
        assert set(params) == set(inspect.signature(fn).parameters)
        _serve_trial(params)
        assert set(params) - params.read == own

    def test_timeline_trial_payload_is_the_slo_payload(self):
        params = {**PAGED_LOAD, "scheduler": "paged", "qps": 4.0}
        timeline = serving_timeline(n_windows=4, **params)
        assert timeline.pop("n_windows") == 4
        assert len(timeline.pop("windows")) == 4
        assert timeline == serving_slo(**params)

    def test_single_node_payload_has_no_cluster_keys(self):
        payload = serving_slo("Pimba", 8.0, **SMALL)
        fleet = cluster_slo("Pimba", 8.0, replicas=1, **SMALL)
        for key in ("router", "n_replicas", "load_imbalance", "per_replica"):
            assert key not in payload
            assert key in fleet
            del fleet[key]
        assert payload == fleet

    @pytest.mark.parametrize(
        "trial, fn, params, n_tracks",
        [
            ("serving_slo", serving_slo, {}, 1),
            ("cluster_slo", cluster_slo, {"replicas": 2}, 2),
        ],
    )
    def test_collect_timeline_returns_the_trial_payload(
        self, trial, fn, params, n_tracks
    ):
        timeline, _slo, payload = collect_timeline(trial, **params, **SMALL)
        assert payload == fn("Pimba", 8.0, **params, **SMALL)
        assert len(timeline.tracks) == n_tracks

    def test_collect_timeline_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="unknown trial"):
            collect_timeline("wallclock")
        with pytest.raises(KeyError, match="unknown parameter"):
            collect_timeline("serving_slo", replicas=2)

    @pytest.mark.parametrize(
        "trial, extra, n_tracks",
        [
            ("serving_slo", [], 1),
            ("cluster_slo", ["replicas=2"], 2),
            (
                "cluster_slo",
                ["nodes=GPU:prefill+Pimba:decode", "router=disaggregated"],
                2,
            ),
        ],
    )
    def test_trace_export_writes_a_valid_file(
        self, trial, extra, n_tracks, tmp_path, capsys
    ):
        out = tmp_path / "trace.json"
        sets = [f"{k}={v}" for k, v in SMALL.items()] + extra
        argv = ["trace", "export", "--trial", trial, "--out", str(out)]
        for text in sets:
            argv += ["--set", text]
        assert main(argv) == 0
        assert validate_trace_events(json.loads(out.read_text())) == []
        assert f"({n_tracks} track(s)," in capsys.readouterr().out

    @pytest.mark.parametrize("kind", list(SystemKind), ids=lambda k: k.value)
    def test_plus_separates_fleet_nodes_like_a_comma(self, kind):
        # The "+" inside GPU+Q and GPU+PIM is part of the name.
        for other in SystemKind:
            for sep in (",", "+"):
                for nodes, phases in (
                    (f"{kind.value}:prefill{sep}{other.value}", ("prefill", "both")),
                    (f"{kind.value}{sep}{other.value}:decode", ("both", "decode")),
                ):
                    systems, got = parse_fleet(nodes)
                    assert [s.kind for s in systems] == [kind, other], nodes
                    assert got == phases, nodes
        (system,), phases = parse_fleet(kind.value)
        assert (system.kind, phases) == (kind, ("both",))

    def test_spaces_around_kinds_and_phases_are_ignored(self):
        spaced, phases = parse_fleet("GPU : prefill + Pimba : decode")
        plain, want = parse_fleet("GPU:prefill,Pimba:decode")
        assert [s.kind for s in spaced] == [s.kind for s in plain]
        assert phases == want == ("prefill", "decode")

    @pytest.mark.parametrize(
        "nodes, position",
        [("GPU,,Pimba", 2), ("GPU,Pimba,", 3), ("GPU,Pimb", 2)],
    )
    def test_a_bad_entry_is_named_by_position(self, nodes, position):
        with pytest.raises(ValueError, match=f"fleet entry {position} ") as err:
            parse_fleet(nodes)
        assert all(kind.value in str(err.value) for kind in SystemKind)

    def test_a_plus_fleet_is_one_sweep_cell(self, tmp_path):
        out = tmp_path / "disagg.json"
        argv = [
            "sweep",
            "disaggregation",
            "--smoke",
            "--serial",
            "--cache-dir",
            str(tmp_path),
            "--json",
            str(out),
            "--set",
            "nodes=GPU:prefill+Pimba:decode",
        ]
        assert main(argv) == 0
        (result,) = json.loads(out.read_text())["results"]
        assert result["value"]["phases"] == ["prefill", "decode"]

    def test_trace_export_refuses_a_multi_valued_set(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        argv = ["trace", "export", "--set", "qps=1,2", "--out", str(out)]
        assert main(argv) == 2
        assert "one value per --set" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "serving", "--smoke", "--serial", "--no-cache"],
            ["trace", "export", "--trial", "serving_slo"],
        ],
        ids=["sweep", "trace-export"],
    )
    @pytest.mark.parametrize(
        "scheduler, knob, takes",
        [
            ("fcfs", "capacity_gib=9.7", "max_batch, step_stride"),
            ("fcfs", "block_size=32", "max_batch, step_stride"),
            ("memory", "chunk_budget=128", "max_batch, step_stride, capacity_gib"),
        ],
    )
    def test_a_refused_policy_knob_fails_before_any_trial_runs(
        self, command, scheduler, knob, takes, tmp_path, capsys, monkeypatch
    ):
        def no_fleet(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(serving_experiments, "build_cluster", no_fleet)
        out = tmp_path / "out.json"
        argv = [*command, "--set", f"scheduler={scheduler}", "--set", knob]
        argv += ["--json" if command[0] == "sweep" else "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"repro: scheduler {scheduler!r} cannot use {knob}: it takes {takes}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "scheduler, knob, refusal",
        [
            ("paged", "capacity_gib=NaN", "finite number, got nan"),
            ("paged", "capacity_gib=nan", "finite number, got 'nan'"),
            ("memory", "capacity_gib=Infinity", "finite number, got inf"),
            ("paged", "block_size=64.5", "positive integer, got 64.5"),
            ("prefix", "block_size=true", "positive integer, got True"),
            ("chunked", "chunk_budget=100.5", "positive integer, got 100.5"),
            ("fcfs", "max_batch=8.5", "positive integer, got 8.5"),
            ("fcfs", "step_stride=2.5", "positive integer, got 2.5"),
            ("fcfs", "max_batch=0", "positive integer, got 0"),
        ],
    )
    def test_a_malformed_knob_fails_before_any_trial_runs(
        self, scheduler, knob, refusal, tmp_path, capsys, monkeypatch
    ):
        """A knob value no policy can use exits 2 with one ``repro:``
        line naming it as the trial spells it, before any trial runs: a
        NaN capacity no longer serves as unbounded HBM, and a ``nan``
        the JSON parser leaves a string no longer dies in a traceback."""

        def no_fleet(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(serving_experiments, "build_cluster", no_fleet)
        out = tmp_path / "out.json"
        argv = ["sweep", "serving", "--smoke", "--serial", "--no-cache"]
        argv += ["--set", f"scheduler={scheduler}", "--set", knob]
        assert main([*argv, "--json", str(out)]) == 2
        name = knob.partition("=")[0]
        assert capsys.readouterr().err.splitlines() == [
            f"repro: {name} must be a {refusal}"
        ]
        assert not out.exists()

    def test_shared_parameters_share_defaults(self):
        """The trial signatures stay explicit (``--set`` validation and
        ``collect_timeline`` read them), so they must not drift apart:
        a parameter two serving trials share has one default, except
        the replica count.  Each scheduler knob a trial forwards has
        ``build_scheduler``'s own default (``capacity_bytes`` is spelled
        ``capacity_gib``), so a trial that leaves a knob alone leaves it
        unset, and a policy that does not take it builds."""
        seen: dict = {}
        for fn in (serving_slo, serving_timeline, cluster_slo, trace_replay_slo):
            for name, p in inspect.signature(fn).parameters.items():
                if name == "replicas" or p.default is p.empty:
                    continue
                owner, default = seen.setdefault(name, (fn.__name__, p.default))
                assert p.default == default, (
                    f"{name}: {fn.__name__} defaults to {p.default!r}, "
                    f"{owner} to {default!r}"
                )
        knob_params = inspect.signature(build_scheduler).parameters
        for fn in (serving_slo, serving_timeline, cluster_slo, trace_replay_slo):
            params = inspect.signature(fn).parameters
            for knob in _SCHEDULER_KNOBS:
                name = "capacity_gib" if knob == "capacity_bytes" else knob
                if fn is trace_replay_slo and name not in params:
                    continue  # a corpus replay forwards only the slot knobs
                assert params[name].default == knob_params[knob].default, (
                    f"{fn.__name__}: {name} defaults to "
                    f"{params[name].default!r}, build_scheduler's {knob} "
                    f"to {knob_params[knob].default!r}"
                )
