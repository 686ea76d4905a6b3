"""CLI tooling satellites: ``repro cache`` and ``--json`` reports."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.experiments import ResultCache, Trial
from repro.experiments.cli import build_parser, main


@pytest.fixture
def warm_cache(tmp_path):
    """A cache with entries for two trial functions."""
    cache = ResultCache(tmp_path, fingerprint="fp")
    cache.store(Trial("fn_a", {"x": 1}), 1.0, elapsed=0.1)
    cache.store(Trial("fn_a", {"x": 2}), 2.0, elapsed=0.1)
    cache.store(Trial("fn_b", {"y": 1}), 3.0, elapsed=0.1)
    return cache


class TestCacheMethods:
    def test_stats(self, warm_cache, tmp_path):
        stats = warm_cache.stats()
        assert stats.root == tmp_path
        assert stats.n_entries == 3
        assert stats.by_trial_fn == {"fn_a": 2, "fn_b": 1}
        assert stats.total_bytes > 0

    def test_clear_removes_entries_and_empty_dirs(self, warm_cache, tmp_path):
        foreign = tmp_path / "fn_a" / "README.txt"
        foreign.write_text("not a cache entry")
        bystander = tmp_path / "logs"  # pre-existing empty dir, not ours
        bystander.mkdir()
        assert warm_cache.clear() == 3
        assert warm_cache.stats().n_entries == 0
        # Unrecognized files survive, as do their directory and empty
        # directories clear() did not itself drain.
        assert foreign.exists()
        assert bystander.is_dir()
        assert not (tmp_path / "fn_b").exists()

    def test_foreign_json_is_neither_counted_nor_deleted(self, tmp_path):
        """A mistyped --cache-dir must never delete user data: files that
        lack the cache's own layout markers are not entries."""
        cache = ResultCache(tmp_path, fingerprint="fp")
        cache.store(Trial("fn_a", {"x": 1}), 1.0, elapsed=0.1)
        config = tmp_path / "settings" / "user.json"
        config.parent.mkdir()
        config.write_text('{"theme": "dark"}')
        assert cache.stats().n_entries == 1
        assert cache.clear() == 1
        assert config.read_text() == '{"theme": "dark"}'

    def test_stats_on_missing_root(self, tmp_path):
        cache = ResultCache(tmp_path / "nope", fingerprint="fp")
        assert cache.stats().n_entries == 0
        assert cache.clear() == 0


class TestCacheCommand:
    def test_info_and_clear(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unused"))
        argv = ["figure", "table3", "--serial", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()

        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "unit_area_power" in out and "entries:    2" in out

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "entries:    0" in capsys.readouterr().out

    def test_cache_dir_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "info"]) == 0
        assert str(tmp_path) in capsys.readouterr().out

    def test_parser(self):
        args = build_parser().parse_args(["cache", "info"])
        assert args.command == "cache" and args.action == "info"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "nuke"])


class TestJsonReport:
    def test_sweep_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "out" / "table3.json"
        out_path.parent.mkdir()
        argv = [
            "sweep", "table3", "--serial", "--cache-dir", str(tmp_path),
            "--json", str(out_path),
        ]
        assert main(argv) == 0
        assert "wrote 2 trial results" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["name"] == "table3"
        assert payload["trial_fn"] == "unit_area_power"
        assert payload["n_cached"] + payload["n_executed"] == 2
        designs = {r["params"]["design"] for r in payload["results"]}
        assert designs == {"Pimba", "HBM-PIM"}
        for r in payload["results"]:
            assert "total_mm2" in r["value"]

    def test_figure_json_matches_rerun_from_cache(self, tmp_path):
        argv = [
            "figure", "fig12", "--smoke", "--serial",
            "--cache-dir", str(tmp_path),
        ]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--json", str(first)]) == 0
        assert main(argv + ["--json", str(second)]) == 0
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        # Cache changes provenance, never values.
        assert a["n_executed"] == 8
        assert b["n_cached"] == 8
        assert [r["value"] for r in a["results"]] == [
            r["value"] for r in b["results"]
        ]

    def test_json_flag_parsed(self):
        args = build_parser().parse_args(
            ["sweep", "fig12", "--json", "x.json"]
        )
        assert args.json_path == "x.json"
        args = build_parser().parse_args(["figure", "fig12"])
        assert args.json_path is None


class TestRefusedArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "serving", "--smoke", "--set", "fooo=1"],
            ["sweep", "serving", "--smoke", "--set", "scheduler=foo"],
            ["trace", "export", "--set", "fooo=1"],
        ],
        ids=["sweep-axis", "sweep-scheduler", "trace-parameter"],
    )
    def test_an_unknown_name_prints_one_bare_line(self, argv, tmp_path, capsys):
        """An unknown ``--set`` name is refused as a ``KeyError``, and
        prints as one unquoted ``repro:`` line, as a ``ValueError`` does."""
        out = tmp_path / "out.json"
        argv = [*argv, "--json" if argv[0] == "sweep" else "--out", str(out)]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("repro: unknown")
        assert not out.exists()


class TestClosedStdout:
    @pytest.mark.parametrize(
        "unbuffered", [False, True], ids=["buffered", "unbuffered"]
    )
    def test_list_into_a_closed_pipe_ends_quietly(self, unbuffered):
        """``repro list | head`` must not end in a traceback: the pipe's
        reader is gone before anything is written, so every write (or the
        flush of a block-buffered stdout) fails with EPIPE."""
        env = dict(os.environ)
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "list"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err
