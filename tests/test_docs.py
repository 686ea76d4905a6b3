"""Docs stay true: links resolve, the README catalog matches the registry,
the architecture doc's scheduler and router tables match
``build_scheduler`` and ``ROUTER_NAMES``, and the README's package map
matches ``src/repro``.

Runs the same checks as the CI ``docs`` job (``tools/check_docs.py``), so
a renamed sweep or a broken relative link fails `pytest` locally before
it fails in CI — plus unit tests of the checker itself, so the checker
failing to *detect* breakage is also a test failure.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


class TestRepositoryDocs:
    def test_all_markdown_links_resolve(self):
        assert check_docs.check_links(ROOT) == []

    def test_readme_catalog_matches_registry(self):
        assert check_docs.check_registry_sync(ROOT) == []

    def test_scheduler_table_matches_build_scheduler(self):
        doc = (ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
        assert check_docs.check_scheduler_table(doc) == []

    def test_router_table_matches_router_names(self):
        doc = (ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
        assert check_docs.check_router_table(doc) == []

    def test_package_map_matches_the_tree(self):
        assert check_docs.check_package_map(ROOT) == []

    def test_architecture_doc_exists_and_is_linked(self):
        """The acceptance criterion in one place: docs/ARCHITECTURE.md
        exists and both README and ROADMAP point at it."""
        assert (ROOT / "docs" / "ARCHITECTURE.md").exists()
        assert "docs/ARCHITECTURE.md" in (ROOT / "README.md").read_text()
        assert "docs/ARCHITECTURE.md" in (ROOT / "ROADMAP.md").read_text()


class TestCheckerDetectsBreakage:
    def test_broken_relative_link_is_reported(self, tmp_path):
        (tmp_path / "a.md").write_text("see [missing](nope.md)")
        errors = check_docs.check_links(tmp_path)
        assert len(errors) == 1 and "nope.md" in errors[0]

    def test_broken_heading_anchor_is_reported(self, tmp_path):
        (tmp_path / "a.md").write_text("# Only Heading\n")
        (tmp_path / "b.md").write_text("[x](a.md#other-heading)")
        errors = check_docs.check_links(tmp_path)
        assert len(errors) == 1 and "missing heading" in errors[0]

    def test_valid_links_pass(self, tmp_path):
        (tmp_path / "a.md").write_text(
            "# My Heading\n[self](#my-heading) [ext](https://example.com)\n"
        )
        (tmp_path / "b.md").write_text("[x](a.md#my-heading) [y](a.md)")
        assert check_docs.check_links(tmp_path) == []

    def test_links_inside_code_fences_are_ignored(self, tmp_path):
        (tmp_path / "a.md").write_text(
            "```\n[not a link](nope.md)\n```\nreal text\n"
        )
        assert check_docs.check_links(tmp_path) == []

    def test_table_names_parses_first_column(self):
        readme = (
            "### Sweeps\n\n"
            "| sweep | what | run |\n| --- | --- | --- |\n"
            "| `alpha` | a | `repro sweep alpha` |\n"
            "| `beta` | b | `repro sweep beta` |\n\n"
            "### Trial functions\n\n| trial |\n| --- |\n| `gamma` |\n"
        )
        assert check_docs.table_names(readme, "### Sweeps") == {
            "alpha", "beta",
        }
        assert check_docs.table_names(readme, "### Trial functions") == {
            "gamma"
        }

    def test_table_drivers_parse_the_last_column(self):
        readme = (
            "### Trial functions\n\n| trial | computes | driven by |\n"
            "| --- | --- | --- |\n"
            "| `alpha` | reads `x` | `s1`, `s2` |\n"
            "| `beta` | b | |\n"
        )
        assert check_docs.table_drivers(readme) == {
            "alpha": {"s1", "s2"}, "beta": set(),
        }

    def test_wrong_driven_by_rows_are_reported(self):
        """A sweep left out, a wrong sweep, and an extra sweep are each
        reported; a correct row is not."""
        readme = (
            "### Trial functions\n\n| trial | computes | driven by |\n"
            "| --- | --- | --- |\n"
            "| `cluster_slo` | c | `cluster`, `scaling` |\n"
            "| `serving_throughput` | s | `ablation` |\n"
            "| `unit_area_power` | u | `table3`, `fig12` |\n"
            "| `wallclock` | w | `wallclock` |\n"
        )
        errors = check_docs.check_trial_drivers(readme)
        assert len(errors) == 3
        for name in ("cluster_slo", "serving_throughput", "unit_area_power"):
            assert any(repr(name) in error for error in errors)

    def test_sweep_drivers_read_the_registry(self):
        drivers = check_docs.sweep_drivers()
        assert drivers["serving_throughput"] == {"fig12"}
        assert drivers["cluster_slo"] == {
            "cluster", "scaling", "disaggregation",
        }
        assert drivers["trace_replay_slo"] == {
            "trace-replay", "cross_replica_prefix",
        }

    def test_scheduler_table_rows_and_knobs_are_checked(self):
        """An unknown knob, an unknown scheduler and every scheduler
        without a row are each reported; a correct row is not."""
        doc = (
            "## Choosing a scheduler\n\n"
            "| scheduler | admission | knobs | when |\n"
            "| --- | --- | --- | --- |\n"
            "| `fcfs` | slots | `max_batch`, `step_stride` | always |\n"
            "| `paged` | blocks | `block_size`, `capacity_bytes`, `preempt` "
            "| long outputs |\n"
            "| `lifo` | backwards | `max_batch` | never |\n\n"
            "## Next section\n| `static` | x | `cache` | y |\n"
        )
        assert check_docs.scheduler_table(doc) == {
            "fcfs": {"max_batch", "step_stride"},
            "paged": {"block_size", "capacity_bytes", "preempt"},
            "lifo": {"max_batch"},
        }
        errors = check_docs.check_scheduler_table(doc)
        assert sum("'preempt'" in error for error in errors) == 1
        assert sum("'lifo'" in error for error in errors) == 1
        missing = [e for e in errors if "has no row" in e]
        assert len(missing) == 5 and not any("'fcfs'" in e for e in missing)
        assert len(errors) == 7

    def test_scheduler_rows_list_exactly_the_policy_knobs(self):
        """A row naming a knob its policy refuses, or leaving out one it
        takes, is reported; the rest of the table is in order."""
        rows = {
            "static": "`max_batch`",
            "fcfs": "`max_batch`",
            "memory": "`capacity_bytes`",
            "chunked": "`chunk_budget`, `capacity_bytes`",
            "overlap": "`chunk_budget`",
            "paged": "`block_size`, `capacity_bytes`, `chunk_budget`",
            "prefix": "`block_size`, `capacity_bytes`",
        }
        doc = "## Choosing a scheduler\n\n| scheduler | knobs |\n| --- | --- |\n"
        doc += "".join(f"| `{name}` | {knobs} |\n" for name, knobs in rows.items())
        errors = check_docs.check_scheduler_table(doc)
        assert len(errors) == 2
        missing, refused = errors
        assert "'overlap'" in missing and "'capacity_bytes'" in missing
        assert "does not list" in missing
        assert "'paged'" in refused and "'chunk_budget'" in refused
        assert "refuses" in refused

    def test_a_missing_scheduler_table_is_reported(self):
        errors = check_docs.check_scheduler_table("# Architecture\n")
        assert len(errors) == 1 and "no scheduler table" in errors[0]

    def test_router_table_rows_are_checked(self):
        """A router without a row and a row naming no router are each
        reported; correct rows are not."""
        doc = (
            "## Choosing a router\n\n"
            "| router | placement rule | state | when to use |\n"
            "| --- | --- | --- | --- |\n"
            "| `round-robin` | i mod N | a counter | baseline |\n"
            "| `least-loaded` | fewest in flight | deques | scaling |\n"
            "| `affinity` | session hash | none | multi-turn |\n"
            "| `random` | a coin | none | never |\n\n"
            "## Next section\n| `cache-aware` | x | y | z |\n"
        )
        errors = check_docs.check_router_table(doc)
        assert len(errors) == 2
        assert "'cache-aware'" in errors[0] and "no row" in errors[0]
        assert "'random'" in errors[1] and "not in ROUTER_NAMES" in errors[1]

    def test_a_missing_router_table_is_reported(self):
        errors = check_docs.check_router_table("# Architecture\n")
        assert len(errors) == 1 and "no router table" in errors[0]

    def test_package_map_missing_and_stale_rows_are_reported(self, tmp_path):
        """A package without a row and a row naming no path are each
        reported; a correct row, with or without a trailing slash, is
        not."""
        for package in ("core", "dram", "perf"):
            (tmp_path / "src" / "repro" / package).mkdir(parents=True)
            (tmp_path / "src" / "repro" / package / "__init__.py").write_text("")
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "## Package map\n\n| Path | What lives there |\n| --- | --- |\n"
            "| `src/repro/core` | the accelerator |\n"
            "| `src/repro/dram/` | Table 1 |\n"
            "| `src/repro/cycles` | a deleted package |\n"
            "| `docs/` | architecture |\n\n## CI\n| `src/repro/perf` | x |\n"
        )
        errors = check_docs.check_package_map(tmp_path)
        assert len(errors) == 2
        stale, missing = errors
        assert "'src/repro/cycles'" in stale and "no existing path" in stale
        assert "'src/repro/perf'" in missing and "0 package map rows" in missing

    def test_a_missing_package_map_is_reported(self, tmp_path):
        (tmp_path / "README.md").write_text("# Readme\n")
        errors = check_docs.check_package_map(tmp_path)
        assert len(errors) == 1 and "no table" in errors[0]

    def test_registry_names_cover_all_kinds(self):
        names = check_docs.registry_names()
        assert {"figures", "sweeps", "trials"} == set(names)
        assert "preemption_tradeoff" in names["figures"]
        assert "paged" in names["sweeps"]
        assert "serving_slo" in names["trials"]
