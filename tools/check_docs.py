#!/usr/bin/env python
"""Documentation checks: links resolve, catalogs match the code.

Five families of checks, all run by the CI ``docs`` job and by
``tests/test_docs.py`` (so `pytest` catches drift before CI does):

* **Links** — every relative markdown link in every ``*.md`` file of the
  repository must point at an existing file (and, for ``#fragment``
  links into markdown files, at an existing heading).  External links
  (``http``/``https``/``mailto``) are not fetched.
* **Registry sync** — the README's experiment-catalog tables (Figures /
  Sweeps / Trial functions) must list *exactly* the names registered in
  ``repro.experiments``: a new sweep without a README row fails, as does
  a README row whose sweep was renamed or removed.  Each trial row's
  "driven by" column must list exactly the built-in sweeps whose full or
  smoke grid runs that trial.
* **Scheduler table** — ``docs/ARCHITECTURE.md``'s "Choosing a
  scheduler" table must have one row per scheduler ``build_scheduler``
  builds, and its "knobs" column may name only ``build_scheduler``
  parameters.  Of the policy-specific knobs it must list exactly those
  ``POLICY_KNOBS`` (the declaration ``build_scheduler`` enforces) gives
  that scheduler.
* **Router table** — its "Choosing a router" table must have a row for
  every name in ``ROUTER_NAMES`` and no other row.
* **Package map** — the README's "Package map" table must have exactly
  one row per ``src/repro`` package, and every row must name an existing
  path.

Run from the repository root (or pass it as ``argv[1]``):

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import inspect
import pathlib
import re
import sys

#: directories never scanned for markdown
SKIPPED_DIRS = {".git", ".repro-cache", "__pycache__", ".pytest_cache"}

#: markdown inline link: [text](target) — images share the syntax
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: fenced code blocks, whose bracketed text is not a link
_FENCE = re.compile(r"```.*?```", re.DOTALL)

_SECTIONS = {
    "figures": "### Figures",
    "sweeps": "### Sweeps",
    "trials": "### Trial functions",
}

#: the architecture doc's scheduler- and router-selection tables
_SCHEDULER_TABLE = "## Choosing a scheduler"
_ROUTER_TABLE = "## Choosing a router"

#: the README's table of repository paths
_PACKAGE_MAP = "## Package map"


def markdown_files(root: pathlib.Path) -> list[pathlib.Path]:
    return sorted(
        path
        for path in root.rglob("*.md")
        if not any(part in SKIPPED_DIRS for part in path.parts)
    )


def heading_slugs(markdown: str) -> set[str]:
    """GitHub-style anchor slugs of every heading in ``markdown``."""
    slugs = set()
    for line in _FENCE.sub("", markdown).splitlines():
        if not line.startswith("#"):
            continue
        title = line.lstrip("#").strip()
        slug = re.sub(r"[^\w\s-]", "", title.lower())
        slugs.add(re.sub(r"\s+", "-", slug.strip()))
    return slugs


def check_links(root: pathlib.Path) -> list[str]:
    """Every relative link in every markdown file resolves."""
    errors = []
    for path in markdown_files(root):
        raw = path.read_text(encoding="utf-8")
        text = _FENCE.sub("", raw)
        for target in _LINK.findall(text):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:
                continue
            if target.startswith("#"):
                if target[1:] not in heading_slugs(raw):
                    errors.append(f"{path}: broken anchor {target!r}")
                continue
            file_part, _, fragment = target.partition("#")
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                errors.append(f"{path}: broken link {target!r}")
                continue
            if fragment and resolved.suffix == ".md":
                slugs = heading_slugs(resolved.read_text(encoding="utf-8"))
                if fragment not in slugs:
                    errors.append(
                        f"{path}: link {target!r} names a missing heading"
                    )
    return errors


def _section(readme: str, section_heading: str) -> str:
    """The text under ``section_heading`` up to the next heading."""
    try:
        start = readme.index(section_heading)
    except ValueError:
        return ""
    section = readme[start + len(section_heading):]
    next_heading = re.search(r"\n#{2,3} ", section)
    if next_heading:
        section = section[: next_heading.start()]
    return section


def table_names(readme: str, section_heading: str) -> set[str]:
    """First-column backquoted names of the table under ``section_heading``."""
    section = _section(readme, section_heading)
    return set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))


def table_drivers(readme: str) -> dict[str, set[str]]:
    """Trial name -> backquoted sweep names of its "driven by" column."""
    section = _section(readme, _SECTIONS["trials"])
    return {
        name: set(re.findall(r"`([^`]+)`", last))
        for name, last in re.findall(
            r"^\| `([^`]+)` \|.*\|([^|]*)\|\s*$", section, re.MULTILINE
        )
    }


def registry_names() -> dict[str, set[str]]:
    """Built-in catalog names only: the README documents what ships with
    the package, so trials/sweeps registered ad hoc by callers (test
    suites do this) are excluded by their origin module."""
    from repro.experiments import registry
    from repro.experiments.figures import FIGURES

    return {
        "figures": set(FIGURES),
        "sweeps": {
            name
            for name in registry.sweep_names()
            if registry.get_sweep(name).__module__.startswith("repro.")
        },
        "trials": {
            name
            for name in registry.trial_names()
            if registry.trial_origin(name).startswith("repro.")
        },
    }


def sweep_drivers() -> dict[str, set[str]]:
    """Trial name -> built-in sweeps whose full or smoke grid runs it."""
    from repro.experiments import registry

    drivers: dict[str, set[str]] = {}
    for name in registry_names()["sweeps"]:
        build = registry.get_sweep(name)
        for smoke in (False, True):
            drivers.setdefault(build(smoke=smoke).trial_fn, set()).add(name)
    return drivers


def check_trial_drivers(readme: str) -> list[str]:
    """Each registered trial's row names exactly the sweeps driving it."""
    drivers = sweep_drivers()
    registered = registry_names()["trials"]
    errors = []
    for name, listed in sorted(table_drivers(readme).items()):
        actual = drivers.get(name, set())
        if name in registered and listed != actual:
            errors.append(
                f"README.md: trial {name!r} is driven by "
                f"{sorted(actual) or 'no sweep'}, but its row lists "
                f"{sorted(listed) or 'none'}"
            )
    return errors


def check_registry_sync(root: pathlib.Path) -> list[str]:
    """The README catalog tables list exactly the registered names, and
    each trial row exactly the sweeps that drive it."""
    readme = (root / "README.md").read_text(encoding="utf-8")
    errors = []
    for kind, registered in registry_names().items():
        heading = _SECTIONS[kind]
        documented = table_names(readme, heading)
        if not documented:
            errors.append(f"README.md: no table found under {heading!r}")
            continue
        for name in sorted(registered - documented):
            errors.append(
                f"README.md: registered {kind[:-1]} {name!r} has no row "
                f"under {heading!r}"
            )
        for name in sorted(documented - registered):
            errors.append(
                f"README.md: row {name!r} under {heading!r} matches no "
                f"registered {kind[:-1]}"
            )
    return errors + check_trial_drivers(readme)


def table_rows(doc: str, section_heading: str) -> list[list[str]]:
    """Cells of each row of the table under ``section_heading``.

    The header row comes first, then the ``| --- |`` separator.
    """
    return [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in _section(doc, section_heading).splitlines()
        if line.startswith("|")
    ]


def scheduler_table(doc: str) -> dict[str, set[str]]:
    """Scheduler name -> backquoted names of its row's "knobs" cell."""
    rows = table_rows(doc, _SCHEDULER_TABLE)
    if not rows or "knobs" not in rows[0]:
        return {}
    knobs = rows[0].index("knobs")
    return {
        row[0].strip("`"): set(re.findall(r"`([^`]+)`", row[knobs]))
        for row in rows[2:]
    }


def check_scheduler_table(doc: str) -> list[str]:
    """The table has a row per built scheduler, names only real knobs,
    and lists exactly the policy knobs each scheduler takes."""
    from repro.serving.schedulers import POLICY_KNOBS, build_scheduler

    where = "docs/ARCHITECTURE.md"
    table = scheduler_table(doc)
    if not table:
        return [f"{where}: no scheduler table found under {_SCHEDULER_TABLE!r}"]
    knobs = set(list(inspect.signature(build_scheduler).parameters)[3:])
    policy_knobs = set().union(*POLICY_KNOBS.values())
    errors = [
        f"{where}: build_scheduler builds {name!r}, but the scheduler "
        "table has no row for it"
        for name in POLICY_KNOBS
        if name not in table
    ]
    for name, listed in table.items():
        errors.extend(
            f"{where}: scheduler {name!r} lists knob {knob!r}, which is "
            "not a build_scheduler parameter"
            for knob in sorted(listed - knobs)
        )
        if name not in POLICY_KNOBS:
            errors.append(
                f"{where}: scheduler table row {name!r} is not a scheduler "
                "build_scheduler builds"
            )
            continue
        takes = set(POLICY_KNOBS[name])
        errors.extend(
            f"{where}: scheduler {name!r} lists knob {knob!r}, which "
            "build_scheduler refuses for it"
            for knob in sorted(listed & policy_knobs - takes)
        )
        errors.extend(
            f"{where}: scheduler {name!r} takes knob {knob!r}, which its "
            "row does not list"
            for knob in sorted(takes - listed)
        )
    return errors


def check_router_table(doc: str) -> list[str]:
    """The router table has a row for each ``ROUTER_NAMES`` entry, no other."""
    from repro.serving.routing import ROUTER_NAMES

    where = "docs/ARCHITECTURE.md"
    rows = table_rows(doc, _ROUTER_TABLE)
    if not rows:
        return [f"{where}: no router table found under {_ROUTER_TABLE!r}"]
    listed = [row[0].strip("`") for row in rows[2:]]
    errors = [
        f"{where}: ROUTER_NAMES has {name!r}, but the router table has no "
        "row for it"
        for name in ROUTER_NAMES
        if name not in listed
    ]
    errors.extend(
        f"{where}: router table row {name!r} is not in ROUTER_NAMES"
        for name in listed
        if name not in ROUTER_NAMES
    )
    return errors


def check_package_map(root: pathlib.Path) -> list[str]:
    """The package map has one row per ``src/repro`` package, and each
    row names an existing path."""
    readme = (root / "README.md").read_text(encoding="utf-8")
    rows = table_rows(readme, _PACKAGE_MAP)[2:]
    listed = [row[0].strip("`").rstrip("/") for row in rows]
    if not listed:
        return [f"README.md: no table found under {_PACKAGE_MAP!r}"]
    errors = [
        f"README.md: package map row {path!r} names no existing path"
        for path in listed
        if not (root / path).exists()
    ]
    for init in sorted((root / "src" / "repro").glob("*/__init__.py")):
        package = init.parent.relative_to(root).as_posix()
        if listed.count(package) != 1:
            errors.append(
                f"README.md: package {package!r} has {listed.count(package)} "
                "package map rows, not one"
            )
    return errors


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else ".").resolve()
    architecture = (root / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    errors = (
        check_links(root)
        + check_registry_sync(root)
        + check_scheduler_table(architecture)
        + check_router_table(architecture)
        + check_package_map(root)
    )
    for error in errors:
        print(f"docs check: {error}", file=sys.stderr)
    if not errors:
        n = len(markdown_files(root))
        print(
            f"docs check: {n} markdown files ok, catalog, scheduler, "
            "router and package tables in sync"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
