#!/usr/bin/env python3
"""Fail if any public ``__all__`` symbol is missing from docs/API.md.

Checked surfaces: ``repro.__all__`` (the top-level re-exports) plus the
subsystem surfaces ``repro.sim.__all__``, ``repro.coordl.__all__``,
``repro.cache.__all__``, ``repro.store.__all__``, ``repro.serve.__all__``,
``repro.resilience.__all__``, ``repro.dist.__all__`` and
``repro.experiments.failures.__all__``.

Run as ``make docs-check`` (or ``PYTHONPATH=src python tools/docs_check.py``).
The check is textual on purpose: a symbol counts as documented when its name
appears anywhere in docs/API.md, so tables, prose and code snippets all
qualify, and renames/removals surface immediately.

Documented constant values are checked too: every ``| `NAME` | constant |
`literal` |`` table row must name a symbol one of the checked surfaces
exports, and ``ast.literal_eval(literal)`` must equal its value (so a
version bump cannot drift from its row).  Rows whose value is not a Python
literal (an expression, or prose such as "64 MiB") are skipped.

So is the sweep-point kind list: every loader name in
``repro.sim.POINT_KINDS`` must appear in docs/API.md in backticks or
double quotes (`` `coordl` `` or ``"hp-coordl"``), so a kind added to the
table cannot go undocumented.

The docs are checked against the code as well: every dotted
``repro.<name>`` token in docs/ARCHITECTURE.md and docs/API.md must
resolve to a module or attribute, and every backticked name in the "Key
types" column of an ARCHITECTURE.md module row must be an attribute of
that row's module, so a deleted or moved name cannot linger in the docs.
Every ``name=`` keyword in the signature cell of an API.md ``class`` or
``function`` row (``| `Name` | class | `Name(a, b=1)` |``, ``Class.method``
names included) must be a parameter of that callable, so a removed
parameter cannot linger in a documented signature.
"""

from __future__ import annotations

import ast
import inspect
import pathlib
import pkgutil
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402  (path bootstrap above)
import repro.cache  # noqa: E402
import repro.coordl  # noqa: E402
import repro.dist  # noqa: E402
import repro.experiments.failures  # noqa: E402
import repro.resilience  # noqa: E402
import repro.serve  # noqa: E402
import repro.sim  # noqa: E402
import repro.store  # noqa: E402

#: (label, module) pairs whose ``__all__`` must be covered by docs/API.md.
CHECKED_SURFACES = (
    ("repro", repro),
    ("repro.sim", repro.sim),
    ("repro.coordl", repro.coordl),
    ("repro.cache", repro.cache),
    ("repro.store", repro.store),
    ("repro.serve", repro.serve),
    ("repro.resilience", repro.resilience),
    ("repro.dist", repro.dist),
    ("repro.experiments.failures", repro.experiments.failures),
)


#: One documented constant: ``| `NAME` | constant | `value` | ...``.
CONSTANT_ROW = re.compile(r"^\| `(\w+)` \| constant \| `([^`]+)` \|",
                          re.MULTILINE)


def constant_mismatches(text: str) -> list[str]:
    """Problems with the documented values of exported constants."""
    problems = []
    for name, literal in CONSTANT_ROW.findall(text):
        try:
            documented = ast.literal_eval(literal)
        except (ValueError, SyntaxError):
            continue  # not a literal: nothing to compare
        owners = [(label, module) for label, module in CHECKED_SURFACES
                  if name in module.__all__]
        if not owners:
            problems.append(f"{name}: documented as a constant, but no "
                            f"checked surface exports it")
        for label, module in owners:
            value = getattr(module, name)
            if type(value) is not type(documented) or value != documented:
                problems.append(f"{label}.{name} is {value!r}; docs/API.md "
                                f"says {literal}")
    return problems


#: A dotted ``repro.<name>`` reference anywhere in the docs.
DOTTED_NAME = re.compile(r"\brepro(?:\.\w+)+")

#: Docs whose ``repro.<name>`` references must resolve.
RESOLVED_DOCS = ("ARCHITECTURE.md", "API.md")


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an importable module or one of its attributes."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError, ValueError):
        return False
    return True


def unresolved_names(docs: dict[str, str]) -> list[str]:
    """``repro.<name>`` tokens in the docs that name nothing in the code."""
    return [f"{doc}: {name}" for doc, text in docs.items()
            for name in sorted(set(DOTTED_NAME.findall(text)))
            if not resolves(name)]


def key_type_mismatches(architecture: str) -> list[str]:
    """Key types in ARCHITECTURE.md module rows that their module lacks.

    A module row is a row of a table whose last header cell is "Key types"
    and whose first cell is a backticked module name.
    """
    problems = []
    in_table = False
    for line in architecture.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            in_table = False
        elif cells[-1] == "Key types":
            in_table = True
        elif in_table and (row := re.fullmatch(r"`(repro[\w.]*)`", cells[0])):
            module = row.group(1)
            for name in re.findall(r"`([\w.]+)`", cells[-1]):
                dotted = name if name.startswith("repro.") else f"{module}.{name}"
                if not resolves(dotted):
                    problems.append(f"{module}: {name}")
    return problems


#: One documented callable: ``| `Name` | class | signature cell |`` (or
#: ``function``); the cell may hold escaped pipes.
CALLABLE_ROW = re.compile(r"^\| `([\w.]+)` \| (?:class|function) \| "
                          r"((?:\\\||[^|])*)\|", re.MULTILINE)

#: A ``name=`` keyword in a code span (not part of ``==``, ``<=`` or ``!=``).
KEYWORD = re.compile(r"(?<![=!<>\w])(\w+)=(?!=)")


def exported(name: str):
    """The object a ``Name`` or ``Class.method`` row names: its head
    exported by a checked surface, the rest looked up as attributes;
    ``None`` when nothing matches."""
    head, *attrs = name.split(".")
    for _, module in CHECKED_SURFACES:
        if head in module.__all__:
            target = getattr(module, head)
            for attr in attrs:
                target = getattr(target, attr, None)
            return target
    return None


def keyword_mismatches(text: str) -> list[str]:
    """Keywords in API.md signature cells that their callable does not take."""
    problems = []
    for name, cell in CALLABLE_ROW.findall(text):
        target = exported(name)
        try:
            parameters = inspect.signature(target).parameters
        except (TypeError, ValueError):
            problems.append(f"{name}: documented as a class or function, but "
                            f"no checked surface exports a callable by that "
                            f"name")
            continue
        if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
            continue
        keywords = {keyword for span in re.findall(r"`([^`]+)`", cell)
                    for keyword in KEYWORD.findall(span)}
        problems.extend(f"{name} takes no {keyword}=" for keyword
                        in sorted(keywords - set(parameters)))
    return problems


def main() -> int:
    api_doc = REPO_ROOT / "docs" / "API.md"
    if not api_doc.exists():
        print(f"docs-check: {api_doc} does not exist", file=sys.stderr)
        return 1
    docs = {name: (REPO_ROOT / "docs" / name).read_text(encoding="utf-8")
            for name in RESOLVED_DOCS}
    text = docs["API.md"]
    failed = False
    total = 0
    for label, module in CHECKED_SURFACES:
        symbols = list(module.__all__)
        total += len(symbols)
        missing = [name for name in symbols if name not in text]
        if missing:
            failed = True
            print(f"docs-check: symbols in {label}.__all__ missing from "
                  "docs/API.md:", file=sys.stderr)
            for name in missing:
                print(f"  - {name}", file=sys.stderr)
    kinds = [name for name in repro.sim.POINT_KINDS
             if not re.search(f"[`\"]{re.escape(name)}[`\"]", text)]
    if kinds:
        failed = True
        print("docs-check: sweep-point kinds in repro.sim.POINT_KINDS "
              "missing from docs/API.md:", file=sys.stderr)
        for name in kinds:
            print(f"  - {name}", file=sys.stderr)
    for heading, problems in (
            ("documented constant values out of date",
             constant_mismatches(text)),
            ("repro.<name> references in the docs that name nothing",
             unresolved_names(docs)),
            ("key types in docs/ARCHITECTURE.md missing from their row's "
             "module", key_type_mismatches(docs["ARCHITECTURE.md"])),
            ("keywords in docs/API.md signatures that their callable does "
             "not take", keyword_mismatches(text))):
        if problems:
            failed = True
            print(f"docs-check: {heading}:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
    if failed:
        return 1
    references = sum(len(set(DOTTED_NAME.findall(t))) for t in docs.values())
    print(f"docs-check: all {total} public symbols across "
          f"{len(CHECKED_SURFACES)} surfaces and all "
          f"{len(repro.sim.POINT_KINDS)} sweep-point kinds documented in "
          f"docs/API.md, documented constant values match, every "
          f"documented signature keyword is a parameter, and all "
          f"{references} repro.<name> references in "
          f"{' and '.join(RESOLVED_DOCS)} resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
