"""Guard: the simulator and the experiments use each other's public API.

A module under ``src/repro/sim/`` or ``src/repro/experiments/`` may touch a
``_``-prefixed attribute only on ``self`` or ``cls``.  Reaching into
another object's private members (``scenario._best_prep_rate``,
``loader._workers = pool``) is how a mechanism ends up implemented twice:
the caller re-derives what the owner computes, and the two drift apart.
The one allowed exception is :class:`~repro.sim.sweep.SerialExecutor`
running a point in process through ``runner._run_point``.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, Tuple

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages whose modules the guard checks.
GUARDED_PACKAGES = ("sim", "experiments")

#: ``(module, expression)`` reach-ins that are allowed.
ALLOWED = {("sim/sweep.py", "runner._run_point")}


def private_reach_ins(source: str) -> Iterator[Tuple[int, str]]:
    """``(line, expression)`` of every private attribute read or written
    on an object other than ``self`` or ``cls`` (dunders are protocol,
    not private)."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
            continue
        yield node.lineno, ast.unparse(node)


def _guarded_reach_ins() -> Iterator[Tuple[str, int, str]]:
    for package in GUARDED_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            module = path.relative_to(SRC).as_posix()
            for line, expression in private_reach_ins(path.read_text("utf-8")):
                yield module, line, expression


def test_no_guarded_module_reaches_into_private_members():
    found = [(module, line, expression)
             for module, line, expression in _guarded_reach_ins()
             if (module, expression) not in ALLOWED]
    assert not found, "private reach-ins:\n" + "\n".join(
        f"  src/repro/{module}:{line}: {expression}"
        for module, line, expression in found)


def test_every_allowed_exception_still_exists():
    found = {(module, expression)
             for module, _line, expression in _guarded_reach_ins()}
    assert ALLOWED <= found, f"stale allowed exceptions: {ALLOWED - found}"


@pytest.mark.parametrize("source, expected", [
    ("scenario._best_prep_rate(4.0, 1)", ["scenario._best_prep_rate"]),
    ("loader._workers = pool", ["loader._workers"]),
    ("make()._cache.clear()", ["make()._cache"]),
    ("self._cache.lookup(1)\ncls._registry[k] = v", []),
    ("type(x).__name__\nobject.__setattr__(x, 'a', 1)", []),
    ("hp.run_epoch(cache, 0)", []),
])
def test_the_checker_flags_only_foreign_private_members(source, expected):
    assert [expression for _line, expression
            in private_reach_ins(source)] == expected
