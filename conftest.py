"""Session-wide watchdog for every test directory (tests/, benchmarks/, bench/).

A test that stalls — a pool waiting on a dead worker, a socket nobody will
answer — must fail the run with every thread's stack, not eat the CI
budget.  Each test (setup, call and teardown) runs under a
``faulthandler`` timer: past :data:`TEST_BUDGET_S` it dumps all thread
stacks to the terminal and exits the session with an error.  The timer is
armed once more for interpreter exit, which joins leftover executor
threads.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

#: Seconds one test may take before the watchdog fires.  The slowest test,
#: the parallel sweep benchmark, takes about 65 s on a loaded 2-core
#: machine.
TEST_BUDGET_S = 300.0

_TERMINAL_FD = pytest.StashKey[int]()


def pytest_configure(config: pytest.Config) -> None:
    # Output capture is suspended while plugins configure, so this copy
    # still reaches the terminal when a stalled test's stdio is captured.
    config.stash[_TERMINAL_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config: pytest.Config) -> None:
    # Left armed: a normal exit cancels it, a wedged one dumps and fails.
    faulthandler.dump_traceback_later(TEST_BUDGET_S, exit=True,
                                      file=config.stash[_TERMINAL_FD])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item: pytest.Item, nextitem):
    faulthandler.dump_traceback_later(TEST_BUDGET_S, exit=True,
                                      file=item.config.stash[_TERMINAL_FD])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
