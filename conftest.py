"""Session-wide watchdog and shared fixtures for every test directory
(tests/, benchmarks/, bench/).

A test that stalls — a pool waiting on a dead worker, a socket nobody will
answer — must fail the run with every thread's stack, not eat the CI
budget.  Each test (setup, call and teardown) runs under a
``faulthandler`` timer: past :data:`TEST_BUDGET_S` it dumps all thread
stacks to the terminal and exits the session with an error.  The timer is
armed once more for interpreter exit, which joins leftover executor
threads.

The :func:`reference_paths` fixture swaps the simulator's bulk epoch paths
for their per-item references, for the equivalence tests and the speed
gates that compare the two.
"""

from __future__ import annotations

import collections
import contextlib
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


@pytest.fixture
def reference_paths():
    """A context manager that runs the per-item reference paths.

    Inside it, ``DataLoader.batch_time_arrays`` and
    ``PartitionedCoorDLLoader.batch_time_arrays`` decline, so
    ``PipelineSimulator.collect_batch_times`` walks every epoch batch by
    batch, and ``HPSearchScenario``'s bulk page-cache and MinIO epochs are
    their ``_simulate_*`` references.  It yields a ``Counter`` of the
    reference calls made inside it: ``batch_walks`` (epochs walked),
    ``page_cache_epochs`` and ``minio_epochs``.  Only in-process points
    see the swap, so callers pass ``workers=0, store=False``.
    """
    from repro.coordl.partitioned_loader import PartitionedCoorDLLoader
    from repro.pipeline.base import DataLoader
    from repro.sim.hp_search import HPSearchScenario

    @contextlib.contextmanager
    def forced():
        calls = collections.Counter()

        def walk(self, epoch_index):
            calls["batch_walks"] += 1
            return None

        def counted(name, reference):
            def run(self, cache, epoch):
                calls[name] += 1
                return reference(self, cache, epoch)
            return run

        with pytest.MonkeyPatch.context() as patch:
            for loader in (DataLoader, PartitionedCoorDLLoader):
                patch.setattr(loader, "batch_time_arrays", walk)
            patch.setattr(HPSearchScenario, "_shared_page_cache_epoch", counted(
                "page_cache_epochs",
                HPSearchScenario._simulate_shared_page_cache_epoch))
            patch.setattr(HPSearchScenario, "_minio_epoch", counted(
                "minio_epochs", HPSearchScenario._simulate_minio_epoch))
            yield calls

    return forced
