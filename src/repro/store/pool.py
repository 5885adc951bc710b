"""Persistent sweep worker pool: spawn once, serve many ``run()`` calls.

A spawn pool pays process start-up, imports and dataset materialisation
before its first point, which dominates for the many-small-grids shape of
``report`` generation and what-if querying.  :class:`PersistentPool`
amortises all three:

* **workers outlive runs** — one spawn pool serves every
  ``run(points, pool=...)`` call until :meth:`close` (the pool is also a
  context manager), and the pool tracks the worker pids it has seen so
  tests can assert reuse;
* **per-worker substrate caches** — each worker process keeps one
  rebuilt :class:`~repro.sim.sweep.SweepRunner` per runner spec, and all
  of them share module-level dataset and sampler memo dicts keyed by
  ``(dataset name, seed, scale)`` / ``(dataset size, sampling seed)``, so
  a dataset is materialised at most once per worker process no matter how
  many runs or runner configurations it serves.

Tasks carry the pickled runner spec (a function reference plus three
scalars), so the pool itself is configuration-free and one pool can serve
arbitrarily many different runners.  Determinism is inherited from the
per-point seeding discipline of :meth:`~repro.sim.sweep.SweepRunner.point_seed`:
results are byte-identical to the serial executor, whichever worker
simulates which point in whichever order.  ``SweepRunner.run`` also builds
a one-shot pool per call when asked for ``workers>=2`` without ``pool=``.

The pool is *supervised*.  ``multiprocessing.Pool`` silently loses the
tasks of a SIGKILLed worker and waits for them forever;
``concurrent.futures.ProcessPoolExecutor`` instead fails every unfinished
future with ``BrokenProcessPool``, a clean detection point.  On top of
that the pool

* submits work in *chunks*, so one lost worker costs one chunk of re-run,
  not a whole grid;
* waits in bounded ticks, and on a tick with work outstanding checks its
  workers itself, so a dead worker the executor never reported still
  breaks the pool instead of hanging the run;
* rebuilds a broken executor and resubmits the chunks that never produced
  results — per-point seeding makes every re-run byte-identical to the
  run that was lost — under a per-run respawn budget, past which the run
  raises the usual labelled :class:`~repro.exceptions.SweepPointError`
  naming the lowest lost point (and, when no worker finished a single
  task, the likely cause: a script that starts a pool sweep without an
  ``if __name__ == "__main__":`` guard);
* delivers planned worker kills: a
  :class:`~repro.resilience.FaultInjector`'s kill schedule is consulted
  after every received result, and a due kill SIGKILLs one live worker
  from the parent, so injection needs no cooperation from worker code.

Store interaction is parent-side only: workers never open a
:class:`~repro.store.SweepStore` — the calling run resolves hits, ships
only the misses to the pool, and writes results back through whichever
:class:`~repro.store.StoreBackend` the store was opened on.  The pool is
therefore backend-agnostic by construction.

The distributed fabric (:mod:`repro.dist`) builds on the same machinery:
each remote worker agent rebuilds runners via this module's
``_worker_runner`` and shares the same module-level dataset/sampler
caches, so a ``repro dist worker`` process amortises substrate
materialisation across chunks exactly like a local pool worker does.
"""

from __future__ import annotations

import concurrent.futures
import math
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.datasets.sampler import SamplerMemo
from repro.exceptions import ConfigurationError, SimulationError
from repro.resilience.faults import active_injector
from repro.sim.sweep import (
    SweepPoint,
    SweepRecord,
    SweepRunner,
    _raise_lost_points,
    _raise_lowest_failure,
    clamp_workers,
)

#: Pool rebuilds allowed per ``run_points`` call before escalating.
DEFAULT_MAX_RESPAWNS = 3

#: Seconds between checks on the workers while a run waits for results.
_WAIT_TICK_S = 1.0

#: Seconds to wait for worker processes to exit before terminating them.
_SHUTDOWN_GRACE_S = 5.0

#: Likely cause named when a run loses every chunk: no worker finished a
#: task, which is what spawned workers do when each re-runs an unguarded
#: main script that starts a pool sweep itself.
_NEVER_STARTED = (
    "no worker finished a task; under the spawn start method a script "
    "must start pool sweeps under an `if __name__ == \"__main__\":` guard")

#: Errors that mean "the executor lost workers", not "the task raised".
_BROKEN_ERRORS = (BrokenProcessPool, concurrent.futures.BrokenExecutor,
                  concurrent.futures.CancelledError)

# -- worker-process state -----------------------------------------------------
#
# Module-level on purpose: spawned workers import this module fresh, and the
# caches live for the worker's (= the pool's) lifetime.  Sharing the dataset
# and sampler memos across every runner spec a worker serves is safe because
# both are keyed by everything that defines their contents — (name, seed,
# scale) and (size, seed) — which is exactly why SweepRunner accepts
# externally-owned caches.

_WORKER_RUNNERS: Dict[tuple, SweepRunner] = {}
_SHARED_DATASETS: Dict[tuple, object] = {}
_SHARED_SAMPLERS = SamplerMemo()


def _worker_runner(spec: tuple) -> SweepRunner:
    """Rebuild (once per worker per spec) the runner for one task's spec."""
    runner = _WORKER_RUNNERS.get(spec)
    if runner is None:
        server_factory, scale, seed, queue_depth = spec
        runner = SweepRunner(server_factory, scale=scale, seed=seed,
                             queue_depth=queue_depth,
                             dataset_cache=_SHARED_DATASETS,
                             sampler_cache=_SHARED_SAMPLERS)
        _WORKER_RUNNERS[spec] = runner
    return runner


def _simulate_task(task: Tuple[tuple, int, SweepPoint]):
    """Simulate one indexed point; never raise across the pipe.

    Returns ``(index, record, None, pid)``, or ``(index, None, (exception,
    traceback_text), pid)`` on failure, so the parent can re-raise the
    *original* exception chained under a labelled
    :class:`~repro.exceptions.SweepPointError` instead of a bare
    multiprocessing traceback.  Exceptions that cannot survive pickling
    are substituted with a :class:`~repro.exceptions.SimulationError`
    carrying their repr.  The pid lets the parent account which processes
    served a run.
    """
    spec, index, point = task
    try:
        return index, _worker_runner(spec)._run_point(point), None, os.getpid()
    except Exception as exc:
        text = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = SimulationError(
                f"worker exception could not be pickled: {exc!r}")
        return index, None, (exc, text), os.getpid()


def _simulate_chunk(chunk: Sequence[Tuple[tuple, int, SweepPoint]]):
    """Simulate one chunk of tasks; the pool's unit of loss and re-run."""
    return [_simulate_task(task) for task in chunk]


def _probe_chunk(chunk: Sequence[int]):
    """Report (pid, runners, datasets, samplers) cached in this worker."""
    return [(os.getpid(), len(_WORKER_RUNNERS), len(_SHARED_DATASETS),
             len(_SHARED_SAMPLERS)) for _ in chunk]


def _processes(executor: Optional[concurrent.futures.ProcessPoolExecutor]
               ) -> list:
    """The executor's worker processes (none before it starts or after it
    is shut down)."""
    return list((getattr(executor, "_processes", None) or {}).values())


def _signal_all(processes: list, method: str) -> None:
    for proc in processes:
        try:
            getattr(proc, method)()
        except (OSError, ValueError):
            pass


def _shutdown_executor(executor: concurrent.futures.ProcessPoolExecutor,
                       *, force: bool) -> None:
    """Shut ``executor`` down without risking an unbounded hang.

    A SIGKILLed worker can die holding the shared call-queue reader lock,
    leaving idle siblings blocked in ``get()`` forever — a plain
    ``shutdown(wait=True)`` then joins a process that will never exit.
    Every executor this module shuts down is either idle (``close`` drains
    runs first) or broken (its lost chunks are re-run elsewhere), so no
    results are at stake: initiate the shutdown without blocking, give the
    workers a bounded grace period, terminate whatever is left, and bound
    the join of the executor's management thread too.  ``force`` skips
    the grace period and terminates immediately (broken executors,
    ``close(drain=False)``).
    """
    processes = _processes(executor)
    # shutdown() drops the executor's references to both; keep them.
    manager = getattr(executor, "_executor_manager_thread", None)
    results = getattr(executor, "_result_queue", None)
    if force:
        _signal_all(processes, "terminate")
    executor.shutdown(wait=False, cancel_futures=force)
    deadline = time.monotonic() + (0.0 if force else _SHUTDOWN_GRACE_S)
    for proc in processes:
        proc.join(max(0.0, deadline - time.monotonic()))
    _signal_all([proc for proc in processes if proc.is_alive()], "terminate")
    for proc in processes:
        proc.join(1.0)
        if proc.is_alive():
            _signal_all([proc], "kill")
            proc.join(1.0)
    if results is not None:
        # A worker killed while sending a large result leaves the
        # management thread blocked reading the rest of it, and this
        # process holds the pipe's only other write end.  The workers are
        # gone, so nothing writes there any more: closing it turns such a
        # read into EOF, and the thread exits instead of hanging
        # interpreter exit, which joins it.
        results._writer.close()
    if manager is not None:
        manager.join(_SHUTDOWN_GRACE_S)


class PersistentPool:
    """A supervised spawn pool of sweep workers reused across ``run()`` calls.

    Args:
        workers: Worker processes (>= 1; counts above ``os.cpu_count()``
            are clamped to it — oversubscribing a small machine only adds
            spawn cost and contention).  The processes are spawned lazily
            on the first run and kept until :meth:`close`.
        chunksize: Points per pickled task (per run: about four chunks
            per worker when ``None``).

    Dying workers cost up to :data:`DEFAULT_MAX_RESPAWNS` rebuilds per
    :meth:`run_points` call; the pool delivers the worker-kill schedule of
    :func:`~repro.resilience.active_injector`.  Both are read at
    construction.

    Attributes:
        runs: Completed :meth:`run_points` calls.
        respawns: Executor rebuilds after worker death, over the pool's
            life.
        reruns: Points resubmitted after their worker died, over the
            pool's life.
        pids_seen: Every worker pid that ever served a task — with healthy
            reuse this stays at ``workers`` elements no matter how many
            runs the pool serves (the worker-reuse tests pin exactly that).
        last_run_pids: Pids that served the most recent run.

    Use it either directly (``pool.run_points(runner, ...)``) or,
    normally, through ``SweepRunner.run(points, pool=pool)``; it is a
    context manager (``with PersistentPool(4) as pool: ...``).

    The pool is thread-safe: concurrent :meth:`run_points` calls from
    different threads share the worker processes (results are routed by
    future, so interleaved runs cannot cross wires), which is how the
    serve layer's concurrent batches share one pool without head-of-line
    blocking; a break observed by several runs at once is repaired by
    exactly one of them.
    """

    def __init__(self, workers: int, chunksize: Optional[int] = None) -> None:
        if workers < 1:
            raise ConfigurationError("a persistent pool needs >= 1 workers")
        if chunksize is not None and chunksize < 1:
            raise ConfigurationError("chunksize must be at least 1")
        self._workers = clamp_workers(workers)
        self._chunksize = chunksize
        self._max_respawns = DEFAULT_MAX_RESPAWNS
        self._injector = active_injector()
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = \
            None
        self._cond = threading.Condition()
        self._active_runs = 0
        self.runs = 0
        self.respawns = 0
        self.reruns = 0
        self.pids_seen: Set[int] = set()
        self.last_run_pids: Set[int] = set()

    @property
    def workers(self) -> int:
        """Worker count (after the core-count clamp)."""
        return self._workers

    # -- executor lifecycle ---------------------------------------------------

    def _ensure(self) -> concurrent.futures.ProcessPoolExecutor:
        with self._cond:
            if self._executor is None:
                # spawn, never fork: workers start from a clean
                # interpreter on every platform and rebuild all substrates
                # from the pickled spec, so no parent state can leak in.
                context = multiprocessing.get_context("spawn")
                self._executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self._workers, mp_context=context)
            return self._executor

    def _replace_broken(self, broken: concurrent.futures
                        .ProcessPoolExecutor) -> None:
        """Retire ``broken`` and count one respawn (first observer wins)."""
        with self._cond:
            if self._executor is broken:
                self._executor = None
                self.respawns += 1
        _shutdown_executor(broken, force=True)

    def kill_one_worker(self) -> Optional[int]:
        """SIGKILL one live worker; returns its pid or None.

        This is how planned worker kills are delivered, and chaos tests
        may call it directly to murder a worker mid-run.
        """
        with self._cond:
            executor = self._executor
        for proc in _processes(executor):
            if proc.pid is None or not proc.is_alive():
                continue
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except OSError:
                continue
            return proc.pid
        return None

    # -- the executor contract ------------------------------------------------

    def run_points(self, runner: SweepRunner,
                   indexed_points: List[Tuple[int, SweepPoint]],
                   on_record: Optional[Callable[[int, SweepRecord], None]]
                   = None) -> List[Tuple[int, SweepRecord]]:
        """Simulate indexed points of ``runner``; return (index, record)s.

        ``on_record`` fires per record in completion order while the pool
        drains (``SweepRunner.run`` hooks its store write-back here, so
        finished points survive a later failure).  The failure protocol is
        the one every executor shares: drain everything, then raise the
        lowest failing input index as a labelled
        :class:`~repro.exceptions.SweepPointError` chaining the original
        worker exception.  Worker death joins the same protocol: lost
        chunks are re-run on a rebuilt pool, and only a run that exhausts
        its respawn budget raises — a :class:`SweepPointError` naming the
        lowest point that was still lost.
        """
        if not indexed_points:
            return []
        chunksize = self._chunksize or max(
            1, math.ceil(len(indexed_points) / (self._workers * 4)))
        spec = runner.spec()
        tasks = [(spec, index, point) for index, point in indexed_points]
        chunks = [tasks[start:start + chunksize]
                  for start in range(0, len(tasks), chunksize)]
        ran: List[Tuple[int, SweepRecord]] = []
        failures: Dict[int, tuple] = {}
        run_pids: Set[int] = set()

        def on_result(item) -> None:
            index, record, failure, pid = item
            run_pids.add(pid)
            if failure is not None:
                failures[index] = failure
            else:
                if on_record is not None:
                    on_record(index, record)
                ran.append((index, record))

        try:
            lost, respawns = self._run_chunks(_simulate_chunk, chunks,
                                              on_result)
        finally:
            with self._cond:
                self.last_run_pids = run_pids
                self.pids_seen |= run_pids
        if lost:
            _raise_lost_points((task[1] for chunk in lost for task in chunk),
                               indexed_points, "workers",
                               f"{respawns} pool respawn(s)",
                               _NEVER_STARTED if len(lost) == len(chunks)
                               else "")
        with self._cond:
            self.runs += 1
        if failures:
            _raise_lowest_failure(failures, indexed_points)
        return ran

    def probe(self) -> Dict[int, Tuple[int, int, int]]:
        """Sample the workers' cache sizes, by pid.

        Maps every *reached* worker pid to its (runner, dataset, sampler)
        cache sizes.  Probing sends one tiny task per worker slot times
        four; scheduling decides which workers answer, so treat the result
        as a sample — the reuse tests assert over the union, not coverage.
        """
        sizes: Dict[int, Tuple[int, int, int]] = {}

        def on_result(item) -> None:
            pid, runners, datasets, samplers = item
            sizes[pid] = (runners, datasets, samplers)

        self._run_chunks(_probe_chunk,
                         [[slot] for slot in range(self._workers * 4)],
                         on_result)
        return sizes

    # -- supervised execution -------------------------------------------------

    def _run_chunks(self, fn: Callable[[Sequence], Sequence],
                    chunks: List[Sequence],
                    on_result: Callable[[object], None]
                    ) -> Tuple[List[Sequence], int]:
        """Run ``fn`` over every chunk, surviving worker death.

        ``on_result`` fires per *item* (element of a chunk's result list)
        in completion order.  Items of a chunk are delivered exactly once:
        a chunk either completed (its items were delivered) or was lost
        with its worker (no items were delivered) and is resubmitted
        whole.  Returns the chunks still lost when the respawn budget ran
        out (empty on success) and the respawns this run spent.
        """
        with self._cond:
            self._active_runs += 1
        try:
            schedule = self._injector.run_kills() if self._injector else None
            delivered = 0
            respawns = 0
            remaining = list(chunks)
            while remaining:
                executor = self._ensure()
                # A kill that landed after a previous run's last result
                # leaves the executor broken before any submit — treat a
                # failing submit exactly like a future that raised
                # broken-pool.
                futures = {}
                lost: List[Sequence] = []
                for chunk in remaining:
                    try:
                        futures[executor.submit(fn, chunk)] = chunk
                    except _BROKEN_ERRORS:
                        lost.append(chunk)
                remaining = lost
                while futures:
                    done, _ = concurrent.futures.wait(
                        futures, timeout=_WAIT_TICK_S,
                        return_when=concurrent.futures.FIRST_COMPLETED)
                    if not done:
                        if any(proc.exitcode is not None
                               for proc in _processes(executor)):
                            # A dead worker breaks the pool whether or not
                            # the executor noticed: give up on everything
                            # still outstanding and take the respawn path.
                            remaining.extend(futures.values())
                            futures.clear()
                        continue
                    for future in done:
                        chunk = futures.pop(future)
                        try:
                            items = future.result()
                        except _BROKEN_ERRORS:
                            remaining.append(chunk)
                            continue
                        for item in items:
                            delivered += 1
                            on_result(item)
                            if (schedule is not None
                                    and schedule.due(delivered)
                                    and self.kill_one_worker() is not None):
                                self._injector.note_kill()
                if remaining:
                    if respawns >= self._max_respawns:
                        return remaining, respawns
                    respawns += 1
                    with self._cond:
                        self.reruns += sum(len(chunk) for chunk in remaining)
                    self._replace_broken(executor)
            return [], respawns
        finally:
            with self._cond:
                self._active_runs -= 1
                self._cond.notify_all()

    # -- shutdown -------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Shut the workers down (idempotent); the pool can be rebuilt.

        ``drain=True`` (the default) waits for in-flight
        :meth:`run_points` calls — including any worker-death recovery
        they still owe — before stopping the workers; ``drain=False``
        terminates immediately, abandoning whatever was running.
        """
        with self._cond:
            while drain and self._active_runs:
                self._cond.wait()
            executor, self._executor = self._executor, None
        if executor is not None:
            _shutdown_executor(executor, force=not drain)

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Drain on a clean exit; when the body is already raising, don't
        # block on in-flight work that may never finish.
        self.close(drain=exc_type is None)
