"""Request coalescing for the what-if sweep service.

Concurrent clients of one serve daemon tend to ask overlapping questions —
the same grid point shows up in many what-if queries (that is the entire
premise of the content-addressed store).  :class:`CoalescingBatcher` is
the in-memory, in-flight counterpart of that dedup:

* every submitted point resolves to its **content address**
  (:func:`repro.store.store_key` over
  :meth:`~repro.sim.sweep.SweepRunner.point_spec`), the same key the
  store uses, so "the same point" means the same thing in flight and at
  rest;
* points whose key is already in flight (for *any* concurrent request)
  attach to the existing :class:`PointFuture` instead of being simulated
  again — each unique point is simulated **at most once per cold pass**
  no matter how many overlapping requests race;
* fresh points from requests arriving within one coalescing window
  (``window_s``) are merged into a single
  :meth:`~repro.sim.sweep.SweepRunner.run` call per runner
  configuration, resolved point by point through the runner's
  ``on_record`` streaming hook;
* every batch drains on its **own thread**, so a slow batch never blocks
  a later, unrelated fast one (no head-of-line blocking across batches) —
  dedup against in-flight futures keeps concurrent batches disjoint;
* a batch failure (a crashed worker, a failing point) fails only the
  points that never completed, and those are **retried**, together in
  one run, up to ``max_attempts`` times before each future carries its
  own point's error — a transient crash degrades to recomputation, and a
  waiter is always released (never a hung request).

Requests get a :class:`QueryTicket`; :meth:`QueryTicket.wait` enforces the
per-request deadline, returning each point's :class:`PointOutcome` in the
request's own input order — completed records, errors, or an explicit
``timed_out`` marker for points still in flight when the deadline passed
(the simulation keeps running and lands in the store for the next query).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.resilience.faults import active_injector
from repro.sim.sweep import SweepPoint, SweepRecord, SweepRunner, point_error
from repro.store import PersistentPool, SweepStore, store_key

#: Default coalescing window: how long the dispatcher holds freshly
#: submitted points so racing requests can merge into one ``run()`` call.
#: Small against simulation cost (tens of ms per point), large against
#: thread-scheduling jitter.
DEFAULT_WINDOW_S = 0.01

#: Default simulation attempts per point (1 initial + 1 retry): a
#: transiently crashed worker degrades to recomputation, a deterministic
#: failure surfaces after the retry.
DEFAULT_MAX_ATTEMPTS = 2


class PointFuture:
    """Completion cell for one in-flight unique point.

    Shared by every request that asked for the point; resolves exactly
    once, with either a :class:`~repro.sim.sweep.SweepRecord` or an error.
    """

    __slots__ = ("key", "_event", "record", "error")

    def __init__(self, key: str) -> None:
        self.key = key
        self._event = threading.Event()
        self.record: Optional[SweepRecord] = None
        self.error: Optional[BaseException] = None

    def resolve(self, record: SweepRecord) -> None:
        """Complete successfully (first resolution wins; later ones no-op)."""
        if not self._event.is_set():
            self.record = record
            self._event.set()

    def fail(self, error: BaseException) -> None:
        """Complete with an error (no-op if already resolved)."""
        if not self._event.is_set():
            self.error = error
            self._event.set()

    @property
    def done(self) -> bool:
        """Whether the future has resolved (either way)."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float]) -> bool:
        """Block until resolved or ``timeout`` elapses; True if resolved."""
        return self._event.wait(timeout)


@dataclass
class PointOutcome:
    """Per-point result of one request, in the request's input order.

    ``status`` is ``"ok"`` (``record`` is set), ``"error"`` (``error``
    carries the message) or ``"timed_out"`` (the point was still in
    flight at the request's deadline; its simulation continues and will
    be a store hit for the next query).
    """

    point: SweepPoint
    status: str
    record: Optional[SweepRecord] = None
    error: Optional[str] = None


class QueryTicket:
    """Handle for one submitted request: its points and their futures."""

    def __init__(self, points: Sequence[SweepPoint],
                 futures: Sequence[PointFuture]) -> None:
        self._points = list(points)
        self._futures = list(futures)

    @property
    def points(self) -> List[SweepPoint]:
        """The request's points, in input order."""
        return list(self._points)

    def wait(self, deadline_s: Optional[float] = None) -> List[PointOutcome]:
        """Collect per-point outcomes, honouring the request deadline.

        Blocks at most ``deadline_s`` seconds in total (``None``: until
        every point resolves).  Returns one :class:`PointOutcome` per
        requested point, in input order; points unresolved at the
        deadline come back as ``timed_out`` — partial results are
        returned, never thrown away.
        """
        deadline = (None if deadline_s is None
                    else time.monotonic() + max(0.0, deadline_s))
        outcomes: List[PointOutcome] = []
        for point, future in zip(self._points, self._futures):
            if deadline is None:
                future.wait(None)
            elif not future.done:
                remaining = deadline - time.monotonic()
                if remaining > 0:
                    future.wait(remaining)
            if not future.done:
                outcomes.append(PointOutcome(point=point, status="timed_out"))
            elif future.error is not None:
                outcomes.append(PointOutcome(point=point, status="error",
                                             error=str(future.error)))
            else:
                outcomes.append(PointOutcome(point=point, status="ok",
                                             record=future.record))
        return outcomes


class CoalescingBatcher:
    """Coalesce concurrent what-if requests into shared sweep runs.

    Args:
        store: Shared :class:`~repro.store.SweepStore` every batch runs
            against (hits resolve without simulating); ``None`` disables
            persistence (in-flight dedup still applies).
        pool: Shared executor the batches' simulations fan out over — a
            :class:`~repro.store.PersistentPool` or a
            :class:`~repro.dist.DistExecutor`; ``None`` simulates
            in-process on the batch thread.
        window_s: Coalescing window (see :data:`DEFAULT_WINDOW_S`).
        max_attempts: Simulation attempts per point before its future
            carries the error (see :data:`DEFAULT_MAX_ATTEMPTS`);
            ``ServeDaemon(point_retries=N)`` configures it as ``N + 1``.

    The batch-stall schedule of :func:`~repro.resilience.active_injector`
    (read at construction) fires before each batch ``run()`` attempt.

    Counters (for ``/v1/stats`` and the tests): ``submitted_requests``,
    ``submitted_points``, ``attached_points`` (dedup against an in-flight
    future), ``batches`` (one per ``run()`` call), ``batched_points``,
    ``point_retries`` (points re-attempted after a failed attempt).
    """

    def __init__(self, store: Optional[SweepStore] = None,
                 pool: Optional[PersistentPool] = None,
                 window_s: float = DEFAULT_WINDOW_S,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> None:
        if window_s < 0:
            raise ConfigurationError("window_s must be >= 0")
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        self._store = store
        self._pool = pool
        self._window_s = window_s
        self._max_attempts = max_attempts
        self._injector = active_injector()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._inflight: Dict[str, PointFuture] = {}
        # Pending fresh work, grouped by runner spec: spec-token ->
        # (runner instance, [(point, future), ...]).
        self._pending: Dict[tuple, Tuple[SweepRunner,
                                         List[Tuple[SweepPoint,
                                                    PointFuture]]]] = {}
        self._closed = False
        self._batch_threads: List[threading.Thread] = []
        self.submitted_requests = 0
        self.submitted_points = 0
        self.attached_points = 0
        self.batches = 0
        self.batched_points = 0
        self.point_retries = 0
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="repro-serve-batcher",
                                            daemon=True)
        self._dispatcher.start()

    # -- request side --------------------------------------------------------

    def submit(self, runner: SweepRunner,
               points: Sequence[SweepPoint]) -> QueryTicket:
        """Register a request; returns its :class:`QueryTicket`.

        Never blocks on simulation: fresh points are queued for the
        dispatcher, overlapping points attach to in-flight futures.
        """
        points = list(points)
        if not points:
            raise ConfigurationError("a query needs at least one point")
        # Key computation (content addressing) happens outside the lock —
        # it hashes the full point spec and needs no shared state.
        keyed = [(point, store_key(runner.point_spec(point)))
                 for point in points]
        futures: List[PointFuture] = []
        with self._lock:
            if self._closed:
                raise ConfigurationError("batcher is closed")
            self.submitted_requests += 1
            self.submitted_points += len(points)
            spec_token = runner.spec()
            for point, key in keyed:
                future = self._inflight.get(key)
                if future is not None:
                    self.attached_points += 1
                else:
                    future = PointFuture(key)
                    self._inflight[key] = future
                    group = self._pending.get(spec_token)
                    if group is None:
                        self._pending[spec_token] = (runner, [(point, future)])
                    else:
                        group[1].append((point, future))
                futures.append(future)
            self._wake.notify_all()
        return QueryTicket(points, futures)

    # -- dispatcher ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._wake.wait()
                if self._closed and not self._pending:
                    return
            # Coalescing window: give racing submitters a moment to merge
            # into this dispatch before the batch is frozen.
            if self._window_s:
                time.sleep(self._window_s)
            with self._lock:
                drained, self._pending = self._pending, {}
                self._batch_threads = [t for t in self._batch_threads
                                       if t.is_alive()]
                # Each batch runs (and drains) on its own thread — a slow
                # batch occupies its thread, never the dispatcher, so it
                # cannot head-of-line-block a later fast batch.  Started
                # under the lock so close() only ever joins started
                # threads; _run_batch's own first lock acquisition simply
                # waits for this drain to finish.
                for runner, entries in drained.values():
                    thread = threading.Thread(
                        target=self._run_batch, args=(runner, entries),
                        name="repro-serve-batch", daemon=True)
                    self._batch_threads.append(thread)
                    thread.start()

    def _run_entries(self, runner: SweepRunner,
                     entries: List[Tuple[SweepPoint, PointFuture]],
                     ) -> Optional[BaseException]:
        """One ``run()`` attempt over ``entries``; returns the failure, if any.

        Every point that completes — store hit or fresh simulation, even
        when a later point's failure eventually raises — resolves its
        future through the runner's ``on_record`` streaming hook, so
        waiters (and the dedup map) see completions the moment they
        happen, not when the batch ends.
        """
        futures = [future for _, future in entries]

        def on_record(index: int, record: SweepRecord) -> None:
            future = futures[index]
            future.resolve(record)
            with self._lock:
                self._inflight.pop(future.key, None)

        with self._lock:
            self.batches += 1
            self.batched_points += len(entries)
        if self._injector is not None:
            # Planned batch stall: models a slow/contended run attempt so
            # deadline handling and admission control can be exercised
            # deterministically.
            stall_s = self._injector.batch_stall()
            if stall_s > 0:
                time.sleep(stall_s)
        try:
            runner.run([point for point, _ in entries], workers=0,
                       store=self._store, pool=self._pool,
                       on_record=on_record)
            return None
        except Exception as exc:
            return exc

    def _run_batch(self, runner: SweepRunner,
                   entries: List[Tuple[SweepPoint, PointFuture]]) -> None:
        # Every attempt runs what is still unresolved through one run()
        # call, so a crashed worker degrades to recomputation of its
        # points alone.
        for attempt in range(self._max_attempts):
            if attempt:
                entries = [(point, future) for point, future in entries
                           if not future.done]
                if not entries:
                    return
                with self._lock:
                    self.point_retries += len(entries)
            error = self._run_entries(runner, entries)
            if error is None:
                return  # a clean run resolved every point
        # Attempts exhausted: release every waiter.  A point that raised
        # fails with its own labelled error (the run's error names only
        # the lowest failing point); lost points share the run's error.
        failures = getattr(error, "failures", None) or {}
        for index, (point, future) in enumerate(entries):
            if future.done:
                continue
            if index in failures:
                future.fail(point_error(point, *failures[index]))
            else:
                future.fail(error)
            with self._lock:
                self._inflight.pop(future.key, None)

    # -- stats / lifecycle ---------------------------------------------------

    @property
    def inflight_points(self) -> int:
        """Points currently queued or running (dedup keys held)."""
        with self._lock:
            return len(self._inflight)

    def stats(self) -> Dict[str, Any]:
        """Session counters (plain dict, ready for the stats endpoint)."""
        with self._lock:
            return {
                "submitted_requests": self.submitted_requests,
                "submitted_points": self.submitted_points,
                "attached_points": self.attached_points,
                "batches": self.batches,
                "batched_points": self.batched_points,
                "point_retries": self.point_retries,
                "inflight_points": len(self._inflight),
            }

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop dispatching and join outstanding batches (best-effort).

        Already-dispatched batches are allowed to finish (bounded by
        ``timeout_s`` each); queued-but-undispatched futures are failed so
        no waiter hangs on a closed batcher.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            undispatched, self._pending = self._pending, {}
            self._wake.notify_all()
            threads = list(self._batch_threads)
        for _, entries in undispatched.values():
            for _, future in entries:
                future.fail(ConfigurationError("batcher closed"))
                with self._lock:
                    self._inflight.pop(future.key, None)
        self._dispatcher.join(timeout_s)
        for thread in threads:
            thread.join(timeout_s)

    def __enter__(self) -> "CoalescingBatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
