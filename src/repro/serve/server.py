"""The long-running what-if sweep daemon (stdlib HTTP, JSON in/out).

:class:`ServeDaemon` holds the serving substrate open across requests —
one shared :class:`~repro.store.SweepStore` (every answer lands in it;
warm questions are file reads), one shared
:class:`~repro.store.PersistentPool` (spawned once, reused by every
query) and one :class:`~repro.serve.batcher.CoalescingBatcher` (overlapping
concurrent queries coalesce into shared sweep runs) — and answers JSON
over HTTP through a :class:`http.server.ThreadingHTTPServer` (one thread
per connection; all shared state is lock-guarded by construction).

Endpoints (all payloads defined in :mod:`repro.serve.protocol`):

====================  ====  =====================================================
``/v1/health``        GET   liveness + configuration echo
``/v1/stats``         GET   store / batcher / latency statistics
``/v1/whatif``        POST  ``{"runner": .., "points": [..], "deadline_s": ..}``
                            → per-point records (fully-invertible snapshots),
                            with explicit ``timed_out`` / ``error`` markers
``/v1/experiment``    POST  ``{"id": "fig3", "scale": ..}`` → the registered
                            experiment's tidy table (shared store + pool)
``/v1/report``        POST  ``{"scale": .., "only": [..]}`` → EXPERIMENTS.md
                            markdown (shared store + pool)
====================  ====  =====================================================

Deadlines are per-request (``deadline_s``; the daemon's default applies
when absent): a request whose points are still simulating when its
deadline passes gets its completed points plus ``timed_out`` markers for
the rest — the simulation keeps running and its results land in the
store, so asking again is cheap.  Responses carry request latency; the
daemon aggregates latencies for ``/v1/stats`` percentiles (what the CI
serve gate uploads as ``BENCH_serve.json``).

Resilience: sweep-running POSTs pass admission control — at most
``max_inflight`` run concurrently; excess requests get ``503`` with a
``Retry-After`` header instead of queueing unboundedly.  ``close()``
drains by default: new sweeps are rejected (``503 draining``) while
requests already admitted run to completion.  ``/v1/health`` reports
per-subsystem degradation (store mode, pool respawns, batcher retries,
admission pressure) so an operator — or the chaos gate — can see a
daemon that is alive but limping.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments import registry
from repro.experiments.report_generator import generate
from repro.serve.batcher import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_WINDOW_S,
    CoalescingBatcher,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    RETRY_AFTER_HEADER,
    points_from_wire,
    record_to_wire,
    runner_from_wire,
)
from repro.resilience.faults import active_injector
from repro.store import PersistentPool, StoreArg, resolve_store

#: Default per-request deadline when a query does not carry one.  Generous
#: — it exists so an abandoned connection can never pin a request thread
#: forever, not to race healthy queries.
DEFAULT_DEADLINE_S = 300.0

#: Maximum accepted request body (simple flood guard; grids are small).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Default admission limit on concurrently-running sweep POSTs.  Each
#: admitted request pins one handler thread until its deadline, so the
#: limit bounds thread growth under a flood; well above anything the
#: coalescing tests throw at a daemon.
DEFAULT_MAX_INFLIGHT = 64

#: Seconds suggested in ``Retry-After`` on admission rejection.
RETRY_AFTER_S = 1

#: Bound on how long ``close(drain=True)`` waits for admitted requests.
DRAIN_TIMEOUT_S = 30.0


def latency_percentiles(latencies_s: List[float]) -> Dict[str, float]:
    """p50/p90/p99/max of a latency sample, in milliseconds.

    Nearest-rank percentiles over the sorted sample — no interpolation,
    so tiny samples stay honest.  Empty input returns an empty dict.
    """
    if not latencies_s:
        return {}
    ordered = sorted(latencies_s)
    def rank(q: float) -> float:
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index] * 1000.0
    return {
        "count": len(ordered),
        "p50_ms": round(rank(0.50), 3),
        "p90_ms": round(rank(0.90), 3),
        "p99_ms": round(rank(0.99), 3),
        "max_ms": round(ordered[-1] * 1000.0, 3),
    }


class ServeDaemon:
    """One serving process: store + pool + batcher + HTTP front end.

    Args:
        host / port: Bind address; ``port=0`` picks a free port (the
            in-process test harness uses exactly that), readable from
            :attr:`address` / :attr:`url` after construction.
        store: Shared result store (:class:`~repro.store.StoreArg`
            semantics: a store, a directory path or ``sqlite://PATH``
            URI, ``None`` for the environment default, ``False`` for no
            store).  The SQLite backend's WAL mode gives the serving
            threads real concurrent reads — warm queries never serialise
            behind a writer.
        workers: Size of the shared :class:`~repro.store.PersistentPool`
            simulations fan out over; ``0`` simulates on batch threads
            (in-process — what the tests use).
        hosts: Remote worker agent endpoints (``host:port`` strings or
            ``(host, port)`` pairs).  When given, the daemon's executor is
            a :class:`~repro.dist.DistExecutor` over those agents instead
            of a local pool — results are byte-identical either way.
            Mutually exclusive with ``workers`` (pick the fabric or the
            local pool, not both).
        window_s: Batcher coalescing window (see
            :class:`~repro.serve.batcher.CoalescingBatcher`).
        point_retries: The batcher's retry budget: the number of *re-runs*
            a failing point gets before its error is served (the batcher's
            ``max_attempts`` is ``point_retries + 1``).
        default_deadline_s: Applied to queries that carry no
            ``deadline_s``.
        max_inflight: Admission limit on concurrently-running sweep
            POSTs (``/v1/whatif`` / ``/v1/experiment`` / ``/v1/report``);
            excess requests get ``503`` + ``Retry-After``.

    The daemon keeps the :func:`~repro.resilience.active_injector` of its
    construction for the ``faults`` block of ``/v1/health``.

    Use as a context manager, or :meth:`start` / :meth:`close` explicitly.
    :meth:`serve_forever` blocks (the CLI's ``repro serve``);
    :meth:`start` serves on a background thread (tests).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8421, *,
                 store: StoreArg = None, workers: int = 0,
                 hosts: Optional[Sequence[Any]] = None,
                 window_s: float = DEFAULT_WINDOW_S,
                 point_retries: int = DEFAULT_MAX_ATTEMPTS - 1,
                 default_deadline_s: float = DEFAULT_DEADLINE_S,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT) -> None:
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if hosts is not None and workers:
            raise ConfigurationError(
                "pass hosts (remote worker agents) or workers (a local "
                "pool), not both")
        if point_retries < 0:
            raise ConfigurationError("point_retries must be >= 0")
        if max_inflight < 1:
            raise ConfigurationError("max_inflight must be >= 1")
        self._injector = active_injector()
        self._store = resolve_store(store)
        if hosts is not None:
            from repro.dist import DistExecutor  # local: import cycle

            self._pool = DistExecutor(hosts)
        else:
            self._pool = PersistentPool(workers) if workers else None
        self._batcher = CoalescingBatcher(
            store=self._store, pool=self._pool, window_s=window_s,
            max_attempts=point_retries + 1)
        self._default_deadline_s = default_deadline_s
        self._max_inflight = max_inflight
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._latencies_s: List[float] = []
        self._inflight = 0
        self._inflight_done = threading.Condition(self._lock)
        self._draining = False
        self.requests = 0
        self.rejected = 0
        daemon = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args: Any) -> None:  # quiet by default
                pass

            def do_GET(self) -> None:
                daemon._dispatch(self, "GET")

            def do_POST(self) -> None:
                daemon._dispatch(self, "POST")

        self._http = ThreadingHTTPServer((host, port), Handler)
        self._http.daemon_threads = True
        self._serve_thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """Actually-bound (host, port) — resolves ``port=0`` requests."""
        return self._http.server_address[0], self._http.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def store(self):
        """The shared store (``None`` when serving store-less)."""
        return self._store

    @property
    def pool(self) -> Optional[PersistentPool]:
        """The shared persistent pool (``None`` when ``workers=0``)."""
        return self._pool

    @property
    def batcher(self) -> CoalescingBatcher:
        """The shared coalescing batcher."""
        return self._batcher

    def start(self) -> "ServeDaemon":
        """Serve on a background thread (idempotent); returns self."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self._http.serve_forever, name="repro-serve-http",
                daemon=True)
            self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        try:
            self._http.serve_forever()
        except KeyboardInterrupt:  # Ctrl-C, or SIGTERM under the CLI
            pass
        finally:
            self.close()

    def close(self, drain: bool = True) -> None:
        """Stop serving; by default let admitted requests finish first.

        ``drain=True`` flips the daemon into draining mode (new sweep
        POSTs get ``503 draining``), waits up to :data:`DRAIN_TIMEOUT_S`
        for in-flight requests to complete, then shuts the HTTP server,
        batcher and pool down.  ``drain=False`` skips the wait — in-flight
        sweeps are abandoned mid-run (their results still land in the
        store) and the pool is torn down hard.
        """
        with self._lock:
            self._draining = True
            if drain:
                deadline = time.monotonic() + DRAIN_TIMEOUT_S
                while self._inflight:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._inflight_done.wait(remaining)
        self._http.shutdown()
        self._http.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(5.0)
            self._serve_thread = None
        self._batcher.close()
        if self._pool is not None:
            self._pool.close(drain=drain)

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- request handling ----------------------------------------------------

    def _dispatch(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        start = time.monotonic()
        headers: Dict[str, str] = {}
        try:
            routed = self._route(handler, method)
            if len(routed) == 3:
                status, payload, headers = routed
            else:
                status, payload = routed
        except ConfigurationError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # never let a handler thread die silently
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.monotonic() - start
        payload.setdefault("protocol", PROTOCOL_VERSION)
        payload.setdefault("elapsed_s", round(elapsed, 6))
        body = json.dumps(payload).encode("utf-8")
        with self._lock:
            self.requests += 1
            self._latencies_s.append(elapsed)
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", "application/json")
            handler.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                handler.send_header(name, value)
            handler.end_headers()
            handler.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def _admit(self) -> Optional[Tuple[int, Dict[str, Any], Dict[str, str]]]:
        """Admission check for sweep-running POSTs.

        Returns ``None`` when admitted (in-flight count bumped; caller
        must release via :meth:`_release`), else the 503 response to
        serve.  Draining beats over-capacity in the reason — a draining
        daemon will not take the request no matter how idle it is.
        """
        with self._lock:
            if self._draining:
                reason = "draining"
            elif self._inflight >= self._max_inflight:
                reason = "over_capacity"
            else:
                self._inflight += 1
                return None
            self.rejected += 1
        return (503,
                {"error": f"service unavailable: {reason}", "reason": reason},
                {RETRY_AFTER_HEADER: str(RETRY_AFTER_S)})

    def _release(self) -> None:
        with self._lock:
            self._inflight -= 1
            self._inflight_done.notify_all()

    def _route(self, handler: BaseHTTPRequestHandler, method: str):
        path = handler.path.split("?", 1)[0].rstrip("/")
        if method == "GET" and path == "/v1/health":
            return 200, self._health_payload()
        if method == "GET" and path == "/v1/stats":
            return 200, self._stats_payload()
        sweep_handlers = {"/v1/whatif": self._handle_whatif,
                          "/v1/experiment": self._handle_experiment,
                          "/v1/report": self._handle_report}
        if method == "POST" and path in sweep_handlers:
            rejection = self._admit()
            if rejection is not None:
                return rejection
            try:
                return sweep_handlers[path](self._read_body(handler))
            finally:
                self._release()
        return 404, {"error": f"no such endpoint: {method} {path}"}

    def _read_body(self, handler: BaseHTTPRequestHandler) -> Dict[str, Any]:
        length = int(handler.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            raise ConfigurationError("request needs a JSON body")
        if length > MAX_BODY_BYTES:
            raise ConfigurationError(
                f"request body over {MAX_BODY_BYTES} bytes")
        raw = handler.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except ValueError:
            raise ConfigurationError("request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise ConfigurationError("request body must be a JSON object")
        return body

    # -- endpoints -----------------------------------------------------------

    def _subsystems(self) -> Dict[str, Any]:
        """Per-subsystem recovery / degradation counters (health + stats)."""
        with self._lock:
            admission = {"inflight": self._inflight,
                         "max_inflight": self._max_inflight,
                         "rejected": self.rejected,
                         "draining": self._draining}
        subsystems: Dict[str, Any] = {"admission": admission}
        if self._store is not None:
            subsystems["store"] = {
                "mode": self._store.mode,
                "degraded": self._store.degraded,
                "degraded_reason": self._store.degraded_reason,
                "retries": self._store.retries,
                "skipped_puts": self._store.skipped_puts,
            }
        if self._pool is not None:
            subsystems["pool"] = {
                "workers": self._pool.workers,
                "respawns": self._pool.respawns,
                "reruns": self._pool.reruns,
            }
        subsystems["batcher"] = {
            "point_retries": self._batcher.point_retries,
            "inflight_points": self._batcher.inflight_points,
        }
        return subsystems

    def _health_payload(self) -> Dict[str, Any]:
        subsystems = self._subsystems()
        degraded = (subsystems["admission"]["draining"]
                    or subsystems.get("store", {}).get("degraded", False))
        payload = {
            "status": ("draining" if subsystems["admission"]["draining"]
                       else "degraded" if degraded else "ok"),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "store": (str(self._store.directory)
                      if self._store is not None else None),
            "store_backend": (self._store.backend.kind
                              if self._store is not None else None),
            "pool_workers": self._pool.workers if self._pool else 0,
            "subsystems": subsystems,
        }
        if self._injector is not None:
            payload["faults"] = self._injector.snapshot()
        return payload

    def _stats_payload(self) -> Dict[str, Any]:
        with self._lock:
            latencies = list(self._latencies_s)
            requests = self.requests
            rejected = self.rejected
        payload: Dict[str, Any] = {
            "requests": requests,
            "rejected": rejected,
            "latency": latency_percentiles(latencies),
            "batcher": self._batcher.stats(),
            "admission": self._subsystems()["admission"],
        }
        if self._pool is not None:
            payload["pool"] = {"workers": self._pool.workers,
                               "respawns": self._pool.respawns,
                               "reruns": self._pool.reruns}
        if self._store is not None:
            payload["store"] = self._store.stats().to_dict()
        return payload

    def _handle_whatif(self,
                       body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        runner = runner_from_wire(body.get("runner"))
        points = points_from_wire(body.get("points"))
        deadline_s = body.get("deadline_s", self._default_deadline_s)
        if deadline_s is not None:
            deadline_s = float(deadline_s)
            if deadline_s <= 0:
                raise ConfigurationError("deadline_s must be positive")
        ticket = self._batcher.submit(runner, points)
        outcomes = ticket.wait(deadline_s)
        results = []
        for outcome in outcomes:
            item: Dict[str, Any] = {"status": outcome.status}
            if outcome.record is not None:
                item["record"] = record_to_wire(outcome.record)
            if outcome.error is not None:
                item["error"] = outcome.error
            results.append(item)
        return 200, {
            "results": results,
            "timed_out": any(o.status == "timed_out" for o in outcomes),
        }

    def _handle_experiment(self,
                           body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        experiment_id = str(body.get("id", ""))
        if not experiment_id:
            raise ConfigurationError("'id' names the experiment to run")
        kwargs, _ignored = registry.experiment_kwargs(
            experiment_id,
            scale=float(body["scale"]) if "scale" in body else None,
            store=self._store, pool=self._pool)
        result = registry.run_experiment(experiment_id, **kwargs)
        return 200, {
            "id": result.experiment_id,
            "title": result.title,
            "columns": result.columns,
            "rows": result.rows,
            "notes": result.notes,
            "table": result.format_table(),
        }

    def _handle_report(self,
                       body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        kwargs: Dict[str, Any] = {"store": self._store or False,
                                  "pool": self._pool}
        if "scale" in body:
            kwargs["scale"] = float(body["scale"])
        only = body.get("only")
        if only is not None:
            if (not isinstance(only, list)
                    or not all(isinstance(x, str) for x in only)):
                raise ConfigurationError("'only' must be a list of experiment ids")
            kwargs["only"] = only
        with tempfile.NamedTemporaryFile("r", suffix=".md") as sink:
            markdown = generate(sink.name, **kwargs)
        return 200, {"markdown": markdown}
