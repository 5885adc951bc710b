"""The worker-agent side of the multi-host sweep fabric.

A :class:`DistWorker` is one long-running agent process (``repro dist
worker --listen HOST:PORT``): it accepts driver connections, rebuilds
sweep substrates from the runner specs it receives, executes point chunks
and streams byte-exact :meth:`~repro.sim.sweep.SweepRecord.snapshot`
frames back as each point completes.

Substrate reuse is the :class:`~repro.store.PersistentPool` discipline,
literally: a wire spec is converted back to the picklable spec tuple and
handed to :func:`repro.store.pool._worker_runner`, so an agent keeps one
rebuilt :class:`~repro.sim.sweep.SweepRunner` per spec and shares the
module-level dataset/sampler memo dicts across every runner configuration
it ever serves — a dataset is materialised at most once per agent (or, at
``--workers N``, once per pool worker) no matter how many drivers or grids
connect.

Every chunk is one ``run_points`` call on the agent's executor: the serial
executor on the connection thread at ``workers<=1``, or, at
``workers>=2``, an agent-owned supervised :class:`PersistentPool`, so one
agent fans a chunk out over local processes and inherits the kill/respawn
recovery contract.  Either way results are byte-identical: per-point
seeding (:meth:`~repro.sim.sweep.SweepRunner.point_seed`) is independent
of scheduling, worker count and host placement.

Failures never tear the connection down: every point that raises travels
back as its own ``point_error`` frame (its message + traceback), and the
chunk still completes with a ``chunk_done`` barrier — the driver folds
errors into the ordinary sweep failure protocol.  The agent keeps no
store: hits are resolved driver-side, and the driver writes results back,
so agents are storage-free by construction (the same parent-side-only
store rule the local pool follows).

:class:`LocalWorkerFleet` spawns agents as localhost subprocesses — the
harness the dist tests, ``tools/dist_check.py`` and the CI ``dist`` leg
build their two-host topologies (and their host-death faults: a fleet can
SIGKILL one live agent mid-chunk) from.
"""

from __future__ import annotations

import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError, SweepPointError
from repro.dist.protocol import (
    DIST_PROTOCOL_VERSION,
    recv_frame,
    send_frame,
    spec_from_wire,
)
from repro.sim.sweep import SERIAL_EXECUTOR, clamp_workers
from repro.serve.protocol import point_from_wire
from repro.store.pool import PersistentPool, _worker_runner

#: Stdout line an agent prints (flushed) once its socket is bound; the
#: fleet spawner parses the address out of it, which is how ``--listen
#: host:0`` (kernel-assigned port) stays usable from scripts.
LISTENING_PREFIX = "repro-dist-worker listening on "


class DistWorker:
    """One sweep worker agent: listen, rebuild substrates, stream records.

    Args:
        host / port: Bind address; ``port=0`` picks a free port (readable
            from :attr:`address` after construction).
        workers: Local fan-out per chunk.  ``0``/``1`` executes points
            serially on the connection thread; ``N>=2`` runs chunks
            through an agent-owned supervised
            :class:`~repro.store.PersistentPool` (clamped to the core
            count, like every worker knob), whose processes spawn on the
            first chunk.

    Use :meth:`serve_forever` from the CLI, or :meth:`start` /
    :meth:`close` (also a context manager) from tests, which serve on a
    background accept thread.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 0) -> None:
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        self._workers = clamp_workers(workers) if workers else 0
        self._pool = (PersistentPool(self._workers)
                      if self._workers >= 2 else None)
        self._executor = SERIAL_EXECUTOR if self._pool is None else self._pool
        self._listener = socket.create_server((host, port))
        self._closed = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self.chunks_served = 0
        self.points_served = 0
        self._stats_lock = threading.Lock()

    @property
    def address(self) -> Tuple[str, int]:
        """Actually-bound ``(host, port)`` — resolves ``port=0`` requests."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    @property
    def endpoint(self) -> str:
        """The ``host:port`` string drivers pass in their host lists."""
        host, port = self.address
        return f"{host}:{port}"

    @property
    def workers(self) -> int:
        """Local fan-out (0 = serial on the connection thread)."""
        return self._workers

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "DistWorker":
        """Accept connections on a background thread (idempotent)."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-dist-accept",
                daemon=True)
            self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections on the calling thread (the CLI path)."""
        try:
            self._accept_loop()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Stop accepting and release the pool (idempotent)."""
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            # Wake the thread blocked in accept() first: on Linux a bare
            # close() from another thread leaves it blocked.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self._pool is not None:
            self._pool.close(drain=False)
        if self._accept_thread is not None:
            self._accept_thread.join(5.0)
            self._accept_thread = None

    def __enter__(self) -> "DistWorker":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- connection handling -------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:  # listener closed
                return
            thread = threading.Thread(target=self._handle, args=(conn,),
                                      name="repro-dist-conn", daemon=True)
            thread.start()

    def _handle(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        try:
            while True:
                try:
                    frame = recv_frame(conn)
                except ConnectionError:  # driver went away
                    return
                kind = frame.get("type")
                if kind == "hello":
                    if frame.get("protocol") != DIST_PROTOCOL_VERSION:
                        send_frame(conn, {
                            "type": "error",
                            "error": f"protocol mismatch: agent speaks "
                                     f"{DIST_PROTOCOL_VERSION}"})
                        return
                    send_frame(conn, {"type": "hello",
                                      "protocol": DIST_PROTOCOL_VERSION,
                                      "pid": os.getpid(),
                                      "workers": self._workers})
                elif kind == "ping":
                    send_frame(conn, {"type": "pong"})
                elif kind == "run_chunk":
                    self._run_chunk(conn, frame)
                elif kind == "shutdown":
                    send_frame(conn, {"type": "bye"})
                    return
                else:
                    send_frame(conn, {"type": "error",
                                      "error": f"unknown frame {kind!r}"})
                    return
        except (ConnectionError, OSError):  # driver died mid-send
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # -- chunk execution -----------------------------------------------------

    def _run_chunk(self, conn: socket.socket, frame: Dict[str, Any]) -> None:
        chunk_id = frame.get("id")
        try:
            spec = spec_from_wire(frame.get("spec"))
            tasks = [(int(index), point_from_wire(wire))
                     for index, wire in frame.get("points", [])]
            if not tasks:
                raise ConfigurationError("run_chunk carried no points")
        except ConfigurationError as exc:
            # A malformed chunk fails every point it named (or the chunk
            # itself when the point list is unreadable) without tearing the
            # connection down — the driver folds this into SweepPointError.
            indices = [pair[0] for pair in frame.get("points", [])
                       if isinstance(pair, (list, tuple)) and pair]
            for index in indices or [-1]:
                send_frame(conn, {"type": "point_error", "id": chunk_id,
                                  "index": index, "error": str(exc),
                                  "traceback": ""})
            send_frame(conn, {"type": "chunk_done", "id": chunk_id,
                              "ok": 0, "failed": max(1, len(indices))})
            return

        delivered = set()

        def stream(index: int, record) -> None:
            delivered.add(index)
            send_frame(conn, {
                "type": "record", "id": chunk_id, "index": index,
                "snapshot": record.snapshot(include_timeline=True)})

        try:
            self._executor.run_points(_worker_runner(spec), tasks,
                                      on_record=stream)
        except SweepPointError as error:
            # Every success is already streamed, so the undelivered
            # indices are exactly the failed (or lost) ones; each reports
            # its own exception, and lost points the run's error.
            for index, _point in tasks:
                if index in delivered:
                    continue
                exc, text = error.failures.get(
                    index, (error, error.child_traceback))
                send_frame(conn, {
                    "type": "point_error", "id": chunk_id, "index": index,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": text or "".join(
                        traceback.format_exception(exc))})
        ok = len(delivered)
        with self._stats_lock:
            self.chunks_served += 1
            self.points_served += ok
        send_frame(conn, {"type": "chunk_done", "id": chunk_id,
                          "ok": ok, "failed": len(tasks) - ok})


class LocalWorkerFleet:
    """Spawn N localhost worker agents as subprocesses (tests + CI gate).

    Each agent is a real ``python -m repro dist worker`` process bound to
    a kernel-assigned port, so the fleet exercises the genuine process and
    socket failure domains — :meth:`kill_one` SIGKILLs a live agent, which
    is exactly the ``host-death`` fault the scheduler must survive.

    Use as a context manager; :attr:`endpoints` is the ``host:port`` list
    a :class:`~repro.dist.DistExecutor` takes.
    """

    def __init__(self, count: int, workers: int = 0,
                 startup_timeout_s: float = 30.0) -> None:
        if count < 1:
            raise ConfigurationError("a fleet needs >= 1 agents")
        self._procs: List[subprocess.Popen] = []
        self.endpoints: List[str] = []
        src_root = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(src_root) + os.pathsep +
                             env.get("PYTHONPATH", "")).rstrip(os.pathsep)
        try:
            for _ in range(count):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "dist", "worker",
                     "--listen", "127.0.0.1:0", "--workers", str(workers)],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    env=env, text=True)
                self._procs.append(proc)
                self.endpoints.append(
                    self._read_endpoint(proc, startup_timeout_s))
        except Exception:
            self.close()
            raise

    @staticmethod
    def _read_endpoint(proc: subprocess.Popen, timeout_s: float) -> str:
        """Parse the agent's flushed listening line off its stdout."""
        deadline_timer = threading.Timer(timeout_s, proc.kill)
        deadline_timer.start()
        try:
            assert proc.stdout is not None
            for line in proc.stdout:
                if line.startswith(LISTENING_PREFIX):
                    return line[len(LISTENING_PREFIX):].strip()
            raise ConfigurationError(
                "worker agent exited before announcing its address")
        finally:
            deadline_timer.cancel()

    @property
    def alive(self) -> List[subprocess.Popen]:
        return [proc for proc in self._procs if proc.poll() is None]

    def kill_one(self) -> Optional[int]:
        """SIGKILL one live agent (the host-death fault); returns its pid."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=10)
                return proc.pid
        return None

    def close(self) -> None:
        """Terminate every agent (idempotent)."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=10)
            if proc.stdout is not None:
                proc.stdout.close()

    def __enter__(self) -> "LocalWorkerFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
