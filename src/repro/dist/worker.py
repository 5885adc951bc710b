"""The worker-agent side of the multi-host sweep fabric.

A :class:`DistWorker` is one long-running agent process (``repro dist
worker --listen HOST:PORT``): it accepts driver connections, rebuilds
sweep runners from the wire runner specs it receives, executes point
chunks and streams byte-exact :meth:`~repro.sim.sweep.SweepRecord.snapshot`
frames back as each point completes.

Substrate reuse is the :class:`~repro.store.PersistentPool` worker's: a
wire spec is rebuilt through the serve layer's whitelist into a runner
whose spec tuple keys :func:`repro.store.pool._worker_runner`, so an agent
keeps one rebuilt :class:`~repro.sim.sweep.SweepRunner` per spec and
shares the module-level dataset/sampler memo dicts across every runner
configuration it ever serves — a dataset is materialised at most once per
agent no matter how many drivers or grids connect.

Every chunk is one ``run_points`` call on
:data:`~repro.sim.sweep.SERIAL_EXECUTOR`, on the connection thread.  An
agent is one execution slot: a host that wants N cores runs N agents,
which the driver already chunks, steals across and fails over.  Results
are byte-identical wherever a point runs: per-point seeding
(:meth:`~repro.sim.sweep.SweepRunner.point_seed`) is independent of
scheduling and host placement.

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
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError, SweepPointError
from repro.dist.protocol import DIST_PROTOCOL_VERSION, recv_frame, send_frame
from repro.sim.sweep import SERIAL_EXECUTOR
from repro.serve.protocol import point_from_wire, runner_from_wire
from repro.store.pool import _worker_runner

#: Stdout line an agent prints (flushed) once its socket is bound; the
#: fleet spawner parses the address out of it, which is how ``--listen
#: host:0`` (kernel-assigned port) stays usable from scripts.
LISTENING_PREFIX = "repro-dist-worker listening on "

#: Seconds a spawned agent gets to announce its address.
_STARTUP_TIMEOUT_S = 30.0


class DistWorker:
    """One sweep worker agent: listen, rebuild runners, stream records.

    Args:
        host / port: Bind address; ``port=0`` picks a free port (readable
            from :attr:`address` after construction).

    Use :meth:`serve_forever` from the CLI, or :meth:`start` /
    :meth:`close` (also a context manager) from tests, which serve on a
    background accept thread.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
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
        except KeyboardInterrupt:  # Ctrl-C, or SIGTERM under the CLI
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Stop accepting connections (idempotent)."""
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
                                      "protocol": DIST_PROTOCOL_VERSION})
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
            spec = runner_from_wire(frame.get("spec")).spec()
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

        def stream(index: int, record) -> None:
            send_frame(conn, {
                "type": "record", "id": chunk_id, "index": index,
                "snapshot": record.snapshot(include_timeline=True)})

        failures: Dict[int, tuple] = {}
        try:
            SERIAL_EXECUTOR.run_points(_worker_runner(spec), tasks,
                                       on_record=stream)
        except SweepPointError as error:
            # Every success is already streamed; each failed point reports
            # its own exception, in task order.
            failures = error.failures
            for index, (exc, _) in failures.items():
                send_frame(conn, {
                    "type": "point_error", "id": chunk_id, "index": index,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": "".join(traceback.format_exception(exc))})
        ok = len(tasks) - len(failures)
        with self._stats_lock:
            self.chunks_served += 1
            self.points_served += ok
        send_frame(conn, {"type": "chunk_done", "id": chunk_id,
                          "ok": ok, "failed": len(failures)})


class LocalWorkerFleet:
    """Spawn N localhost worker agents as subprocesses (tests + CI gate).

    Each agent is a real ``python -m repro dist worker`` process bound to
    a kernel-assigned port, so the fleet exercises the genuine process and
    socket failure domains — :meth:`kill_one` SIGKILLs a live agent, which
    is exactly the ``host-death`` fault the scheduler must survive.

    Use as a context manager; :attr:`endpoints` is the ``host:port`` list
    a :class:`~repro.dist.DistExecutor` takes.
    """

    def __init__(self, count: int) -> None:
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
                     "--listen", "127.0.0.1:0"],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    env=env, text=True)
                self._procs.append(proc)
                self.endpoints.append(self._read_endpoint(proc))
        except Exception:
            self.close()
            raise

    @staticmethod
    def _read_endpoint(proc: subprocess.Popen) -> str:
        """Parse the agent's flushed listening line off its stdout."""
        deadline_timer = threading.Timer(_STARTUP_TIMEOUT_S, proc.kill)
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

    def descendant_pids(self) -> List[int]:
        """Every process the live agents started, at any depth.

        Read from the ppid fields of ``/proc/*/stat`` (Linux; empty
        elsewhere).  Taken before :meth:`close`, it is what a leak check
        waits on with :meth:`survivors`: an agent runs its chunks in
        process, so anything it did start must exit with it.
        """
        parents: Dict[int, int] = {}
        for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
            try:
                parents[int(stat.parent.name)] = int(
                    stat.read_text().rpartition(")")[2].split()[1])
            except (OSError, IndexError, ValueError):
                continue
        found: List[int] = []
        frontier = {proc.pid for proc in self.alive}
        while frontier:
            frontier = {pid for pid, ppid in parents.items()
                        if ppid in frontier}
            found.extend(sorted(frontier))
        return found

    @staticmethod
    def survivors(pids: List[int], timeout_s: float = 10.0) -> List[int]:
        """Those of ``pids`` still running after up to ``timeout_s``.

        A zombie counts as exited: it runs nothing, and whether it is
        reaped depends on the reaper it was reparented to.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            running = []
            for pid in pids:
                try:
                    stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
                except OSError:
                    continue
                if stat.rpartition(")")[2].split()[0] != "Z":
                    running.append(pid)
            if not running or time.monotonic() >= deadline:
                return running
            time.sleep(0.05)

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
