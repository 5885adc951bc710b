"""Driver-side scheduler of the multi-host sweep fabric.

:class:`DistExecutor` implements the executor contract
:meth:`repro.sim.sweep.SweepRunner.run` dispatches on — ``run_points(runner,
indexed_points, on_record)``, shared with
:class:`~repro.sim.sweep.SerialExecutor` and
:class:`~repro.store.PersistentPool` — so ``runner.run(points,
pool=DistExecutor([...]))`` fans a grid out across machines with the
store, streaming hook and failure protocol unchanged.  The division of
labour mirrors the local pool exactly:

* **store hits never leave the driver** — ``run()`` resolves hits before
  dispatch, so only misses are framed onto the wire, and the driver's
  ``commit`` hook writes every streamed record back into the shared
  :class:`~repro.store.SweepStore`;
* **chunks are the scheduling unit** — misses are partitioned into chunks
  (about four per host by default) and assigned to connected agents;
* **idle hosts steal** — a host with nothing pending re-runs an
  outstanding chunk from a slower host after a short grace period.
  Duplicate execution is harmless by construction: per-point seeding
  makes every copy byte-identical, the driver delivers each index once
  (extras are counted in :attr:`duplicates`), and the store's write-once
  puts mean even racing *drivers* can only agree — the trace checker
  (:func:`repro.store.verify_store_trace`) proves it;
* **host death costs time, never bytes** — a dead connection (agent
  SIGKILLed mid-chunk, network gone) marks the host lost and requeues its
  chunk under a bounded reassignment budget, the distributed analogue of
  :class:`~repro.store.PersistentPool`'s respawn budget.
  Exhausting the budget (or losing every host) raises the usual labelled
  :class:`~repro.exceptions.SweepPointError` naming the lowest lost
  point.

Results are reassembled in input order and are byte-identical at any
topology — the golden grids are replayed at hosts=1/2 by
``tools/dist_check.py`` to pin exactly that.

Fault injection: a :class:`~repro.resilience.FaultPlan` ``host_kills``
schedule (the ``host-death`` fault kind) fires driver-side after the
N-th delivered record by invoking the executor's ``kill_hook`` — wired to
:meth:`~repro.dist.LocalWorkerFleet.kill_one` in the chaos harness, which
SIGKILLs a real agent process mid-chunk.
"""

from __future__ import annotations

import math
import select
import socket
import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.exceptions import (
    ConfigurationError,
    HostLostError,
    SimulationError,
)
from repro.dist.protocol import (
    DIST_PROTOCOL_VERSION,
    parse_hosts,
    recv_frame,
    send_frame,
)
from repro.resilience.faults import active_injector
from repro.serve.protocol import point_to_wire, runner_from_wire, runner_to_wire
from repro.sim.sweep import (
    SweepPoint,
    SweepRecord,
    SweepRunner,
    _raise_lost_points,
    _raise_lowest_failure,
)

#: Bound on chunk reassignments after host death, per
#: :meth:`DistExecutor.run_points` call — the distributed analogue of the
#: supervised pool's respawn budget.
DEFAULT_MAX_REASSIGNS = 3

#: Seconds an idle host waits for fresh pending work before stealing an
#: outstanding chunk from a busier host.
DEFAULT_STEAL_DELAY_S = 0.05

#: Seconds allowed for the TCP connect + hello handshake per host, and for
#: the ``bye`` that answers a ``shutdown``.  Chunk frames have no bound: a
#: chunk may legitimately run for minutes.
CONNECT_TIMEOUT_S = 10.0

HostsArg = Union[str, Sequence[Union[str, Tuple[str, int]]]]


class _Chunk:
    """One scheduling unit: contiguous indexed tasks plus run state."""

    __slots__ = ("id", "tasks", "runners", "done", "stolen")

    def __init__(self, chunk_id: int,
                 tasks: List[Tuple[int, SweepPoint]]) -> None:
        self.id = chunk_id
        self.tasks = tasks
        self.runners: Set[str] = set()   # endpoints currently running it
        self.done = False
        self.stolen = False


def _peer_closed(sock: socket.socket) -> bool:
    """Whether the agent behind an idle connection has closed it."""
    try:
        readable, _, _ = select.select([sock], [], [], 0)
        return bool(readable) and not sock.recv(1, socket.MSG_PEEK)
    except OSError:  # reset by a killed peer
        return True


class _Host:
    """Driver-side state of one worker agent connection."""

    __slots__ = ("endpoint", "address", "sock", "alive")

    def __init__(self, endpoint: str, address: Tuple[str, int]) -> None:
        self.endpoint = endpoint
        self.address = address
        self.sock: Optional[socket.socket] = None
        self.alive = False


class DistExecutor:
    """Work-stealing scheduler over a set of sweep worker agents.

    Args:
        hosts: Worker agents as a ``"host:port,host:port"`` string or a
            sequence of ``"host:port"`` strings / ``(host, port)`` pairs.
        chunksize: Points per dispatched chunk (about four chunks per
            host when ``None`` — the local pool's split).
        kill_hook: Callable delivering one host-death fault (the chaos
            harness passes :meth:`~repro.dist.LocalWorkerFleet.kill_one`).
            Without a hook, ``host_kills`` entries are inert — the driver
            cannot kill arbitrary remote machines.

    :data:`DEFAULT_MAX_REASSIGNS`, :data:`DEFAULT_STEAL_DELAY_S` and the
    ``host_kills`` schedule of :func:`~repro.resilience.active_injector`
    are read at construction.

    The executor is the serve daemon's ``pool`` drop-in: it exposes the
    same ``workers`` / ``respawns`` / ``reruns`` health surface
    (``respawns`` counts chunk reassignments after host death, ``reruns``
    the points those reassignments re-shipped) and ``close(drain=...)``.
    ``run_points`` calls are serialised per executor — concurrent callers
    queue (the coalescing batcher in front of it already merges
    overlapping queries).

    Dead hosts are retried at the start of every :meth:`run_points` call,
    so an agent restarted by an operator rejoins the fabric on the next
    grid without driver restarts.

    An agent that dies after its last frame of a run (no chunk left to
    fail over) is still counted in ``hosts_lost`` and dropped before the
    call returns.
    """

    def __init__(self, hosts: HostsArg, chunksize: Optional[int] = None,
                 kill_hook: Optional[Callable[[], Any]] = None) -> None:
        if chunksize is not None and chunksize < 1:
            raise ConfigurationError("chunksize must be at least 1")
        self._hosts = [
            _Host(f"{host}:{port}", (host, port))
            for host, port in self._parse(hosts)]
        self._chunksize = chunksize
        self._max_reassigns = DEFAULT_MAX_REASSIGNS
        self._steal_delay_s = DEFAULT_STEAL_DELAY_S
        self._injector = active_injector()
        self._kill_hook = kill_hook
        self._run_lock = threading.Lock()
        self._cond = threading.Condition()
        self.runs = 0
        self.points_sent = 0
        self.steals = 0
        self.duplicates = 0
        self.reassignments = 0
        self.rerun_points = 0
        self.hosts_lost = 0

    @staticmethod
    def _parse(hosts: HostsArg) -> List[Tuple[str, int]]:
        if isinstance(hosts, str):
            return parse_hosts(hosts)
        parsed: List[Tuple[str, int]] = []
        for item in hosts:
            if isinstance(item, str):
                parsed.extend(parse_hosts(item))
            else:
                host, port = item
                parsed.append((str(host), int(port)))
        if not parsed:
            raise ConfigurationError("the worker host list is empty")
        return parsed

    # -- health surface (the serve daemon's pool duck type) ------------------

    @property
    def hosts(self) -> List[str]:
        """Configured agent endpoints, as ``host:port`` strings."""
        return [host.endpoint for host in self._hosts]

    @property
    def workers(self) -> int:
        """Remote execution slots, one per agent: the connected agents, or
        the configured host count before any connection has been made."""
        return (sum(host.alive for host in self._hosts)
                or len(self._hosts))

    @property
    def respawns(self) -> int:
        """Chunk reassignments after host death (the recovery counter the
        serve health endpoint reports for its pool subsystem)."""
        return self.reassignments

    @property
    def reruns(self) -> int:
        """Points re-shipped by those reassignments."""
        return self.rerun_points

    # -- connections ---------------------------------------------------------

    def _connect(self, host: _Host) -> bool:
        """(Re)connect one host and run the hello handshake."""
        if host.sock is not None:
            host.alive = True
            return True
        try:
            # Bounded until the hello reply: a listener that queues the
            # connection and never answers costs CONNECT_TIMEOUT_S.
            sock = socket.create_connection(host.address,
                                            timeout=CONNECT_TIMEOUT_S)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform-dependent
                pass
            send_frame(sock, {"type": "hello",
                              "protocol": DIST_PROTOCOL_VERSION})
            reply = recv_frame(sock)
            if (reply.get("type") != "hello"
                    or reply.get("protocol") != DIST_PROTOCOL_VERSION):
                raise ConnectionError(
                    f"agent {host.endpoint} answered {reply.get('type')!r} "
                    f"(protocol {reply.get('protocol')!r})")
            sock.settimeout(None)
        except (OSError, ConnectionError):
            host.sock = None
            host.alive = False
            return False
        host.sock = sock
        host.alive = True
        return True

    def _drop(self, host: _Host) -> None:
        sock, host.sock = host.sock, None
        host.alive = False
        if sock is not None:
            try:
                # Wake a thread blocked in recv on this socket before
                # closing the fd — a bare close() does not interrupt it.
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def close(self, drain: bool = True) -> None:
        """Send best-effort shutdowns and close every connection.

        ``drain=True`` waits for an in-flight :meth:`run_points` call to
        finish first (calls are serialised, so holding the run lock is
        the wait); ``drain=False`` closes sockets immediately, which a
        running call observes as every host dying at once.
        """
        if drain:
            with self._run_lock:
                self._close_connections(polite=True)
        else:
            self._close_connections(polite=False)

    def _close_connections(self, polite: bool) -> None:
        for host in self._hosts:
            if host.sock is not None and polite:
                try:
                    host.sock.settimeout(CONNECT_TIMEOUT_S)
                    send_frame(host.sock, {"type": "shutdown"})
                    recv_frame(host.sock)  # bye
                except (OSError, ConnectionError):
                    pass
            self._drop(host)

    def __enter__(self) -> "DistExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -- the executor surface ------------------------------------------------

    def run_points(self, runner: SweepRunner,
                   indexed_points: List[Tuple[int, SweepPoint]],
                   on_record: Optional[Callable[[int, SweepRecord], None]]
                   = None) -> List[Tuple[int, SweepRecord]]:
        """Run indexed points across the fabric; return (index, record)s
        in input order.

        ``on_record`` fires once per input index as its record is first
        delivered (stolen duplicates are dropped before the hook), from a
        host-connection thread — the store write-back path it is normally
        wired to (:meth:`~repro.sim.sweep.SweepRunner.run`'s ``commit``)
        is thread-safe by the store's own contract.  The failure protocol
        is the shared sweep one: drain everything, then raise the lowest
        failing input index as a labelled
        :class:`~repro.exceptions.SweepPointError`; a run that loses
        hosts beyond the reassignment budget (or loses every host) raises
        the same way, naming the lowest point still outstanding.  A runner
        whose factory the agents would refuse (a closure, or a module
        outside :data:`~repro.serve.protocol.ALLOWED_FACTORY_MODULES`)
        raises :class:`~repro.exceptions.ConfigurationError` before any
        agent is dialled.
        """
        if not indexed_points:
            return []
        wire_spec = runner_to_wire(runner)
        runner_from_wire(wire_spec)  # the agents' whitelist check, here
        with self._run_lock:
            return self._run_locked(wire_spec, list(indexed_points),
                                    on_record)

    def _run_locked(self, wire_spec, indexed_points, on_record):
        live = [host for host in self._hosts if self._connect(host)]
        if not live:
            raise HostLostError(
                f"no worker agent reachable (tried "
                f"{[h.endpoint for h in self._hosts]})")
        chunksize = self._chunksize or max(
            1, math.ceil(len(indexed_points) / (len(live) * 4)))
        chunks = [_Chunk(i, indexed_points[start:start + chunksize])
                  for i, start in enumerate(
                      range(0, len(indexed_points), chunksize))]

        state = {
            "pending": deque(chunks),
            "chunks": chunks,
            "delivered": {},          # index -> SweepRecord
            "failures": {},           # index -> (exc, traceback text)
            "records_seen": 0,
            "reassigns": 0,
            "aborted": False,
            "finished": False,
            "live": len(live),
            "wire_spec": wire_spec,
            "on_record": on_record,
            "kills": (self._injector.host_kill_schedule()
                      if self._injector is not None else None),
        }
        threads = []
        for host in live:
            thread = threading.Thread(
                target=self._serve_host, args=(host, state),
                name=f"repro-dist-{host.endpoint}", daemon=True)
            thread.start()
            threads.append(thread)

        with self._cond:
            while (not all(c.done for c in chunks) and not state["aborted"]
                   and state["live"] > 0):
                self._cond.wait(0.05)
            finished = all(c.done for c in chunks)
            state["finished"] = True
        for thread in threads:
            thread.join(1.0)
        for host, thread in zip(live, threads):
            if thread.is_alive():
                # A hung agent (stalled mid-chunk after its work was stolen,
                # or still draining after an abort): cut the connection so
                # the thread unblocks; the host reconnects next run.
                self._drop(host)
                thread.join(5.0)
            elif host.sock is not None and _peer_closed(host.sock):
                # The agent died after its last frame (a kill that landed
                # once its work had drained): count it now rather than
                # spending a reassignment on it at the next run's first send.
                self._drop(host)
                with self._cond:
                    self.hosts_lost += 1

        self.runs += 1
        delivered: Dict[int, SweepRecord] = state["delivered"]
        failures: Dict[int, tuple] = {
            index: failure for index, failure in state["failures"].items()
            if index not in delivered}
        if failures:
            _raise_lowest_failure(failures, indexed_points)
        if not finished:
            _raise_lost_points(
                (index for index, _ in indexed_points
                 if index not in delivered), indexed_points, "hosts",
                f"{state['reassigns']} chunk reassignment(s) across "
                f"{self.hosts_lost} host death(s)")
        return sorted(delivered.items())

    # -- per-host scheduling loop --------------------------------------------

    def _serve_host(self, host: _Host, state: Dict[str, Any]) -> None:
        while True:
            chunk = self._next_chunk(host, state)
            if chunk is None:
                return
            try:
                self._run_chunk_on(host, chunk, state)
            except Exception as exc:
                # Dead connections (agent SIGKILLed, network gone) and any
                # malformed agent traffic count the same: this host is lost
                # for the rest of the run, its chunk goes back on the queue.
                self._host_lost(host, chunk, state, exc)
                return

    def _next_chunk(self, host: _Host,
                    state: Dict[str, Any]) -> Optional[_Chunk]:
        waited = False
        with self._cond:
            while True:
                if state["aborted"] or all(c.done for c in state["chunks"]):
                    return None
                pending: deque = state["pending"]
                if pending:
                    chunk = pending.popleft()
                    chunk.runners.add(host.endpoint)
                    return chunk
                candidates = [c for c in state["chunks"]
                              if not c.done
                              and host.endpoint not in c.runners]
                if candidates and waited:
                    # Steal the chunk with the fewest runners (ties: the
                    # earliest), so steals spread instead of piling up.
                    chunk = min(candidates,
                                key=lambda c: (len(c.runners), c.id))
                    chunk.runners.add(host.endpoint)
                    chunk.stolen = True
                    self.steals += 1
                    return chunk
                self._cond.wait(self._steal_delay_s or 0.01)
                waited = True

    def _run_chunk_on(self, host: _Host, chunk: _Chunk,
                      state: Dict[str, Any]) -> None:
        # Snapshot the socket: _drop() (run teardown, close()) nulls
        # host.sock from another thread; the local keeps this loop on the
        # same fd so the shutdown() in _drop surfaces here as an EOF.
        sock = host.sock
        if sock is None:
            raise ConnectionError(f"agent {host.endpoint} connection closed")
        send_frame(sock, {
            "type": "run_chunk", "id": chunk.id,
            "spec": state["wire_spec"],
            "points": [[index, point_to_wire(point)]
                       for index, point in chunk.tasks]})
        self.points_sent += len(chunk.tasks)
        while True:
            frame = recv_frame(sock)
            kind = frame.get("type")
            if kind == "record":
                self._deliver(int(frame["index"]), frame["snapshot"], state)
            elif kind == "point_error":
                self._fail(int(frame["index"]), frame.get("error", ""),
                           frame.get("traceback", ""), state)
            elif kind == "chunk_done":
                with self._cond:
                    chunk.done = True
                    chunk.runners.discard(host.endpoint)
                    self._cond.notify_all()
                return
            elif kind == "error":
                raise ConnectionError(
                    f"agent {host.endpoint} refused the chunk: "
                    f"{frame.get('error')}")
            else:
                raise ConnectionError(
                    f"agent {host.endpoint} sent unexpected {kind!r}")

    def _deliver(self, index: int, snapshot: Dict[str, Any],
                 state: Dict[str, Any]) -> None:
        record = SweepRecord.from_snapshot(snapshot)
        kill_due = False
        with self._cond:
            if index in state["delivered"]:
                self.duplicates += 1
                return
            state["delivered"][index] = record
            state["failures"].pop(index, None)
            state["records_seen"] += 1
            kills = state["kills"]
            if kills is not None and kills.due(state["records_seen"]):
                kill_due = True
        on_record = state["on_record"]
        if on_record is not None:
            on_record(index, record)
        if kill_due and self._kill_hook is not None:
            # Deliver the planned host-death fault outside the lock: the
            # hook may block on process teardown.
            self._kill_hook()
            if self._injector is not None:
                self._injector.note_host_kill()

    def _fail(self, index: int, error: str, traceback_text: str,
              state: Dict[str, Any]) -> None:
        with self._cond:
            if index in state["delivered"] or index in state["failures"]:
                return
            state["failures"][index] = (
                SimulationError(f"remote point failure: {error}"),
                traceback_text or None)

    def _host_lost(self, host: _Host, chunk: _Chunk,
                   state: Dict[str, Any], exc: BaseException) -> None:
        self._drop(host)
        with self._cond:
            if state["finished"]:
                # Run teardown cut this connection on purpose (a hung or
                # abandoned host after completion) — not a death to count.
                return
            self.hosts_lost += 1
            state["live"] -= 1
            chunk.runners.discard(host.endpoint)
            delivered = state["delivered"]
            if all(index in delivered for index, _point in chunk.tasks):
                # Every record arrived before the host died, short of its
                # chunk_done: nothing is left to re-run.
                chunk.done = True
            if not chunk.done and not chunk.runners and not state["aborted"]:
                # Nobody else is running (or stealing) this chunk: requeue
                # it under the budget so a surviving host picks it up.
                if state["reassigns"] >= self._max_reassigns:
                    state["aborted"] = True
                else:
                    state["reassigns"] += 1
                    self.reassignments += 1
                    self.rerun_points += len(chunk.tasks)
                    state["pending"].append(chunk)
            self._cond.notify_all()
