"""Tests for the multi-host sweep fabric (``repro.dist``).

The scale-out contract this PR is pinned by:

* **frame protocol** — length-prefixed JSON round-trips over a real
  socket pair, oversized/unparsable/typeless frames are refused, the
  runner spec's wire form goes through the serve layer's factory
  whitelist *driver-side* (the RCE-by-configuration guard), an agent
  answers ``hello`` with its protocol alone and refuses unknown frames,
  and ``host:port`` list parsing fails loudly on malformed input;
* **byte identity at any topology** — a grid fanned out over 1 or 2
  in-process worker agents is byte-identical to the serial run,
  work-stealing included;
* **the driver keeps the store** — store hits are resolved before
  dispatch (nothing framed onto the wire for them) and streamed records
  are written back into the shared store by the driver's commit hook;
* **the shared failure protocol** — a failing remote point raises the
  labelled :class:`~repro.exceptions.SweepPointError`; an unreachable
  fabric raises :class:`~repro.exceptions.HostLostError` at dispatch;
* **host death costs time, never bytes** — a real agent subprocess
  SIGKILLed mid-sweep (the ``host-death`` fault kind, scheduled by a
  :class:`~repro.resilience.FaultPlan`) loses a host, the chunk is
  reassigned, and the result is still byte-identical with zero lost or
  duplicated records;
* **serve integration** — a :class:`~repro.serve.ServeDaemon` built on
  ``hosts=`` serves byte-identical what-if answers through the fabric.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import ALEXNET, RESNET18
from repro.exceptions import (
    ConfigurationError,
    HostLostError,
    SweepPointError,
)
from repro.dist import (
    DIST_PROTOCOL_VERSION,
    HOSTS_ENV_VAR,
    MAX_FRAME_BYTES,
    DistExecutor,
    DistWorker,
    LocalWorkerFleet,
    parse_hosts,
    recv_frame,
    resolve_hosts,
    send_frame,
)
from repro.dist import executor as executor_module
from repro.resilience.faults import FaultInjector, FaultPlan, install_plan
from repro.serve.protocol import point_to_wire, runner_from_wire, runner_to_wire
from repro.sim.sweep import SweepPoint, SweepRunner
from repro.store import SweepStore

SCALE = 1 / 500.0


def _runner(**overrides) -> SweepRunner:
    settings = dict(scale=SCALE, seed=0)
    settings.update(overrides)
    return SweepRunner(settings.pop("server_factory", config_ssd_v100),
                       **settings)


def _grid(cache_fractions=(0.4, 0.8)):
    return SweepRunner.grid(models=[RESNET18],
                            loaders=["coordl", "dali-shuffle"],
                            cache_fractions=cache_fractions,
                            dataset="openimages")


def _serial_snapshot(points):
    return _runner().run(points, workers=0, store=False).snapshot()


def _uncatalogued_factory():  # pragma: no cover - never called
    """A module-level factory outside ``ALLOWED_FACTORY_MODULES``."""
    raise AssertionError("must not be invoked")


@pytest.fixture
def agent():
    """One in-process worker agent on a free port (serial execution)."""
    with DistWorker() as worker:
        yield worker


@pytest.fixture
def two_agents():
    with DistWorker() as first, DistWorker() as second:
        yield first, second


def _chunk_frames(agent: DistWorker, points, spec=None) -> list:
    """Drive one ``run_chunk`` by hand; every frame up to ``chunk_done``.

    ``spec`` is the wire runner spec (default: :func:`_runner`'s)."""
    sock = socket.create_connection(agent.address, timeout=60)
    try:
        send_frame(sock, {"type": "hello", "protocol": DIST_PROTOCOL_VERSION})
        assert recv_frame(sock)["type"] == "hello"
        send_frame(sock, {
            "type": "run_chunk", "id": 7,
            "spec": spec or runner_to_wire(_runner()),
            "points": [[index, point_to_wire(point)]
                       for index, point in enumerate(points)]})
        frames = [recv_frame(sock)]
        while frames[-1]["type"] != "chunk_done":
            frames.append(recv_frame(sock))
        return frames
    finally:
        sock.close()


def _free_port() -> int:
    """A port that was just free — nothing listens on it afterwards."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestFrameProtocol:
    def test_frames_round_trip_over_a_socket(self):
        left, right = socket.socketpair()
        try:
            frames = [{"type": "hello", "protocol": DIST_PROTOCOL_VERSION},
                      {"type": "record", "id": 3, "index": 7,
                       "snapshot": {"nested": [1, 2.5, "x"]}}]
            for frame in frames:
                send_frame(left, frame)
            for frame in frames:
                assert recv_frame(right) == frame
        finally:
            left.close()
            right.close()

    def test_clean_close_between_frames_raises_connection_error(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(ConnectionError):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_frame_announcement_is_refused_unread(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ConnectionError, match="refusing"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("payload", [b"not json", b"[1, 2]", b"{}"])
    def test_unparsable_or_typeless_frames_are_refused(self, payload):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ConnectionError):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_runner_wire_form_round_trips(self):
        runner = _runner(seed=3, queue_depth=8)
        wire = json.loads(json.dumps(runner_to_wire(runner)))
        assert runner_from_wire(wire).spec() == runner.spec()

    def test_driver_frames_keep_their_bytes(self):
        """The driver sends the bare ``hello`` and, as a chunk's spec,
        ``runner_to_wire`` of the runner it was handed."""
        runner = _runner(seed=5, queue_depth=6)
        points = _grid()[:2]
        snapshots = runner.run(points, workers=0, store=False).records
        listener = socket.create_server(("127.0.0.1", 0))
        received = []

        def scripted_agent():
            conn, _address = listener.accept()
            with conn:
                received.append(recv_frame(conn))                # hello
                send_frame(conn, {"type": "hello",
                                  "protocol": DIST_PROTOCOL_VERSION})
                chunk = recv_frame(conn)
                received.append(chunk)
                for index, _wire in chunk["points"]:
                    send_frame(conn, {
                        "type": "record", "id": chunk["id"], "index": index,
                        "snapshot": snapshots[index].snapshot(
                            include_timeline=True)})
                send_frame(conn, {"type": "chunk_done", "id": chunk["id"],
                                  "ok": len(points), "failed": 0})
                received.append(recv_frame(conn))                # shutdown
                send_frame(conn, {"type": "bye"})

        thread = threading.Thread(target=scripted_agent, daemon=True)
        thread.start()
        host, port = listener.getsockname()
        try:
            with DistExecutor([f"{host}:{port}"],
                              chunksize=len(points)) as executor:
                executor.run_points(runner, list(enumerate(points)))
        finally:
            listener.close()
            thread.join(10)
        assert not thread.is_alive()
        hello, chunk, shutdown = received
        assert hello == {"type": "hello", "protocol": DIST_PROTOCOL_VERSION}
        assert chunk == {"type": "run_chunk", "id": 0,
                         "spec": runner_to_wire(runner),
                         "points": [[index, point_to_wire(point)]
                                    for index, point in enumerate(points)]}
        assert shutdown == {"type": "shutdown"}


class TestHostParsing:
    def test_parse_hosts_accepts_comma_lists(self):
        assert parse_hosts("a:1, b:2,c:3") == [("a", 1), ("b", 2), ("c", 3)]

    @pytest.mark.parametrize("text", ["", ",,", "noport", ":5", "a:notint"])
    def test_parse_hosts_rejects_malformed_lists(self, text):
        with pytest.raises(ConfigurationError):
            parse_hosts(text)

    def test_resolve_hosts_falls_back_to_the_environment(self, monkeypatch):
        monkeypatch.delenv(HOSTS_ENV_VAR, raising=False)
        assert resolve_hosts(None) is None
        monkeypatch.setenv(HOSTS_ENV_VAR, "127.0.0.1:8501,127.0.0.1:8502")
        assert resolve_hosts(None) == [("127.0.0.1", 8501),
                                       ("127.0.0.1", 8502)]
        # An explicit argument wins over the environment.
        assert resolve_hosts("h:9") == [("h", 9)]


class TestExecutorValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            DistExecutor([])
        with pytest.raises(ConfigurationError):
            DistExecutor("h:1", chunksize=0)

    def test_workers_counts_one_slot_per_connected_agent(self,
                                                          two_agents):
        first, second = two_agents
        with DistExecutor([first.endpoint, second.endpoint]) as executor:
            executor.run_points(_runner(), list(enumerate(_grid())))
            assert executor.workers == 2

    def test_accepts_every_host_list_form(self):
        for hosts in ("a:1,b:2", ["a:1", "b:2"], [("a", 1), ("b", 2)]):
            executor = DistExecutor(hosts)
            assert executor.hosts == ["a:1", "b:2"]
            assert executor.workers == 2  # host count before any connection

    def test_empty_point_list_is_a_noop(self):
        executor = DistExecutor("127.0.0.1:1")
        assert executor.run_points(_runner(), []) == []
        assert executor.runs == 0

    def test_unreachable_fabric_raises_host_lost_error(self):
        executor = DistExecutor(f"127.0.0.1:{_free_port()}")
        with pytest.raises(HostLostError, match="no worker agent reachable"):
            executor.run_points(_runner(), list(enumerate(_grid())))

    @pytest.mark.parametrize("kind", ["closure", "uncatalogued"])
    def test_unservable_factory_fails_before_any_agent_is_dialled(self,
                                                                 kind):
        """The agents' whitelist check runs driver-side, at submit time:
        a closure cannot be named, and a module-level factory outside
        ``ALLOWED_FACTORY_MODULES`` would be refused by every agent."""
        def closure_factory():  # pragma: no cover - never called
            raise AssertionError("must not be invoked")

        factory = (closure_factory if kind == "closure"
                   else _uncatalogued_factory)
        # Nothing listens there: dialling first would raise HostLostError.
        executor = DistExecutor(f"127.0.0.1:{_free_port()}")
        with pytest.raises(ConfigurationError):
            executor.run_points(_runner(server_factory=factory),
                                list(enumerate(_grid())))
        assert executor.runs == 0


def _bounded(call, timeout_s: float = 10.0) -> dict:
    """Run ``call`` on a thread joined with a bound: an unbounded wait
    fails the test instead of hanging the suite.  Returns ``{"error":
    exc}`` or ``{"value": result}``."""
    outcome: dict = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # handed to the asserting thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"still blocked after {timeout_s} s"
    return outcome


class TestHandshakeBounds:
    """The hello exchange and the ``bye`` wait are bounded by
    ``CONNECT_TIMEOUT_S``; only chunk frames may take minutes."""

    def test_a_listener_that_never_accepts_is_a_lost_host(self,
                                                          monkeypatch):
        monkeypatch.setattr(executor_module, "CONNECT_TIMEOUT_S", 0.5)
        # The kernel queues the connection, so connect() succeeds, but
        # nothing ever answers the hello.
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()
        executor = DistExecutor(f"{host}:{port}")
        try:
            outcome = _bounded(lambda: executor.run_points(
                _runner(), list(enumerate(_grid()[:1]))))
        finally:
            listener.close()
        assert isinstance(outcome.get("error"), HostLostError)

    def test_close_does_not_wait_forever_for_bye(self, monkeypatch):
        monkeypatch.setattr(executor_module, "CONNECT_TIMEOUT_S", 0.5)
        listener = socket.create_server(("127.0.0.1", 0))
        released = threading.Event()
        shutdowns = []

        def silent_agent():
            conn, _address = listener.accept()
            with conn:
                recv_frame(conn)                                 # hello
                send_frame(conn, {"type": "hello",
                                  "protocol": DIST_PROTOCOL_VERSION})
                chunk = recv_frame(conn)
                for index, _wire in chunk["points"]:
                    send_frame(conn, {
                        "type": "point_error", "id": chunk["id"],
                        "index": index, "error": "scripted",
                        "traceback": ""})
                send_frame(conn, {"type": "chunk_done", "id": chunk["id"],
                                  "ok": 0, "failed": len(chunk["points"])})
                shutdowns.append(recv_frame(conn))    # never answered
                released.wait(30)

        thread = threading.Thread(target=silent_agent, daemon=True)
        thread.start()
        host, port = listener.getsockname()
        executor = DistExecutor(f"{host}:{port}")
        try:
            with pytest.raises(SweepPointError):
                executor.run_points(_runner(), list(enumerate(_grid()[:1])))
            assert "error" not in _bounded(executor.close)
        finally:
            released.set()
            listener.close()
            thread.join(10)
        assert shutdowns == [{"type": "shutdown"}]


class TestWorkerAgent:
    def test_hello_protocol_mismatch_is_refused(self, agent):
        sock = socket.create_connection(agent.address, timeout=5)
        try:
            send_frame(sock, {"type": "hello", "protocol": 999})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert "protocol" in reply["error"]
        finally:
            sock.close()

    def test_close_wakes_the_accept_thread_at_once(self):
        agent = DistWorker().start()
        accept_thread = agent._accept_thread
        time.sleep(0.1)  # let the thread block in accept()
        began = time.monotonic()
        agent.close()
        assert time.monotonic() - began < 1.0
        assert not accept_thread.is_alive()

    def test_hello_carries_only_the_protocol_and_shutdown_is_orderly(
            self, agent):
        sock = socket.create_connection(agent.address, timeout=5)
        try:
            send_frame(sock, {"type": "hello",
                              "protocol": DIST_PROTOCOL_VERSION})
            assert recv_frame(sock) == {"type": "hello",
                                        "protocol": DIST_PROTOCOL_VERSION}
            send_frame(sock, {"type": "shutdown"})
            assert recv_frame(sock) == {"type": "bye"}
        finally:
            sock.close()

    def test_unknown_frame_gets_an_error_and_the_connection_closes(
            self, agent):
        sock = socket.create_connection(agent.address, timeout=5)
        try:
            send_frame(sock, {"type": "hello",
                              "protocol": DIST_PROTOCOL_VERSION})
            recv_frame(sock)
            send_frame(sock, {"type": "ping"})
            assert recv_frame(sock) == {"type": "error",
                                        "error": "unknown frame 'ping'"}
            with pytest.raises(ConnectionError):
                recv_frame(sock)
        finally:
            sock.close()


class TestByteIdentity:
    def test_single_host_matches_serial(self, agent):
        points = _grid()
        serial = _serial_snapshot(points)
        with DistExecutor([agent.endpoint]) as executor:
            distributed = _runner().run(points, pool=executor,
                                        store=False).snapshot()
            assert distributed == serial
            assert executor.runs == 1
            assert executor.points_sent == len(points)
            assert executor.hosts_lost == 0

    def test_two_hosts_match_serial(self, two_agents):
        first, second = two_agents
        points = _grid()
        serial = _serial_snapshot(points)
        with DistExecutor([first.endpoint, second.endpoint],
                          chunksize=1) as executor:
            distributed = _runner().run(points, pool=executor,
                                        store=False).snapshot()
        assert distributed == serial
        # Four single-point chunks over two agents: both served some.
        assert first.chunks_served + second.chunks_served >= len(points)

    def test_stolen_chunks_stay_byte_identical(self, two_agents,
                                               monkeypatch):
        """One chunk, two hosts: the idle host steals the whole chunk and
        the duplicate deliveries are deduped by input index."""
        monkeypatch.setattr(executor_module, "DEFAULT_STEAL_DELAY_S", 0.0)
        first, second = two_agents
        points = _grid()
        serial = _serial_snapshot(points)
        with DistExecutor([first.endpoint, second.endpoint],
                          chunksize=len(points)) as executor:
            distributed = _runner().run(points, pool=executor,
                                        store=False).snapshot()
            assert distributed == serial
            assert executor.steals >= 1
            # Stealing re-ships points; dedup means the result never grows.
            assert executor.points_sent >= len(points)

    def test_on_record_streams_each_index_exactly_once(self, agent):
        points = _grid()
        seen = []
        lock = threading.Lock()

        def on_record(index, record):
            with lock:
                seen.append(index)

        with DistExecutor([agent.endpoint]) as executor:
            results = executor.run_points(
                _runner(), list(enumerate(points)), on_record=on_record)
        assert sorted(seen) == list(range(len(points)))
        assert [index for index, _ in results] == list(range(len(points)))


class TestStoreIntegration:
    def test_store_hits_never_reach_the_wire(self, agent, tmp_path):
        points = _grid()
        store = SweepStore(tmp_path / "store")
        with DistExecutor([agent.endpoint]) as executor:
            cold = _runner().run(points, pool=executor,
                                 store=store).snapshot()
            sent_after_cold = executor.points_sent
            assert sent_after_cold == len(points)

            warm_store = SweepStore(tmp_path / "store")
            warm = _runner().run(points, pool=executor,
                                 store=warm_store).snapshot()
            assert warm == cold
            assert warm_store.hits == len(points)
            assert warm_store.misses == 0
            # The warm run framed nothing onto the wire.
            assert executor.points_sent == sent_after_cold

    def test_streamed_records_are_committed_by_the_driver(self, agent,
                                                          tmp_path):
        points = _grid()
        store = SweepStore(tmp_path / "store")
        with DistExecutor([agent.endpoint]) as executor:
            _runner().run(points, pool=executor, store=store)
        assert store.puts == len(points)
        assert store.stats().entries == len(points)


class TestFailureProtocol:
    def test_remote_point_failure_keeps_the_labelled_protocol(self, agent):
        good = SweepPoint(model=RESNET18, loader="coordl",
                          dataset="openimages", cache_fraction=0.5)
        bad = SweepPoint(model=ALEXNET, loader="hp-baseline", num_jobs=64,
                         label="overcommitted-hp-point")
        with DistExecutor([agent.endpoint]) as executor:
            with pytest.raises(SweepPointError) as excinfo:
                _runner().run([good, bad], pool=executor, store=False)
        error = excinfo.value
        assert error.point_label == "overcommitted-hp-point"
        assert "remote point failure" in str(error.__cause__)

    def test_surviving_points_are_still_streamed(self, agent):
        good = SweepPoint(model=RESNET18, loader="coordl",
                          dataset="openimages", cache_fraction=0.5)
        bad = SweepPoint(model=ALEXNET, loader="hp-baseline", num_jobs=64,
                         label="bad-point")
        delivered = []
        with DistExecutor([agent.endpoint], chunksize=1) as executor:
            with pytest.raises(SweepPointError):
                executor.run_points(
                    _runner(), [(0, good), (1, bad)],
                    on_record=lambda i, r: delivered.append(i))
        assert delivered == [0]

    def test_each_failing_point_reports_its_own_error(self, agent):
        """A chunk of two points failing differently: each index gets its
        own error text and a traceback, then the chunk barrier."""
        points = [SweepPoint(model=ALEXNET, loader="hp-baseline", num_jobs=n,
                             label=f"overcommitted-{n}") for n in (64, 48)]
        frames = _chunk_frames(agent, points)
        errors = frames[:-1]
        assert [frame["type"] for frame in errors] == ["point_error"] * 2
        assert [frame["index"] for frame in errors] == [0, 1]
        assert "64 jobs" in errors[0]["error"]
        assert "48 jobs" in errors[1]["error"]
        assert all(frame["traceback"] for frame in errors)
        assert frames[-1] == {"type": "chunk_done", "id": 7, "ok": 0,
                              "failed": 2}

    @pytest.mark.parametrize("field, value", [("fast_path", False),
                                              ("sead", 3)])
    def test_unknown_runner_spec_field_fails_the_chunk_by_name(self, agent,
                                                               field, value):
        """A stale or misspelt spec field is refused, not defaulted."""
        spec = dict(runner_to_wire(_runner()), **{field: value})
        frames = _chunk_frames(agent, _grid()[:2], spec=spec)
        errors = [frame for frame in frames if frame["type"] == "point_error"]
        assert [frame["index"] for frame in errors] == [0, 1]
        for frame in errors:
            assert f"unknown runner spec fields ['{field}']" in frame["error"]
        assert frames[-1] == {"type": "chunk_done", "id": 7, "ok": 0,
                              "failed": 2}


class TestFaultPlanHostKills:
    def test_plan_round_trips_host_kills(self):
        plan = FaultPlan(host_kills=(1, 3))
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_plan_rejects_non_positive_thresholds(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(host_kills=(0,))

    def test_injector_counts_delivered_kills(self):
        injector = FaultInjector(FaultPlan(host_kills=(1,)))
        schedule = injector.host_kill_schedule()
        assert schedule.due(1)
        assert not schedule.due(2)
        injector.note_host_kill()
        assert injector.counters.host_kills == 1


class TestHostDeath:
    def test_agent_killed_mid_sweep_is_byte_identical(self):
        """A real agent subprocess SIGKILLed after the first delivered
        record: the dead host's chunk is reassigned and the result is
        byte-identical — host death costs time, never bytes."""
        points = _grid()
        serial = _serial_snapshot(points)
        injector = install_plan(FaultPlan(host_kills=(1,)))
        with LocalWorkerFleet(2) as fleet:
            with DistExecutor(fleet.endpoints, chunksize=1,
                              kill_hook=fleet.kill_one) as executor:
                distributed = _runner().run(points, pool=executor,
                                            store=False).snapshot()
                assert distributed == serial
                assert executor.hosts_lost == 1
                assert injector.counters.host_kills == 1
                assert len(fleet.alive) == 1

    def test_agent_killed_after_its_work_drained_is_counted_by_run_end(self):
        """One point, two agents, a kill after the only record: no chunk
        is left to fail over, yet the run reports the death and stops
        offering the dead agent's slot."""
        points = _grid()[:1]
        injector = install_plan(FaultPlan(host_kills=(1,)))
        with LocalWorkerFleet(2) as fleet:
            with DistExecutor(fleet.endpoints, chunksize=1,
                              kill_hook=fleet.kill_one) as executor:
                distributed = _runner().run(points, pool=executor,
                                            store=False).snapshot()
                assert distributed == _serial_snapshot(points)
                assert injector.counters.host_kills == 1
                assert executor.hosts_lost == 1
                assert executor.workers == 1
                assert executor.reassignments == 0

    def test_a_host_lost_after_its_chunk_drained_reruns_nothing(self):
        """A scripted agent streams the chunk's only record, then closes
        without ``chunk_done``: every record arrived, so the chunk is done
        and nothing is re-run."""
        points = _grid()[:1]
        serial = _runner().run(points, workers=0, store=False)
        snapshot = serial.records[0].snapshot(include_timeline=True)
        listener = socket.create_server(("127.0.0.1", 0))

        def scripted_agent():
            conn, _address = listener.accept()
            with conn:
                recv_frame(conn)                                # hello
                send_frame(conn, {"type": "hello",
                                  "protocol": DIST_PROTOCOL_VERSION})
                chunk = recv_frame(conn)
                for index, _wire in chunk["points"]:
                    send_frame(conn, {"type": "record", "id": chunk["id"],
                                      "index": index, "snapshot": snapshot})

        thread = threading.Thread(target=scripted_agent, daemon=True)
        thread.start()
        host, port = listener.getsockname()
        try:
            with DistExecutor([f"{host}:{port}"], chunksize=1) as executor:
                distributed = _runner().run(points, pool=executor,
                                            store=False).snapshot()
                assert distributed == serial.snapshot()
                assert executor.hosts_lost == 1
                assert executor.reassignments == 0
                assert executor.rerun_points == 0
        finally:
            listener.close()
            thread.join(10)
        assert not thread.is_alive()


class TestServeIntegration:
    def test_daemon_rejects_hosts_plus_workers(self):
        from repro.serve import ServeDaemon
        with pytest.raises(ConfigurationError, match="not both"):
            ServeDaemon(port=0, hosts=["127.0.0.1:1"], workers=2)

    def test_daemon_serves_byte_identical_over_the_fabric(self, agent,
                                                          tmp_path):
        from repro.serve import ServeClient, ServeDaemon
        points = _grid()
        serial = _runner().run(points, store=False)
        with ServeDaemon(port=0, store=tmp_path / "store",
                         hosts=[agent.endpoint]) as daemon:
            client = ServeClient(daemon.url)
            health = client.health()
            assert health["status"] == "ok"
            served = client.whatif(_runner(), points)
            assert [r.status for r in served] == ["ok"] * len(points)
            for got, expected in zip(served, serial.records):
                assert (got.record.snapshot(include_timeline=True)
                        == expected.snapshot(include_timeline=True))
        assert agent.points_served == len(points)
