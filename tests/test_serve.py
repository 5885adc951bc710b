"""Tests for the what-if sweep service (``repro.serve``).

The concurrency + fault harness this PR is pinned by:

* **wire protocol** — runner/point/record round-trips, unknown fields and
  non-catalog factories rejected (the RCE-by-configuration guard);
* **byte identity through the daemon** — served records rehydrate
  byte-identical to a serial :meth:`~repro.sim.sweep.SweepRunner.run`,
  and to the committed golden snapshots, cold and warm;
* **coalescing under concurrency** — N >= 8 overlapping concurrent HTTP
  requests: every response byte-identical to serial, each unique point
  simulated **at most once** (fenced by instrumentation, not timing);
* **fault injection** — a crashed simulation degrades to recomputation
  (never wrong bytes, never a hung request), a deterministically failing
  point fails alone, a truncated store entry mid-request degrades to a
  miss and is repaired;
* **deadlines** — a request over its deadline gets its completed points
  plus explicit ``timed_out`` markers, and a slow request never blocks an
  unrelated fast one (no head-of-line blocking across batches);
* **batcher properties** (Hypothesis) — any interleaving of overlapping
  requests coalesces to exactly-once simulation per unique point, with
  every request answered in its own input order.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.compute.model_zoo import ALEXNET, RESNET18
from repro.exceptions import ConfigurationError
from repro.pipeline.stats import EpochStats, TrainingRunStats
from repro.serve import (
    CoalescingBatcher,
    ServeClient,
    ServeDaemon,
    ServeError,
    point_from_wire,
    point_to_wire,
    record_from_wire,
    record_to_wire,
    runner_from_wire,
    runner_to_wire,
)
from repro.serve import protocol as serve_protocol
from repro.sim.harness import GOLDEN_GRIDS, load_golden, snapshot_diff
from repro.sim.sweep import SweepPoint, SweepRecord, SweepRunner
from repro.store import SweepStore, store_key

#: Runner-spec fields no version of the protocol accepts: a misspelling,
#: and the path selector protocol version 2 carried.
UNKNOWN_RUNNER_FIELDS = [("fast_path", False), ("sead", 3)]

SCALE = 1 / 500.0

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def _runner(**overrides) -> SweepRunner:
    settings_ = dict(scale=SCALE, seed=0)
    settings_.update(overrides)
    return SweepRunner(settings_.pop("server_factory", config_ssd_v100),
                       **settings_)


def _points():
    return [
        SweepPoint(model=RESNET18, loader="coordl", dataset="openimages",
                   cache_fraction=0.5),
        SweepPoint(model=RESNET18, loader="dali-shuffle", dataset="openimages",
                   cache_fraction=0.5),
    ]


@pytest.fixture
def daemon(tmp_path):
    """In-process daemon on a free port, fresh store, in-process simulation."""
    with ServeDaemon(port=0, store=tmp_path / "store") as running:
        yield running


@pytest.fixture
def client(daemon):
    return ServeClient(daemon.url)


def _count_simulations(monkeypatch):
    """Fence off simulation: every ``_run_point`` call appends its point."""
    simulated = []
    original = SweepRunner._run_point
    lock = threading.Lock()

    def counting(self, point):
        with lock:
            simulated.append(point)
        return original(self, point)

    monkeypatch.setattr(SweepRunner, "_run_point", counting)
    return simulated


class TestProtocol:
    def test_runner_round_trip(self):
        runner = _runner(seed=3, queue_depth=8)
        rebuilt = runner_from_wire(json.loads(json.dumps(
            runner_to_wire(runner))))
        assert rebuilt.spec() == runner.spec()

    def test_point_round_trip(self):
        point = _points()[0]
        rebuilt = point_from_wire(json.loads(json.dumps(point_to_wire(point))))
        assert rebuilt == point

    def test_unknown_point_field_rejected(self):
        wire = point_to_wire(_points()[0])
        wire["rm_rf"] = "/"
        with pytest.raises(ConfigurationError, match="unknown point fields"):
            point_from_wire(wire)

    @pytest.mark.parametrize("field, value", UNKNOWN_RUNNER_FIELDS)
    def test_unknown_runner_field_rejected(self, field, value):
        """An unknown field fails by name instead of falling back to a
        default (a misspelt ``seed`` used to run at seed 0)."""
        wire = {"server_factory": "repro.cluster.configs:config_ssd_v100",
                field: value}
        with pytest.raises(ConfigurationError,
                           match=rf"unknown runner spec fields \['{field}'\]"):
            runner_from_wire(wire)

    def test_runner_wire_carries_exactly_the_accepted_fields(self):
        assert set(runner_to_wire(_runner())) == serve_protocol._RUNNER_FIELDS

    def test_non_catalog_factory_rejected(self):
        wire = runner_to_wire(_runner())
        wire["server_factory"] = "os:system"
        with pytest.raises(ConfigurationError, match="not servable"):
            runner_from_wire(wire)

    def test_non_callable_factory_rejected(self):
        wire = runner_to_wire(_runner())
        wire["server_factory"] = "repro.cluster.configs:_CONFIGS"
        with pytest.raises(ConfigurationError, match="callable"):
            runner_from_wire(wire)

    def test_record_round_trip_is_exact(self):
        record = _runner().run(_points()[:1]).records[0]
        rebuilt = record_from_wire(json.loads(json.dumps(
            record_to_wire(record))))
        assert (rebuilt.snapshot(include_timeline=True)
                == record.snapshot(include_timeline=True))


class TestEndpoints:
    def test_health(self, client, daemon):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["store"] == str(daemon.store.directory)
        assert payload["store_backend"] == "json"

    def test_sqlite_backed_daemon_serves_warm_hits(self, tmp_path,
                                                   monkeypatch):
        """A sqlite:// store URI works end to end through the daemon."""
        uri = f"sqlite://{tmp_path / 'store.db'}"
        with ServeDaemon(port=0, store=uri) as running:
            client = ServeClient(running.url)
            assert client.health()["store_backend"] == "sqlite"
            runner, points = _runner(), _points()
            served = client.whatif(runner, points)
            serial = _runner().run(points)
            for got, expected in zip(served, serial.records):
                assert (got.record.snapshot(include_timeline=True)
                        == expected.snapshot(include_timeline=True))
            simulated = _count_simulations(monkeypatch)
            warm = client.whatif(runner, points)
            assert [r.status for r in warm] == ["ok", "ok"]
            assert simulated == []

    def test_client_refuses_a_daemon_speaking_another_protocol(
            self, client, monkeypatch):
        from repro.serve import server as server_module
        monkeypatch.setattr(server_module, "PROTOCOL_VERSION", 999)
        with pytest.raises(ConfigurationError, match="protocol 999"):
            client.health()
        with pytest.raises(ConfigurationError, match="protocol 999"):
            client.whatif(_runner(), _points()[:1])
        assert client.retries_used == 0

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_bad_json_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/whatif", {"runner": "not-a-dict"})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("field, value", UNKNOWN_RUNNER_FIELDS)
    def test_unknown_runner_field_is_400(self, client, field, value):
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/whatif", {
                "runner": dict(runner_to_wire(_runner()), **{field: value}),
                "points": [point_to_wire(point) for point in _points()]})
        assert excinfo.value.status == 400
        assert f"unknown runner spec fields ['{field}']" in str(excinfo.value)

    def test_experiment_endpoint(self, client):
        payload = client.experiment("fig8")
        assert payload["id"] == "fig8"
        assert payload["rows"]
        assert "Fig. 8" in payload["table"]

    def test_report_endpoint_with_only_filter(self, client):
        markdown = client.report(scale=SCALE, only=["fig3"])
        assert "Fig. 3" in markdown
        assert "Fig. 4" not in markdown

    def test_report_unknown_id_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.report(only=["nope"])
        assert excinfo.value.status == 400

    def test_stats_counts_requests(self, client):
        client.health()
        payload = client.stats()
        assert payload["requests"] >= 1
        assert payload["latency"]["count"] >= 1


class TestByteIdentity:
    def test_served_equals_serial(self, client):
        runner, points = _runner(), _points()
        served = client.whatif(runner, points)
        serial = _runner().run(points)
        assert [r.status for r in served] == ["ok", "ok"]
        for got, expected in zip(served, serial.records):
            assert (got.record.snapshot(include_timeline=True)
                    == expected.snapshot(include_timeline=True))

    def test_warm_pass_simulates_nothing(self, client, monkeypatch):
        runner, points = _runner(), _points()
        client.whatif(runner, points)
        simulated = _count_simulations(monkeypatch)
        warm = client.whatif(runner, points)
        assert [r.status for r in warm] == ["ok", "ok"]
        assert simulated == []

    @pytest.mark.parametrize("name", ["fig3_small", "fig9d_small"])
    def test_golden_grid_over_http(self, client, name):
        grid = GOLDEN_GRIDS[name]
        for _pass in ("cold", "warm"):
            served = client.whatif(grid.build_runner(), grid.points())
            snapshot = {"records": [r.record.snapshot() for r in served]}
            assert snapshot_diff(load_golden(name, GOLDEN_DIR), snapshot) == []


class TestConcurrency:
    def test_overlapping_requests_coalesce_and_match_serial(
            self, client, monkeypatch):
        """N=9 concurrent overlapping requests: byte-identical to serial,
        each unique point simulated at most once."""
        simulated = _count_simulations(monkeypatch)
        fractions = (0.35, 0.5, 0.8)
        universe = [SweepPoint(model=model, loader="coordl",
                               dataset="openimages", cache_fraction=fraction)
                    for model in (RESNET18, ALEXNET)
                    for fraction in fractions]
        # Nine requests, each an overlapping window of the universe.
        requests = [[universe[i % len(universe)],
                     universe[(i + 1) % len(universe)],
                     universe[(i + 2) % len(universe)]]
                    for i in range(9)]
        responses = [None] * len(requests)
        errors = []

        def ask(slot, points):
            try:
                responses[slot] = client.whatif(_runner(), points)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=ask, args=(slot, points))
                   for slot, points in enumerate(requests)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not errors
        served_simulated = list(simulated)  # before the serial reference run
        serial = _runner().run(universe)
        expected = {
            store_key(_runner().point_spec(point)):
                record.snapshot(include_timeline=True)
            for point, record in zip(universe, serial.records)
        }
        for points, response in zip(requests, responses):
            assert response is not None
            assert [r.status for r in response] == ["ok"] * len(points)
            for point, result in zip(points, response):
                key = store_key(_runner().point_spec(point))
                assert (result.record.snapshot(include_timeline=True)
                        == expected[key])
        # At-most-once: six unique points; dedup + store mean nothing is
        # simulated twice no matter how the nine requests interleaved.
        simulated_keys = [store_key(_runner().point_spec(p))
                          for p in served_simulated]
        assert len(simulated_keys) == len(set(simulated_keys))
        assert set(simulated_keys) <= set(expected)


class TestFaultInjection:
    def test_crashed_simulation_degrades_to_recomputation(
            self, client, monkeypatch):
        """A transient worker crash mid-request: the retry recomputes, the
        response is still byte-identical to serial."""
        crashed = []
        original = SweepRunner._run_point

        def crash_once(self, point):
            if not crashed:
                crashed.append(point)
                raise OSError("simulated worker crash")
            return original(self, point)

        monkeypatch.setattr(SweepRunner, "_run_point", crash_once)
        points = _points()
        served = client.whatif(_runner(), points)
        assert crashed, "the fault was never injected"
        assert [r.status for r in served] == ["ok", "ok"]
        monkeypatch.setattr(SweepRunner, "_run_point", original)
        serial = _runner().run(points)
        for got, expected in zip(served, serial.records):
            assert (got.record.snapshot(include_timeline=True)
                    == expected.snapshot(include_timeline=True))

    def test_deterministic_failure_fails_alone(self, client, monkeypatch):
        """A point that always fails yields status=error for itself only —
        no hung request, no poisoned neighbours."""
        original = SweepRunner._run_point
        poison, healthy = _points()

        def failing(self, point):
            if point == poison:
                raise OSError("this point always crashes")
            return original(self, point)

        monkeypatch.setattr(SweepRunner, "_run_point", failing)
        served = client.whatif(_runner(), [poison, healthy])
        assert served[0].status == "error"
        assert "always crashes" in served[0].error
        assert served[1].status == "ok"
        monkeypatch.setattr(SweepRunner, "_run_point", original)
        expected = _runner().run([healthy]).records[0]
        assert (served[1].record.snapshot(include_timeline=True)
                == expected.snapshot(include_timeline=True))

    def test_nan_cache_budget_is_an_error_for_its_point(self, client):
        """JSON carries ``NaN``; such a budget fails its own point with the
        server's range check instead of returning a fully cached record."""
        wire = {"model": "resnet18", "loader": "dali-shuffle",
                "cache_fraction": float("nan"), "num_epochs": 2}
        served = client.whatif(_runner(), [point_from_wire(wire),
                                           _points()[0]])
        assert served[0].status == "error" and served[0].record is None
        assert "cache budget" in served[0].error
        assert served[1].status == "ok"

    def test_truncated_store_entry_degrades_to_recomputation(
            self, client, daemon, monkeypatch):
        """Corrupting a stored entry between requests: the daemon re-simulates
        and repairs — never serves wrong bytes, never hangs."""
        points = _points()
        cold = client.whatif(_runner(), points)
        entries = sorted(daemon.store.directory.glob("??/*.json"))
        assert len(entries) == len(points)
        entries[0].write_text(entries[0].read_text()[: 40])  # truncate
        simulated = _count_simulations(monkeypatch)
        warm = client.whatif(_runner(), points)
        assert [r.status for r in warm] == ["ok", "ok"]
        assert len(simulated) == 1  # only the corrupted entry recomputed
        for got, expected in zip(warm, cold):
            assert (got.record.snapshot(include_timeline=True)
                    == expected.record.snapshot(include_timeline=True))
        # ... and the store was repaired: a third pass is pure hits.
        del simulated[:]
        client.whatif(_runner(), points)
        assert simulated == []


class TestDeadlines:
    def test_deadline_returns_partial_results_with_marker(
            self, client, monkeypatch):
        """A request over its deadline gets completed points plus explicit
        timed_out markers; the simulation still lands in the store."""
        original = SweepRunner._run_point
        fast, slow = _points()

        def sleepy(self, point):
            if point == slow:
                time.sleep(3.0)
            return original(self, point)

        monkeypatch.setattr(SweepRunner, "_run_point", sleepy)
        served = client.whatif(_runner(), [fast, slow], deadline_s=1.0)
        assert served[0].status == "ok"
        assert served[1].status == "timed_out"
        assert served[1].record is None
        # The slow simulation keeps running into the store: asking again
        # (with a generous deadline) is answered without re-simulating it.
        monkeypatch.setattr(SweepRunner, "_run_point", original)
        again = client.whatif(_runner(), [fast, slow], deadline_s=30.0)
        assert [r.status for r in again] == ["ok", "ok"]

    def test_slow_request_does_not_block_fast_one(self, client, monkeypatch):
        """No head-of-line blocking: a fast request submitted while a slow
        batch is mid-flight completes well before the slow one."""
        original = SweepRunner._run_point
        slow_point = SweepPoint(model=RESNET18, loader="coordl",
                                dataset="openimages", cache_fraction=0.25)
        fast_point = SweepPoint(model=RESNET18, loader="coordl",
                                dataset="openimages", cache_fraction=0.75)

        def sleepy(self, point):
            if point == slow_point:
                time.sleep(4.0)
            return original(self, point)

        monkeypatch.setattr(SweepRunner, "_run_point", sleepy)
        slow_done = threading.Event()

        def ask_slow():
            client.whatif(_runner(), [slow_point])
            slow_done.set()

        slow_thread = threading.Thread(target=ask_slow)
        slow_thread.start()
        time.sleep(0.5)  # let the slow batch dispatch and start simulating
        start = time.monotonic()
        fast = client.whatif(_runner(seed=1), [fast_point])
        fast_elapsed = time.monotonic() - start
        assert [r.status for r in fast] == ["ok"]
        assert not slow_done.is_set(), "slow batch finished too early to prove anything"
        assert fast_elapsed < 2.0
        slow_thread.join(30)


# -- Hypothesis: batcher coalescing properties --------------------------------

#: Small universe of distinct points the property test draws requests from.
_UNIVERSE = [
    SweepPoint(model=model, loader="coordl", dataset="openimages",
               cache_fraction=fraction)
    for model in (RESNET18, ALEXNET)
    for fraction in (0.3, 0.6, 0.9)
]


def _stub_record(point: SweepPoint) -> SweepRecord:
    """Cheap, deterministic, store-round-trippable record for one point."""
    run = TrainingRunStats()
    run.add(EpochStats(
        epoch_time_s=1.0 + (_UNIVERSE.index(point) if point in _UNIVERSE
                            else 0.0),
        gpu_time_s=0.25, prep_limited_time_s=0.5, samples=100))
    return SweepRecord(point=point, dataset_name=point.dataset,
                       loader_name=point.loader, run=run)


@settings(max_examples=25, deadline=None)
@given(requests=st.lists(
    st.lists(st.integers(min_value=0, max_value=len(_UNIVERSE) - 1),
             min_size=1, max_size=4),
    min_size=1, max_size=6))
def test_batcher_coalesces_any_interleaving(requests, tmp_path_factory):
    """Any pattern of overlapping requests: the union is simulated exactly
    once per unique point, and every request gets exactly its own points
    back, resolved, in input order."""
    simulated = []
    lock = threading.Lock()
    original = SweepRunner._run_point

    def stub(self, point):
        with lock:
            simulated.append(point)
        return _stub_record(point)

    store = SweepStore(tmp_path_factory.mktemp("batcher-prop") / "store")
    SweepRunner._run_point = stub
    try:
        with CoalescingBatcher(store=store, window_s=0.005) as batcher:
            runner = _runner()
            tickets = []
            threads = []

            def submit(points):
                tickets.append((points, batcher.submit(runner, points)))

            for indices in requests:
                points = [_UNIVERSE[i] for i in indices]
                thread = threading.Thread(target=submit, args=(points,))
                threads.append(thread)
                thread.start()
            for thread in threads:
                thread.join(30)
            outcomes = [(points, ticket.wait(60.0))
                        for points, ticket in tickets]
    finally:
        SweepRunner._run_point = original

    # Every request: exactly its own points, in input order, all resolved.
    assert len(outcomes) == len(requests)
    for points, results in outcomes:
        assert [o.point for o in results] == points
        assert all(o.status == "ok" for o in results)
        for outcome in results:
            assert (outcome.record.snapshot(include_timeline=True)
                    == _stub_record(outcome.point).snapshot(
                        include_timeline=True))
    # Exactly-once simulation of the union: in-flight dedup merges racing
    # requests, the store answers everything after.
    requested = {store_key(runner.point_spec(_UNIVERSE[i]))
                 for indices in requests for i in indices}
    simulated_keys = [store_key(runner.point_spec(p)) for p in simulated]
    assert len(simulated_keys) == len(set(simulated_keys))
    assert set(simulated_keys) == requested
