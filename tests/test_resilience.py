"""Chaos suite for the runtime resilience layer (``repro.resilience``).

What this file pins, end to end:

* **fault plans are declarative and reproducible** — JSON round-trips,
  environment activation (inline or file), strict validation, and the
  injector's counter-machine semantics (per-op store fault counts,
  once-per-threshold kill schedules, exact-match batch stalls);
* **retry discipline** — transient errors are retried under a
  deterministic backoff policy, non-transient errors propagate from the
  first attempt, exhaustion re-raises the last transient error;
* **supervised pools survive murder** — a SIGKILLed worker mid-grid is
  detected, the pool rebuilt, lost chunks re-run *byte-identically*
  (per-point seeding makes retry exact), and an exhausted respawn budget
  escalates to the ordinary labelled ``SweepPointError`` protocol;
* **golden grids are chaos-proof** — under a plan injecting worker kills
  and transient store faults, committed golden snapshots reproduce
  bit-for-bit at ``workers=0/1/4`` on both store backends, with the
  store's own read/write trace still satisfying the write-once contract
  (``verify_store_trace``), including Hypothesis-generated fault
  schedules;
* **the store degrades, never corrupts** — permanent put failures step
  the ladder to ``read-only`` (skipped puts are counted), exhausted get
  retries step to ``no-store`` (compute-through), and degraded runs
  still produce byte-identical results;
* **the serve layer sheds and drains** — over-capacity sweep POSTs get
  ``503`` + ``Retry-After`` instead of queueing, a draining daemon
  rejects new sweeps while finishing admitted ones, ``/v1/health``
  reports per-subsystem degradation, and the client transparently
  retries refused/reset connections and 503 rejections.

Worker kills are delivered parent-side, so they need a live pool: on
machines whose core count clamps every sweep to serial, the kill tests
drive an explicit :class:`~repro.store.PersistentPool` (the pool path
bypasses the serial fallback), which is also what ``make chaos-check``
does — the byte-identity contract is the same either way.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import socket
import struct
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import RESNET18
from repro.exceptions import (
    ConfigurationError,
    PermanentFaultError,
    SweepPointError,
    TransientFaultError,
)
from repro.resilience import (
    FAULT_PLAN_ENV_VAR,
    FaultInjector,
    FaultPlan,
    KillSchedule,
    RetryPolicy,
    ServeStall,
    StoreFault,
    active_injector,
    call_with_retry,
    clear_installed,
    install_plan,
    is_transient,
)
from repro.serve import DEFAULT_MAX_ATTEMPTS, ServeClient, ServeDaemon, ServeError
from repro.sim.harness import GOLDEN_GRIDS, load_golden, snapshot_diff
from repro.sim.sweep import SweepPoint, SweepRunner, clamp_workers
from repro.store import PersistentPool, SweepStore, verify_store_trace
from repro.store import pool as pool_module
from repro.store import store as store_module

SCALE = 1 / 500.0

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def _runner() -> SweepRunner:
    return SweepRunner(config_ssd_v100, scale=SCALE, seed=0)


def _grid(n_fractions: int = 4):
    fractions = tuple(0.2 + 0.6 * i / max(1, n_fractions - 1)
                      for i in range(n_fractions))
    return SweepRunner.grid(models=[RESNET18],
                            loaders=["coordl", "dali-shuffle"],
                            cache_fractions=fractions, dataset="openimages")


def _point(fraction: float = 0.5) -> SweepPoint:
    return SweepPoint(model=RESNET18, loader="coordl", dataset="openimages",
                      cache_fraction=fraction)


# -- fault plans and the injector ---------------------------------------------


class TestFaultPlan:
    def test_round_trips_through_dict_and_json(self):
        plan = FaultPlan(
            seed=7, worker_kills=(2, 5),
            store_faults=(StoreFault(op="get", at=3, kind="transient",
                                     times=2),
                          StoreFault(op="put", at=1, kind="permanent")),
            serve_stalls=(ServeStall(at=2, stall_s=0.25),))
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan

    def test_env_activation_inline_and_file(self, monkeypatch, tmp_path):
        plan = FaultPlan(worker_kills=(3,),
                         store_faults=(StoreFault(op="put", at=2),))
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, json.dumps(plan.to_dict()))
        clear_installed()  # forget the cached (empty) env resolution
        injector = active_injector()
        assert injector is not None and injector.plan == plan

        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, str(plan_file))
        clear_installed()
        injector = active_injector()
        assert injector is not None and injector.plan == plan

    def test_unset_env_means_no_injector(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV_VAR, raising=False)
        clear_installed()
        assert active_injector() is None

    def test_installed_plan_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR,
                           json.dumps(FaultPlan(seed=1).to_dict()))
        clear_installed()
        installed = install_plan(FaultPlan(seed=99))
        assert active_injector() is installed
        assert active_injector().plan.seed == 99

    @pytest.mark.parametrize("payload", [
        {"store_faults": [{"op": "frobnicate"}]},
        {"store_faults": [{"kind": "sometimes"}]},
        {"store_faults": [{"at": 0}]},
        {"store_faults": [{"times": 0}]},
        {"worker_kills": [0]},
        {"serve_stalls": [{"at": 0}]},
        {"serve_stalls": [{"stall_s": -1}]},
        {"unknown_field": 1},
        [],
    ])
    def test_invalid_plans_are_rejected(self, payload):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict(payload)

    def test_unreadable_plan_file_fails_loudly(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, str(tmp_path / "missing.json"))
        with pytest.raises(ConfigurationError):
            FaultPlan.from_env()


class TestInjector:
    def test_kill_schedule_fires_once_per_threshold(self):
        schedule = KillSchedule((2, 2, 5))
        assert not schedule.due(1)
        assert schedule.due(2)       # first threshold at 2
        assert schedule.due(2)       # second threshold at 2
        assert not schedule.due(3)
        assert schedule.due(6)       # crossing 5 late still fires
        assert not schedule.due(100)  # schedule exhausted

    def test_store_faults_fire_by_per_op_call_count(self):
        injector = FaultInjector(FaultPlan(store_faults=(
            StoreFault(op="get", at=2, kind="transient", times=2),
            StoreFault(op="put", at=1, kind="permanent"))))
        injector.store_fault("get")  # get #1: clean
        with pytest.raises(TransientFaultError):
            injector.store_fault("get")  # get #2
        with pytest.raises(TransientFaultError):
            injector.store_fault("get")  # get #3 (times=2)
        injector.store_fault("get")  # get #4: clean again
        with pytest.raises(PermanentFaultError):
            injector.store_fault("put")  # put #1
        injector.store_fault("put")  # put #2: clean
        counters = injector.snapshot()
        assert counters["store_faults"] == 3
        assert counters["transient_store_faults"] == 2
        assert counters["permanent_store_faults"] == 1

    def test_any_op_faults_share_one_counter_per_op(self):
        injector = FaultInjector(FaultPlan(store_faults=(
            StoreFault(op="any", at=1),)))
        with pytest.raises(TransientFaultError):
            injector.store_fault("get")
        with pytest.raises(TransientFaultError):
            injector.store_fault("put")  # put count is independent of get's

    def test_batch_stalls_match_exact_batch_numbers(self):
        injector = FaultInjector(FaultPlan(serve_stalls=(
            ServeStall(at=2, stall_s=0.125),)))
        assert injector.batch_stall() == 0.0
        assert injector.batch_stall() == 0.125
        assert injector.batch_stall() == 0.0
        assert injector.snapshot()["batch_stalls"] == 1


# -- retry policy -------------------------------------------------------------


class TestRetry:
    def test_transient_errors_are_absorbed(self):
        attempts = []
        retried = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientFaultError("blip")
            return "done"

        result = call_with_retry(flaky, policy=RetryPolicy(max_attempts=4),
                                 on_retry=retried.append,
                                 sleep=lambda _s: None)
        assert result == "done"
        assert len(attempts) == 3 and len(retried) == 2

    def test_non_transient_errors_propagate_immediately(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise ValueError("real bug")

        with pytest.raises(ValueError):
            call_with_retry(broken, sleep=lambda _s: None)
        assert len(attempts) == 1

    def test_exhaustion_reraises_the_last_transient_error(self):
        attempts = []

        def always():
            attempts.append(1)
            raise TransientFaultError(f"blip #{len(attempts)}")

        with pytest.raises(TransientFaultError, match="#3"):
            call_with_retry(always, policy=RetryPolicy(max_attempts=3),
                            sleep=lambda _s: None)
        assert len(attempts) == 3

    def test_no_retry_policy_is_single_attempt(self):
        attempts = []

        def always():
            attempts.append(1)
            raise TransientFaultError("blip")

        with pytest.raises(TransientFaultError):
            call_with_retry(always, policy=RetryPolicy(max_attempts=1),
                            sleep=lambda _s: None)
        assert len(attempts) == 1

    def test_backoff_delays_are_deterministic_and_capped(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=0.01, multiplier=3.0,
                             max_backoff_s=0.05)
        assert list(policy.delays()) == [0.01, 0.03, 0.05, 0.05]

    def test_transient_classifier(self):
        import sqlite3
        assert is_transient(TransientFaultError("x"))
        assert is_transient(sqlite3.OperationalError("database is locked"))
        assert is_transient(OSError(11, "try again"))  # EAGAIN
        assert not is_transient(sqlite3.OperationalError("no such table"))
        assert not is_transient(PermanentFaultError("x"))
        assert not is_transient(ValueError("x"))


# -- supervised pool recovery -------------------------------------------------


def _torn_result_server(**_kwargs):
    """A server factory whose pool worker dies halfway through sending a
    large result: it writes a 1 MiB message header and 64 bytes of body to
    the executor's result pipe, then SIGKILLs itself."""
    frame = sys._getframe()
    while frame.f_code.co_name != "_process_worker":
        frame = frame.f_back
    writer = frame.f_locals["result_queue"]._writer
    os.write(writer.fileno(), struct.pack("!i", 1 << 20) + bytes(64))
    os.kill(os.getpid(), signal.SIGKILL)


def _executor_threads() -> set:
    return {thread for thread in threading.enumerate()
            if type(thread).__name__ == "_ExecutorManagerThread"}


class TestSupervisedPoolRecovery:
    def test_killed_worker_is_respawned_and_results_stay_exact(self):
        serial = _runner().run(_grid(), workers=0, store=False).snapshot()
        injector = install_plan(FaultPlan(worker_kills=(2,)))
        with PersistentPool(2, chunksize=1) as pool:
            chaotic = _runner().run(_grid(), pool=pool,
                                    store=False).snapshot()
        assert chaotic == serial
        assert injector.snapshot()["worker_kills"] >= 1
        assert pool.respawns >= 1
        assert pool.reruns >= 1

    def test_pool_remains_usable_after_recovery(self):
        install_plan(FaultPlan(worker_kills=(1,)))
        points = _grid(2)
        with PersistentPool(1, chunksize=1) as pool:
            first = _runner().run(points, pool=pool, store=False).snapshot()
            respawns_after_first = pool.respawns
            # The kill schedule restarts per run but the pool's budget is
            # per-run too, so a second run over the rebuilt pool also
            # recovers — and stays byte-identical.
            second = _runner().run(points, pool=pool, store=False).snapshot()
        assert first == second
        assert respawns_after_first >= 1
        assert pool.respawns >= respawns_after_first

    def test_exhausted_respawn_budget_escalates_to_sweep_point_error(
            self, monkeypatch):
        monkeypatch.setattr(pool_module, "DEFAULT_MAX_RESPAWNS", 0)
        injector = install_plan(FaultPlan(worker_kills=(1,)))
        with PersistentPool(2, chunksize=1) as pool:
            with pytest.raises(SweepPointError, match="kept dying"):
                _runner().run(_grid(), pool=pool, store=False)
        assert injector.snapshot()["worker_kills"] == 1

    def test_worker_killed_mid_result_neither_hangs_the_run_nor_exit(
            self, monkeypatch):
        """The executor's management thread blocks for good reading the
        torn result, so it never reports the death: the pool's own worker
        check must, and shutdown must unblock that thread, which interpreter
        exit would otherwise join forever."""
        monkeypatch.setattr(pool_module, "DEFAULT_MAX_RESPAWNS", 0)
        before = _executor_threads()
        runner = SweepRunner(_torn_result_server, scale=SCALE, seed=0)
        with PersistentPool(1, chunksize=1) as pool:
            with pytest.raises(SweepPointError, match="kept dying"):
                runner.run([_point(0.4), _point(0.6)], pool=pool,
                           store=False)
        leftover = _executor_threads() - before
        for thread in leftover:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in leftover)


# -- golden grids under chaos -------------------------------------------------

#: The deterministic chaos schedule the golden tests run under: one worker
#: kill after the second received result, plus two transient store faults
#: (the first get and the second put fail once each).
CHAOS_PLAN = FaultPlan(
    seed=9,
    worker_kills=(2,),
    store_faults=(StoreFault(op="get", at=1, kind="transient"),
                  StoreFault(op="put", at=2, kind="transient")),
)


def _store_location(backend: str, root: pathlib.Path) -> str:
    return (f"sqlite://{root / 'store.db'}" if backend == "sqlite"
            else str(root / "store"))


class TestChaosGoldenGrids:
    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_fig3_grid_is_byte_identical_under_chaos(self, workers, backend,
                                                     tmp_path):
        expected = load_golden("fig3_small", GOLDEN_DIR)
        injector = install_plan(CHAOS_PLAN)
        store = SweepStore(_store_location(backend, tmp_path), trace=True)
        grid = GOLDEN_GRIDS["fig3_small"]
        actual = grid.build_runner().run(grid.points(), workers=workers,
                                         store=store).snapshot()
        assert not snapshot_diff(expected, actual)
        assert verify_store_trace(store.trace_events) == []
        counters = injector.snapshot()
        assert counters["transient_store_faults"] >= 2
        assert store.retries >= 2 and store.mode == "ok"
        if clamp_workers(workers) > 1:
            # The sweep went through a real pool: the planned kill landed.
            assert counters["worker_kills"] >= 1
        else:
            # Serial (or clamped-serial) runs have no workers to kill —
            # the byte-identity-across-worker-counts contract.
            assert counters["worker_kills"] == 0

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_failure_grid_survives_kills_through_explicit_pool(self, backend,
                                                               tmp_path):
        """Kills are guaranteed to fire by driving the pool path directly
        (``pool=`` bypasses the clamped-serial fallback), over a grid whose
        committed bytes include deterministic failure-event traces."""
        expected = load_golden("fig_crash_small", GOLDEN_DIR)
        injector = install_plan(CHAOS_PLAN)
        store = SweepStore(_store_location(backend, tmp_path), trace=True)
        grid = GOLDEN_GRIDS["fig_crash_small"]
        with PersistentPool(2, chunksize=1) as pool:  # adopts the injector
            actual = grid.build_runner().run(grid.points(), pool=pool,
                                             store=store).snapshot()
        assert not snapshot_diff(expected, actual)
        assert verify_store_trace(store.trace_events) == []
        counters = injector.snapshot()
        assert counters["worker_kills"] >= 1
        assert counters["transient_store_faults"] >= 2
        assert store.mode == "ok"

    def test_chaos_run_warms_the_store_for_a_fault_free_reread(self, tmp_path):
        """Whatever chaos the cold run survived, the warm pass rehydrates
        the same bytes without simulating."""
        injector = install_plan(CHAOS_PLAN)
        store_dir = str(tmp_path / "store")
        grid = GOLDEN_GRIDS["fig3_small"]
        cold = grid.build_runner().run(grid.points(),
                                       store=store_dir).snapshot()
        assert injector.snapshot()["transient_store_faults"] >= 2
        clear_installed()
        warm_store = SweepStore(store_dir, trace=True)
        warm = grid.build_runner().run(grid.points(),
                                       store=warm_store).snapshot()
        assert not snapshot_diff(cold, warm)
        assert warm_store.hits == len(grid.points())
        assert warm_store.misses == 0


_store_fault_strategy = st.builds(
    StoreFault,
    op=st.sampled_from(["get", "put", "any"]),
    at=st.integers(min_value=1, max_value=12),
    kind=st.sampled_from(["transient", "permanent"]),
    times=st.integers(min_value=1, max_value=5),
)


class TestHypothesisChaosPlans:
    @given(faults=st.lists(_store_fault_strategy, min_size=1, max_size=4),
           seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_any_store_fault_schedule_keeps_the_grid_byte_identical(
            self, faults, seed):
        """Property: *no* store-fault schedule — transient, permanent, or
        a mix dense enough to exhaust retries and degrade the store — can
        change a single bit of the grid or corrupt the stored trace."""
        expected = load_golden("fig3_small", GOLDEN_DIR)
        grid = GOLDEN_GRIDS["fig3_small"]
        root = pathlib.Path(tempfile.mkdtemp(prefix="repro-chaos-"))
        try:
            install_plan(FaultPlan(seed=seed, store_faults=tuple(faults)))
            store = SweepStore(root / "store", trace=True)
            actual = grid.build_runner().run(grid.points(),
                                             store=store).snapshot()
            assert not snapshot_diff(expected, actual)
            assert verify_store_trace(store.trace_events) == []
            assert store.mode in SweepStore.MODES
        finally:
            shutil.rmtree(root, ignore_errors=True)

    @given(kills=st.lists(st.integers(min_value=1, max_value=8),
                          min_size=1, max_size=2))
    @settings(max_examples=3, deadline=None)
    def test_any_kill_schedule_keeps_the_grid_byte_identical(self, kills):
        expected = load_golden("fig3_small", GOLDEN_DIR)
        grid = GOLDEN_GRIDS["fig3_small"]
        install_plan(FaultPlan(worker_kills=tuple(kills)))
        with PersistentPool(2, chunksize=1) as pool:
            actual = grid.build_runner().run(grid.points(), pool=pool,
                                             store=False).snapshot()
        assert not snapshot_diff(expected, actual)


# -- store degradation ladder -------------------------------------------------


class TestStoreDegradation:
    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_permanent_put_failure_degrades_to_read_only(self, backend,
                                                         tmp_path):
        install_plan(FaultPlan(store_faults=(
            StoreFault(op="put", at=1, kind="permanent"),)))
        store = SweepStore(_store_location(backend, tmp_path), trace=True)
        runner, point = _runner(), _point()
        record = runner.run([point], store=False).records[0]
        key = store.key_for(runner, point)

        store.put(key, record)  # injected permanent failure
        assert store.mode == "read-only" and store.degraded
        assert "PermanentFaultError" in store.degraded_reason
        assert store.skipped_puts == 1

        store.put(key, record)  # short-circuits without touching the backend
        assert store.skipped_puts == 2
        # Reads still work in read-only mode (nothing stored here: miss).
        assert store.get(key, point) is None
        assert verify_store_trace(store.trace_events) == []
        stats = store.stats().to_dict()
        assert stats["mode"] == "read-only" and stats["degraded"]
        assert stats["skipped_puts"] == 2

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_exhausted_get_retries_degrade_to_no_store(self, backend,
                                                       tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "STORE_RETRY_POLICY",
                            RetryPolicy(max_attempts=3, backoff_s=0.0))
        injector = install_plan(FaultPlan(store_faults=(
            StoreFault(op="get", at=1, kind="transient", times=10),)))
        store = SweepStore(_store_location(backend, tmp_path), trace=True)
        runner, point = _runner(), _point()
        key = store.key_for(runner, point)

        assert store.get(key, point) is None
        assert store.mode == "no-store" and store.degraded
        assert store.retries == 2  # max_attempts - 1
        # Further gets (and puts) never consult the backend again.
        assert store.get(key, point) is None
        assert injector.snapshot()["store_faults"] == 3
        assert store.misses == 2
        record = runner.run([point], store=False).records[0]
        store.put(key, record)
        assert store.skipped_puts == 1
        assert verify_store_trace(store.trace_events) == []

    def test_transient_faults_within_budget_leave_the_store_healthy(
            self, tmp_path):
        install_plan(FaultPlan(store_faults=(
            StoreFault(op="any", at=1, kind="transient"),)))
        store = SweepStore(tmp_path / "store", trace=True)
        runner, point = _runner(), _point()
        record = runner.run([point], store=False).records[0]
        key = store.key_for(runner, point)
        assert store.get(key, point) is None  # retried miss
        store.put(key, record)                # retried store
        rehydrated = store.get(key, point)
        assert (rehydrated.snapshot(include_timeline=True)
                == record.snapshot(include_timeline=True))
        assert store.mode == "ok" and not store.degraded
        assert store.retries == 2
        assert verify_store_trace(store.trace_events) == []

    def test_degraded_runner_run_still_matches_serial(self, tmp_path):
        """A store degraded from the first put changes timings, never bytes."""
        serial = _runner().run(_grid(2), store=False).snapshot()
        install_plan(FaultPlan(store_faults=(
            StoreFault(op="put", at=1, kind="permanent"),)))
        store = SweepStore(tmp_path / "store")
        degraded = _runner().run(_grid(2), store=store).snapshot()
        assert degraded == serial
        assert store.mode == "read-only"
        assert store.skipped_puts == len(_grid(2))


# -- serve-layer resilience ---------------------------------------------------


class TestServeDaemonResilience:
    def test_point_retries_configures_the_batcher_budget(self):
        with ServeDaemon(port=0, store=False, point_retries=2) as daemon:
            assert daemon.batcher._max_attempts == 3
        with ServeDaemon(port=0, store=False) as daemon:
            assert daemon.batcher._max_attempts == DEFAULT_MAX_ATTEMPTS

    def test_conflicting_and_invalid_retry_knobs_are_rejected(self):
        # point_retries is the daemon's one spelling of the retry budget.
        with pytest.raises(TypeError):
            ServeDaemon(port=0, store=False, max_attempts=2)
        with pytest.raises(ConfigurationError):
            ServeDaemon(port=0, store=False, point_retries=-1)
        with pytest.raises(ConfigurationError):
            ServeDaemon(port=0, store=False, max_inflight=0)

    def test_over_capacity_requests_get_503_with_retry_after(self, tmp_path):
        install_plan(FaultPlan(serve_stalls=(
            ServeStall(at=1, stall_s=1.0),)))
        with ServeDaemon(port=0, store=tmp_path / "store",
                         max_inflight=1) as daemon:
            runner, points = _runner(), [_point()]
            first_results = []

            def admitted():
                client = ServeClient(daemon.url)
                first_results.extend(client.whatif(runner, points))

            thread = threading.Thread(target=admitted, daemon=True)
            thread.start()
            deadline = time.monotonic() + 5.0
            while daemon._inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.01)

            impatient = ServeClient(daemon.url, retries=0)
            with pytest.raises(ServeError) as excinfo:
                impatient.whatif(runner, points)
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after == 1.0
            assert "over_capacity" in str(excinfo.value)

            thread.join(30.0)
            assert first_results and first_results[0].status == "ok"
            assert daemon.rejected >= 1
            stats = ServeClient(daemon.url).stats()
            assert stats["rejected"] >= 1
            assert stats["admission"]["max_inflight"] == 1
            assert "pool" not in stats  # workers=0: no pool subsystem

    def test_draining_daemon_rejects_new_sweeps_and_reports_it(self, tmp_path):
        with ServeDaemon(port=0, store=tmp_path / "store") as daemon:
            with daemon._lock:
                daemon._draining = True
            client = ServeClient(daemon.url, retries=0)
            with pytest.raises(ServeError) as excinfo:
                client.whatif(_runner(), [_point()])
            assert excinfo.value.status == 503
            assert "draining" in str(excinfo.value)
            health = client.health()
            assert health["status"] == "draining"
            assert health["subsystems"]["admission"]["draining"]
            with daemon._lock:
                daemon._draining = False
            results = client.whatif(_runner(), [_point()])
            assert results[0].status == "ok"

    def test_close_drains_inflight_requests(self, tmp_path):
        install_plan(FaultPlan(serve_stalls=(
            ServeStall(at=1, stall_s=0.5),)))
        daemon = ServeDaemon(port=0, store=tmp_path / "store").start()
        results = []

        def query():
            results.extend(ServeClient(daemon.url).whatif(_runner(),
                                                          [_point()]))

        thread = threading.Thread(target=query, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while daemon._inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        daemon.close()
        thread.join(10.0)
        assert results and results[0].status == "ok"

    def test_health_reports_store_degradation_and_fault_counters(
            self, tmp_path):
        install_plan(FaultPlan(store_faults=(
            StoreFault(op="put", at=1, kind="permanent"),)))
        with ServeDaemon(port=0, store=tmp_path / "store") as daemon:
            client = ServeClient(daemon.url)
            results = client.whatif(_runner(), [_point()])
            assert results[0].status == "ok"  # degraded store, healthy answer
            health = client.health()
            assert health["status"] == "degraded"
            assert health["subsystems"]["store"]["mode"] == "read-only"
            assert health["subsystems"]["store"]["skipped_puts"] >= 1
            assert health["faults"]["permanent_store_faults"] >= 1
            assert "batcher" in health["subsystems"]
            stats = client.stats()
            assert stats["store"]["mode"] == "read-only"
            assert "point_retries" in stats["batcher"]

    def test_healthy_daemon_health_shape(self, tmp_path):
        with ServeDaemon(port=0, store=tmp_path / "store") as daemon:
            health = ServeClient(daemon.url).health()
            assert health["status"] == "ok"
            admission = health["subsystems"]["admission"]
            assert admission["rejected"] == 0 and not admission["draining"]
            assert "faults" not in health  # no injector, no fault report


class TestServeClientRetry:
    def test_refused_connections_are_retried_then_surface(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServeClient(f"http://127.0.0.1:{port}", retries=2,
                             backoff_s=0.0)
        with pytest.raises(ConfigurationError, match="cannot reach"):
            client.health()
        assert client.retries_used == 2

    def test_503_honours_retry_after_then_succeeds(self, monkeypatch):
        from repro.serve import client as client_module
        calls = []
        sleeps = []

        def fake_request_once(self, method, path, data):
            calls.append(path)
            if len(calls) < 3:
                raise ServeError(503, "busy: over_capacity",
                                 retry_after=0.02)
            return {"status": "ok"}

        monkeypatch.setattr(ServeClient, "_request_once", fake_request_once)
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        client = ServeClient("http://127.0.0.1:1")
        assert client.health() == {"status": "ok"}
        assert len(calls) == 3 and client.retries_used == 2
        assert sleeps == [0.02, 0.02]

    def test_503_without_retry_after_uses_capped_backoff(self, monkeypatch):
        from repro.serve import client as client_module
        sleeps = []

        def always_busy(self, method, path, data):
            raise ServeError(503, "busy")

        monkeypatch.setattr(ServeClient, "_request_once", always_busy)
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        client = ServeClient("http://127.0.0.1:1", retries=3, backoff_s=0.1)
        with pytest.raises(ServeError):
            client.health()
        assert sleeps == [0.1, 0.2, 0.4]

    def test_connection_reset_is_retried(self, monkeypatch):
        calls = []

        def flaky(self, method, path, data):
            calls.append(1)
            if len(calls) == 1:
                error = ConfigurationError("cannot reach serve daemon")
                error._retryable = True
                raise error
            return {"ok": True}

        monkeypatch.setattr(ServeClient, "_request_once", flaky)
        client = ServeClient("http://127.0.0.1:1", backoff_s=0.0)
        assert client.health() == {"ok": True}
        assert client.retries_used == 1

    def test_non_retryable_errors_fail_fast(self, monkeypatch):
        calls = []

        def hopeless(self, method, path, data):
            calls.append(1)
            raise ConfigurationError("cannot reach serve daemon: bad DNS")

        monkeypatch.setattr(ServeClient, "_request_once", hopeless)
        client = ServeClient("http://127.0.0.1:1")
        with pytest.raises(ConfigurationError):
            client.health()
        assert len(calls) == 1 and client.retries_used == 0

    def test_non_503_http_errors_are_not_retried(self, monkeypatch):
        calls = []

        def not_found(self, method, path, data):
            calls.append(1)
            raise ServeError(404, "no such endpoint")

        monkeypatch.setattr(ServeClient, "_request_once", not_found)
        client = ServeClient("http://127.0.0.1:1")
        with pytest.raises(ServeError):
            client.health()
        assert len(calls) == 1

    def test_invalid_retry_knobs_are_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeClient("http://127.0.0.1:1", retries=-1)
        with pytest.raises(ConfigurationError):
            ServeClient("http://127.0.0.1:1", backoff_s=-0.1)
