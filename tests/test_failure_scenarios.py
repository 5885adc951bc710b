"""Scenario-level tests for :mod:`repro.sim.failures` and the failure
sweep-point kinds.

Three properties from the determinism contract are pinned with hypothesis:

* **crash-schedule permutation invariance** — any ordering of the same
  ``(epoch, job)`` pairs yields a bit-identical scenario (and the same
  sweep point / store key);
* **crash-recovery legality** — over random valid crash schedules the
  trace holds one event per crash in ``(epoch, job)`` order, each
  replacement is the seeded pick among the jobs still alive, and the
  active count falls by one per crash;
* **elastic ≡ static when the schedule is empty** — an empty membership
  schedule (and a no-op schedule entry) reproduce the static-membership
  epochs bit for bit, cross-checked against the independent straggler
  path with uniform factors.

Plus the cost and timing of a crash epoch, the re-warm debt it leaves,
the seeded replacement pick itself, and direct coverage of the four kinds
through :class:`SweepRunner`: serial ≡ workers=N byte-identity and
snapshot round-trips.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.minio import MinIOCache
from repro.compute.model_zoo import ALEXNET, RESNET18, RESNET50
from repro.exceptions import ConfigurationError, SimulationError
from repro.sim.failures import FailureEvent, FailureScenario, pick_replacement
from repro.sim.hp_search import HPSearchScenario
from repro.sim.sweep import SweepPoint, SweepRunner

SCALE = 1.0 / 400.0


def _epoch_tuples(result):
    """Bit-exact comparable form of a scenario result's epochs."""
    return [(e.epoch_time_s, e.disk_bytes, e.remote_bytes, e.rewarm_bytes,
             e.stall_s, e.cache_miss_ratio, e.active) for e in result.epochs]


def _event_tuples(result):
    return [(e.kind, e.failed_job, e.detected_at, e.reassigned_to,
             e.missing_batch_id) for e in result.events]


@pytest.fixture(scope="module")
def scenario():
    from repro.cluster.configs import config_ssd_v100
    runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
    dataset = runner.dataset("openimages")
    server = config_ssd_v100()
    return FailureScenario(RESNET18, dataset, server, seed=17)


@pytest.fixture(scope="module")
def spec_runner():
    from repro.cluster.configs import config_ssd_v100
    return SweepRunner(config_ssd_v100, scale=SCALE, seed=0)


# -- property 1: crash-schedule permutation invariance ----------------------

class TestCrashPermutationInvariance:
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_any_schedule_ordering_is_bit_identical(self, scenario, data):
        schedule = data.draw(st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 3)),
            min_size=1, max_size=3, unique_by=lambda pair: pair[1]))
        permuted = data.draw(st.permutations(schedule))
        baseline = scenario.run_crash(4, schedule, num_epochs=3)
        shuffled = scenario.run_crash(4, permuted, num_epochs=3)
        assert _epoch_tuples(baseline) == _epoch_tuples(shuffled)
        assert _event_tuples(baseline) == _event_tuples(shuffled)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_permuted_schedules_are_the_same_sweep_point(self, spec_runner,
                                                         data):
        schedule = data.draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 5)),
            min_size=1, max_size=4, unique_by=lambda pair: pair[1]))
        permuted = data.draw(st.permutations(schedule))
        make = lambda sched: SweepPoint(
            model=RESNET18, loader="coordl-crash", dataset="openimages",
            cache_fraction=0.5, num_epochs=4, num_jobs=6,
            crash_schedule=tuple(sched))
        assert make(schedule) == make(permuted)
        assert (spec_runner.point_spec(make(schedule))
                == spec_runner.point_spec(make(permuted)))


# -- property 2: crash-recovery legality ------------------------------------

class TestCrashRecovery:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_valid_schedules_keep_the_invariants(self, spec_runner,
                                                        data):
        """One event per crash, in ``(epoch, job)`` order; each names as
        replacement the seeded pick among the jobs that had not crashed by
        then (never the failed job); ``active`` falls by one per crash."""
        from repro.cluster.configs import config_ssd_v100
        num_jobs = data.draw(st.integers(2, 6), label="num_jobs")
        num_epochs = data.draw(st.integers(1, 3), label="num_epochs")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        jobs = data.draw(st.lists(st.integers(0, num_jobs - 1), unique=True,
                                  max_size=num_jobs - 1), label="jobs")
        schedule = [(data.draw(st.integers(0, num_epochs - 1)), job)
                    for job in jobs]
        result = FailureScenario(
            RESNET18, spec_runner.dataset("openimages"), config_ssd_v100(),
            seed=seed).run_crash(num_jobs, schedule, num_epochs)
        assert [(e.kind, e.failed_job) for e in result.events] == [
            ("crash", job) for _, job in sorted(schedule)]
        dead: set = set()
        for count, event in enumerate(result.events):
            dead.add(event.failed_job)
            survivors = [j for j in range(num_jobs) if j not in dead]
            assert event.reassigned_to in survivors
            assert event.reassigned_to == pick_replacement(
                seed, event.failed_job, count, survivors)
        for epoch, stats in enumerate(result.epochs):
            crashed = sum(1 for crash_epoch, _ in schedule
                          if crash_epoch <= epoch)
            assert stats.active == num_jobs - crashed

    @pytest.mark.parametrize("crashes", [1, 2, 3])
    def test_a_crash_epoch_stalls_for_timeouts_and_shard_repreps(
            self, spec_runner, crashes):
        """``k`` crashes in one epoch cost it ``k`` detection timeouts of
        10 iterations each (Sec. 4.4), detected one timeout apart, plus
        ``k`` re-preps of a dead job's ``1/num_jobs`` shard; the epochs
        around it pay no stall."""
        from repro.cluster.configs import config_ssd_v100
        num_jobs = 4
        dataset = spec_runner.dataset("openimages")
        scenario = FailureScenario(RESNET18, dataset, config_ssd_v100(),
                                   seed=17)
        healthy = scenario.run_crash(num_jobs, (), 3)
        crashed = scenario.run_crash(
            num_jobs, [(1, job) for job in range(crashes)], 3)
        hp = HPSearchScenario(RESNET18, dataset, config_ssd_v100(),
                              num_jobs=num_jobs, seed=17)
        timeout = 10 * hp.batch_size / hp.gpu_rate_per_job
        reprep = len(dataset) / num_jobs / hp.prep_rate(coordinated=True)
        epoch = crashed.epochs[1]
        assert epoch.stall_s == pytest.approx(crashes * (timeout + reprep),
                                              rel=1e-12)
        assert epoch.epoch_time_s == (healthy.epochs[1].epoch_time_s
                                      + epoch.stall_s)
        assert crashed.epochs[0].stall_s == crashed.epochs[2].stall_s == 0.0
        detected = [event.detected_at for event in crashed.events]
        assert [later - earlier for earlier, later
                in zip(detected, detected[1:])] == pytest.approx(
                    [timeout] * (crashes - 1), rel=1e-9)

    @pytest.mark.parametrize("crash_epoch", [0, 1, 2])
    def test_a_mid_epoch_crash_is_detected_within_its_epoch(
            self, scenario, spec_runner, crash_epoch):
        """The job dies halfway through its epoch's healthy time and the
        survivors notice one detection timeout later, before the epoch
        that pays the stall is over; the epochs before it are healthy."""
        from repro.cluster.configs import config_ssd_v100
        healthy = scenario.run_crash(4, (), 3)
        crashed = scenario.run_crash(4, [(crash_epoch, 2)], 3)
        hp = HPSearchScenario(RESNET18, spec_runner.dataset("openimages"),
                              config_ssd_v100(), num_jobs=4, seed=17)
        timeout = 10 * hp.batch_size / hp.gpu_rate_per_job
        assert crashed.epochs[:crash_epoch] == healthy.epochs[:crash_epoch]
        start = sum(e.epoch_time_s for e in crashed.epochs[:crash_epoch])
        (event,) = crashed.events
        assert event.detected_at == pytest.approx(
            start + 0.5 * healthy.epochs[crash_epoch].epoch_time_s + timeout,
            rel=1e-12)
        assert start < event.detected_at <= (
            start + crashed.epochs[crash_epoch].epoch_time_s)

    @pytest.mark.parametrize("model", [ALEXNET, RESNET18, RESNET50],
                             ids=lambda model: model.name)
    def test_the_timeout_is_ten_of_the_models_iterations(self, spec_runner,
                                                         model):
        """Survivors wait 10 of their own iterations (Sec. 4.4), so a
        model that ingests a minibatch more slowly waits longer."""
        from repro.cluster.configs import config_ssd_v100
        dataset = spec_runner.dataset("openimages")
        scenario = FailureScenario(model, dataset, config_ssd_v100(), seed=5)
        healthy = scenario.run_crash(4, (), 1)
        crashed = scenario.run_crash(4, [(0, 1)], 1)
        hp = HPSearchScenario(model, dataset, config_ssd_v100(), num_jobs=4,
                              seed=5)
        iteration = hp.batch_size / hp.gpu_rate_per_job
        crash_time = 0.5 * healthy.epochs[0].epoch_time_s
        assert crashed.events[0].detected_at - crash_time == pytest.approx(
            10 * iteration, rel=1e-9)

    @pytest.mark.parametrize("dataset_name", [
        "openimages", "imagenet-1k", "openimages-detection"])
    def test_the_missing_batch_is_the_epochs_middle_minibatch(
            self, spec_runner, dataset_name):
        """A crash lands halfway through the epoch, so every event names
        the middle one of the epoch's minibatches as the one that timed
        out."""
        from repro.cluster.configs import config_ssd_v100
        dataset = spec_runner.dataset(dataset_name)
        hp = HPSearchScenario(RESNET18, dataset, config_ssd_v100(),
                              num_jobs=3, seed=9)
        result = FailureScenario(RESNET18, dataset, config_ssd_v100(),
                                 seed=9).run_crash(3, [(0, 0), (1, 2)], 2)
        batches = len(dataset) // hp.batch_size
        assert batches >= 2
        assert [e.missing_batch_id for e in result.events] == [batches // 2] * 2

    @pytest.mark.parametrize("job", range(4))
    def test_the_dead_jobs_cache_slice_is_re_read_the_next_epoch(
            self, spec_runner, job):
        """The crashed worker's slice of the shared MinIO cache dies with
        it.  The crash epoch books those bytes as re-warm debt, and the
        next epoch repays them through storage on top of the healthy
        run's misses."""
        from repro.cluster.configs import config_ssd_v100
        dataset = spec_runner.dataset("openimages")
        server = config_ssd_v100(cache_bytes=dataset.total_bytes * 0.5)
        scenario = FailureScenario(RESNET18, dataset, server, seed=17)
        healthy = scenario.run_crash(4, (), 3)
        crashed = scenario.run_crash(4, [(1, job)], 3)
        debt = crashed.epochs[1].rewarm_bytes
        assert 0.0 < debt < server.cache_bytes
        assert crashed.total_rewarm_bytes == debt
        assert crashed.epochs[0] == healthy.epochs[0]
        assert crashed.epochs[1].disk_bytes == healthy.epochs[1].disk_bytes
        assert crashed.epochs[2].disk_bytes == pytest.approx(
            healthy.epochs[2].disk_bytes + debt, rel=1e-12)

    def test_an_empty_schedule_prices_the_coordinated_epochs(self,
                                                             spec_runner):
        """Without crashes every epoch is the coordinated HP-search epoch
        over one persistent MinIO cache: no stall, no debt, no event."""
        from repro.cluster.configs import config_ssd_v100
        dataset = spec_runner.dataset("openimages")
        server = config_ssd_v100(cache_bytes=dataset.total_bytes * 0.5)
        result = FailureScenario(RESNET18, dataset, server,
                                 seed=17).run_crash(4, (), 3)
        hp = HPSearchScenario(RESNET18, dataset, server, num_jobs=4, seed=17)
        cache = MinIOCache(server.cache_bytes)
        for epoch, stats in enumerate(result.epochs):
            priced = hp.run_epoch(cache, epoch, coordinated=True)
            assert (stats.epoch_time_s, stats.disk_bytes,
                    stats.cache_miss_ratio) == (
                        priced.time_s, priced.disk_bytes, priced.miss_ratio)
            assert (stats.stall_s, stats.rewarm_bytes, stats.active) == (
                0.0, 0.0, 4)
        assert result.events == []
        assert result.degraded_epochs == 0

    @pytest.mark.parametrize("schedule, crash_epochs", [
        pytest.param(((0, 1),), [0], id="one-crash"),
        pytest.param(((0, 1), (0, 2)), [0], id="two-in-one-epoch"),
        pytest.param(((0, 1), (2, 2)), [0, 2], id="two-epochs-apart"),
    ])
    def test_the_degraded_epochs_are_the_crash_epochs(self, scenario,
                                                      schedule, crash_epochs):
        result = scenario.run_crash(4, schedule, 3)
        assert [epoch for epoch, stats in enumerate(result.epochs)
                if stats.stall_s > 0] == crash_epochs
        assert result.degraded_epochs == len(crash_epochs)

    def test_a_schedule_that_kills_every_job_is_refused(self, scenario):
        """A crashed job's shard needs a survivor to take it over."""
        with pytest.raises(SimulationError):
            scenario.run_crash(2, ((0, 0), (1, 1)), 2)

    @pytest.mark.parametrize("schedule", [
        pytest.param(((3, 0),), id="epoch-past-the-run"),
        pytest.param(((-1, 0),), id="negative-epoch"),
        pytest.param(((0, -1),), id="negative-job"),
        pytest.param(((0, 1), (2, 1)), id="job-crashes-twice"),
    ])
    def test_the_sweep_kind_refuses_an_impossible_schedule(self, schedule):
        """A ``coordl-crash`` point is checked before it runs: each crash
        falls inside the run, names a job that exists, and dead jobs stay
        dead."""
        with pytest.raises(ConfigurationError):
            SweepPoint(model=RESNET18, loader="coordl-crash",
                       dataset="openimages", cache_fraction=0.5, num_epochs=3,
                       num_jobs=4, crash_schedule=schedule)

    @pytest.mark.parametrize("schedule", [
        pytest.param((), id="healthy"),
        pytest.param(((1, 1),), id="one-crash"),
        pytest.param(((0, 1), (2, 2)), id="two-crashes"),
    ])
    def test_the_crash_metrics_sum_the_trace(self, spec_runner, schedule):
        """A ``coordl-crash`` row counts the trace's events and sums its
        epochs' disk and re-warm bytes."""
        point = SweepPoint(model=RESNET18, loader="coordl-crash",
                           dataset="openimages", cache_fraction=0.5,
                           num_epochs=3, num_jobs=4, crash_schedule=schedule)
        record = spec_runner.run([point]).records[0]
        row = record.row()
        assert row["events"] == len(record.failure.events) == len(schedule)
        assert row["disk_bytes"] == record.failure.total_disk_bytes
        assert row["rewarm_bytes"] == record.failure.total_rewarm_bytes
        assert (row["rewarm_bytes"] > 0) == bool(schedule)
        assert row["epoch_time_s"] == record.failure.steady_epoch_time_s


class TestReplacementPicking:
    """:func:`pick_replacement`, the seeded survivor choice behind every
    crash event: the byte-identity of crash traces relies on it."""

    def test_picks_are_reproducible_and_consume_the_seed(self):
        def picks(seed):
            return [pick_replacement(seed, 4, count, [0, 1, 2, 3, 5])
                    for count in range(6)]

        assert picks(7) == picks(7)
        assert picks(8) == picks(8)
        assert len({tuple(picks(seed)) for seed in range(4)}) > 1

    def test_pick_varies_with_the_event_count(self):
        """The digest keys on the event count, so successive crashes are
        not all handed to one survivor (such as the lowest)."""
        picks = {pick_replacement(2, 7, count, range(7)) for count in range(8)}
        assert len(picks) > 1

    def test_survivors_are_indexed_in_sorted_order(self):
        for count in range(5):
            assert (pick_replacement(3, 1, count, [5, 0, 3, 2])
                    == pick_replacement(3, 1, count, [0, 2, 3, 5]))

    def test_never_names_a_dead_or_excluded_job(self):
        """Across a cascade of crashes the pick is always a survivor."""
        for seed in (0, 1, 12345):
            alive = {0, 1, 2, 3, 4}
            for count, victim in enumerate((3, 0, 4, 2)):
                alive.discard(victim)
                replacement = pick_replacement(seed, victim, count, alive)
                assert replacement in alive and replacement != victim

    def test_the_last_survivor_takes_every_shard(self):
        for seed in (0, 7):
            for count in range(6):
                assert pick_replacement(seed, 1, count, [4]) == 4

    def test_successive_picks_reach_every_survivor(self):
        """Re-prep work spreads over the survivors instead of piling on
        one of them."""
        survivors = [0, 2, 5, 6]
        picks = {pick_replacement(11, 3, count, survivors)
                 for count in range(64)}
        assert picks == set(survivors)


class TestFailureEventKinds:
    def test_default_kind_is_crash(self):
        event = FailureEvent(failed_job=1, detected_at=0.5,
                             reassigned_to=0, missing_batch_id=3)
        assert event.kind == "crash"

    def test_sentinel_fields_for_membership_events(self):
        join = FailureEvent(failed_job=-1, detected_at=1.0,
                            reassigned_to=2, missing_batch_id=-1, kind="join")
        assert join.failed_job == -1 and join.missing_batch_id == -1


# -- property 3: elastic ≡ static under an empty schedule -------------------

class TestElasticStaticEquivalence:
    @given(num_servers=st.integers(2, 4), num_epochs=st.integers(1, 4))
    @settings(max_examples=8, deadline=None)
    def test_empty_schedule_is_the_static_run(self, scenario, num_servers,
                                              num_epochs):
        elastic = scenario.run_elastic(num_servers, (), num_epochs)
        assert elastic.events == []
        # Cross-check against the *independent* straggler epoch path with
        # uniform factors — two code paths, one bit-exact answer.
        uniform = scenario.run_straggler(num_servers, (), num_epochs)
        assert _epoch_tuples(elastic) == _epoch_tuples(uniform)

    def test_noop_membership_entry_changes_nothing(self, scenario):
        static = scenario.run_elastic(3, (), 3)
        noop = scenario.run_elastic(3, ((1, 3),), 3)
        assert _epoch_tuples(static) == _epoch_tuples(noop)
        assert noop.events == []


# -- the four kinds through the sweep runner --------------------------------

def _failure_points():
    return [
        SweepPoint(model=RESNET18, loader="coordl-crash", dataset="openimages",
                   cache_fraction=0.65, num_epochs=3, num_jobs=4,
                   crash_schedule=((1, 1),)),
        SweepPoint(model=RESNET18, loader="coordl-elastic",
                   dataset="openimages", cache_fraction=0.5, num_epochs=3,
                   num_servers=2, membership_schedule=((1, 3),)),
        SweepPoint(model=RESNET18, loader="coordl-straggler",
                   dataset="openimages", cache_fraction=0.5, num_epochs=2,
                   num_servers=2, straggler_factors=(3.0,)),
        SweepPoint(model=RESNET18, loader="hp-multitenant",
                   dataset="openimages", cache_fraction=0.65, num_epochs=2,
                   num_jobs=2, tenants=3),
    ]


class TestMultitenantIsTheHPSearchBaseline:
    """One tenant's campaign is the uncoordinated HP-search baseline: both
    replay and price their epochs through HPSearchScenario's epoch model,
    so they cannot drift apart."""

    @pytest.mark.parametrize("fraction", [0.3, 1.5])
    @pytest.mark.parametrize("num_jobs", [2, 4])
    def test_one_tenant_epoch_one_equals_run_baseline(self, fraction, num_jobs):
        from repro.cluster.configs import config_ssd_v100
        dataset = SweepRunner(config_ssd_v100, scale=SCALE,
                              seed=0).dataset("openimages")
        server = config_ssd_v100(cache_bytes=dataset.total_bytes * fraction)
        tenant = FailureScenario(RESNET18, dataset, server,
                                 seed=17).run_multitenant(1, num_jobs, 2)
        baseline = HPSearchScenario(RESNET18, dataset, server,
                                    num_jobs=num_jobs, gpus_per_job=1,
                                    seed=17).run_baseline()
        epoch = tenant.epochs[1]
        assert epoch.disk_bytes == baseline.disk_bytes_per_epoch
        assert epoch.cache_miss_ratio == baseline.cache_miss_ratio
        assert epoch.epoch_time_s == baseline.epoch_time_s
        if fraction < 1.0:
            assert epoch.disk_bytes > 0.0   # the thrashing regime


class TestFailureSweepPoints:
    def test_serial_equals_parallel_byte_identical(self):
        from repro.cluster.configs import config_ssd_v100
        points = _failure_points()
        serial = SweepRunner(config_ssd_v100, scale=SCALE, seed=0).run(points)
        for workers in (1, 4):
            fanned = SweepRunner(config_ssd_v100, scale=SCALE, seed=0).run(
                points, workers=workers)
            assert serial.snapshot() == fanned.snapshot()

    def test_snapshot_round_trips_with_trace(self):
        from repro.cluster.configs import config_ssd_v100
        from repro.sim.sweep import SweepRecord
        result = SweepRunner(config_ssd_v100, scale=SCALE, seed=0).run(
            _failure_points())
        for record in result.records:
            snap = record.snapshot(include_timeline=True)
            again = SweepRecord.from_snapshot(snap)
            assert again.snapshot(include_timeline=True) == snap
            assert again.failure is not None
        crash = result.one(loader="coordl-crash")
        assert [e.kind for e in crash.failure.events] == ["crash"]
        elastic = result.one(loader="coordl-elastic")
        assert [e.kind for e in elastic.failure.events] == ["join"]

    def test_wire_lists_normalise_back_to_tuples(self):
        """A JSON round-trip turns the schedule tuples into lists; the
        point's __post_init__ must normalise them back so wire points and
        native points are the same point (same store key)."""
        native = _failure_points()[0]
        wire = SweepPoint(model=RESNET18, loader="coordl-crash",
                          dataset="openimages", cache_fraction=0.65,
                          num_epochs=3, num_jobs=4,
                          crash_schedule=[[1, 1]])  # type: ignore[arg-type]
        assert wire == native
        from repro.cluster.configs import config_ssd_v100
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        assert runner.point_spec(wire) == runner.point_spec(native)

    def test_validation_rejects_malformed_failure_points(self):
        common = dict(model=RESNET18, dataset="openimages",
                      cache_fraction=0.5, num_epochs=3)
        with pytest.raises(ConfigurationError):
            SweepPoint(loader="coordl-crash", num_jobs=2,
                       crash_schedule=((0, 5),), **common)  # job out of range
        with pytest.raises(ConfigurationError):
            SweepPoint(loader="coordl-crash", num_jobs=2,
                       crash_schedule=((0, 0), (1, 1)), **common)  # no survivor
        with pytest.raises(ConfigurationError):
            SweepPoint(loader="coordl-elastic", num_servers=2,
                       membership_schedule=((0, 3),), **common)  # epoch 0
        with pytest.raises(ConfigurationError):
            SweepPoint(loader="coordl-straggler", num_servers=2,
                       straggler_factors=(1.0, 2.0, 3.0), **common)  # too many
        with pytest.raises(ConfigurationError):
            SweepPoint(loader="hp-multitenant", num_jobs=2, tenants=0,
                       **common)
        with pytest.raises(ConfigurationError):
            SweepPoint(loader="coordl", crash_schedule=((1, 0),),
                       **common)  # failure-only field on a training kind
