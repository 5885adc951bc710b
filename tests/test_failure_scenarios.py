"""Scenario-level tests for :mod:`repro.sim.failures` and the failure
sweep-point kinds.

Three properties from the determinism contract are pinned with hypothesis:

* **crash-schedule permutation invariance** — any ordering of the same
  ``(epoch, job)`` pairs yields a bit-identical scenario (and the same
  sweep point / store key);
* **detector-state-machine legality** — over random report sequences the
  driver never reassigns to a dead or crashed job, never revives a dead
  one, and appends exactly one event per confirmed failure;
* **elastic ≡ static when the schedule is empty** — an empty membership
  schedule (and a no-op schedule entry) reproduce the static-membership
  epochs bit for bit, cross-checked against the independent straggler
  path with uniform factors.

Plus direct coverage of the four kinds through :class:`SweepRunner`:
serial ≡ workers=N byte-identity and snapshot round-trips.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute.model_zoo import RESNET18
from repro.coordl.failure import (
    FailureDetector,
    JobState,
    RecoveryAction,
    TimeoutReport,
)
from repro.exceptions import ConfigurationError
from repro.sim.failures import FailureScenario
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


# -- property 2: detector state-machine legality ----------------------------

class TestDetectorLegality:
    @given(seed=st.integers(0, 2**16),
           ops=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)),
                        min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_random_report_sequences_keep_the_invariants(self, seed, ops):
        """ops: (job, action) with action 0=healthy report, 1=crash+report,
        2=stale report.  At every step: a RESPAWN's replacement is alive and
        not the victim, dead jobs stay dead, one event per confirmed crash."""
        crashed: set = set()
        detector = FailureDetector(6, 1.0, seed=seed,
                                   liveness_probe=lambda j: j not in crashed)
        confirmed = 0
        for step, (job, op) in enumerate(ops):
            if len(crashed) >= 5 and op == 1:
                op = 0  # keep at least one survivor
            if op == 1:
                crashed.add(job)
            was_dead = detector.state(job) is JobState.DEAD
            report = TimeoutReport(reporting_job=0, missing_batch_id=step,
                                   suspected_producer=job,
                                   reported_at=float(step))
            if job in crashed and op != 2:
                action = detector.report_timeout(report)
                assert action is RecoveryAction.RESPAWN
                if not was_dead:
                    confirmed += 1
                event = detector.events[-1]
                assert event.failed_job == job
                assert event.reassigned_to != job
                assert event.reassigned_to in detector.alive_jobs()
                assert detector.state(job) is JobState.DEAD
            elif op == 2:
                assert detector.report_timeout(
                    report, batch_is_now_staged=True) is RecoveryAction.NONE
            else:
                action = detector.report_timeout(report)
                assert action is RecoveryAction.RETRY
                assert detector.state(job) is JobState.RUNNING
            # Dead jobs never come back.
            assert crashed == {j for j in range(6)
                               if detector.state(j) is JobState.DEAD}
        assert len(detector.reports) == len(ops)
        # Exactly one event per job transition to DEAD via a report (repeat
        # reports about an already-dead producer re-emit a reassignment, so
        # the trace can only grow).
        assert len(detector.events) >= confirmed


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
