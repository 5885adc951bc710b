"""Unit tests for coordinated prep plans, the epoch runner and failure handling."""

import numpy as np
import pytest

from repro.coordl.coordinated_prep import (
    BatchAssignment,
    CoordinatedEpochRunner,
    CoordinatedPrepPlan,
)
from repro.coordl.failure import (
    FailureDetector,
    JobState,
    RecoveryAction,
    TimeoutReport,
)
from repro.coordl.staging import StagingArea
from repro.exceptions import ConfigurationError, JobFailedError, UnknownItemError
from repro.prep.pipeline import PrepPipeline


@pytest.fixture
def plan(tiny_dataset):
    return CoordinatedPrepPlan(tiny_dataset, num_jobs=4, batch_size=16, epoch=0, seed=0)


@pytest.fixture
def prep():
    return PrepPipeline.for_task("image_classification")


class TestCoordinatedPrepPlan:
    def test_plan_covers_dataset_exactly_once(self, plan, tiny_dataset):
        assert plan.covers_dataset_exactly_once()
        assert plan.unique_item_fetches() == len(tiny_dataset)

    def test_production_is_balanced_round_robin(self, plan):
        counts = [len(plan.batches_for_producer(j)) for j in range(plan.num_jobs)]
        assert max(counts) - min(counts) <= 1

    def test_producer_lookup_matches_assignments(self, plan):
        for assignment in plan.assignments:
            assert plan.producer_of(assignment.batch_id) == assignment.producer_job

    def test_different_epochs_use_different_permutations(self, tiny_dataset):
        p0 = CoordinatedPrepPlan(tiny_dataset, 4, 16, epoch=0, seed=0)
        p1 = CoordinatedPrepPlan(tiny_dataset, 4, 16, epoch=1, seed=0)
        order0 = np.concatenate([a.item_ids for a in p0.assignments])
        order1 = np.concatenate([a.item_ids for a in p1.assignments])
        assert not np.array_equal(order0, order1)

    def test_validation(self, tiny_dataset):
        with pytest.raises(ConfigurationError):
            CoordinatedPrepPlan(tiny_dataset, 0, 16)
        with pytest.raises(ConfigurationError):
            CoordinatedPrepPlan(tiny_dataset, 2, 0)


class TestCoordinatedEpochRunner:
    def test_lockstep_epoch_gives_every_job_every_batch(self, plan, prep, tiny_dataset):
        runner = CoordinatedEpochRunner(plan, prep, tiny_dataset)
        consumed = runner.run_epoch_in_lockstep()
        for job in range(plan.num_jobs):
            assert len(consumed[job]) == plan.total_batches()
            assert runner.job_epoch_is_complete(job)
        # Once everyone consumed everything the staging area is empty again.
        assert runner.staging.staged_batches == 0

    def test_each_batch_prepped_exactly_once(self, plan, prep, tiny_dataset):
        runner = CoordinatedEpochRunner(plan, prep, tiny_dataset)
        runner.run_epoch_in_lockstep()
        assert runner.staging.produced == plan.total_batches()

    def test_staging_memory_stays_small_in_lockstep(self, plan, prep, tiny_dataset):
        """Sec. 5.5: the staging area holds only in-flight batches, not the dataset."""
        runner = CoordinatedEpochRunner(plan, prep, tiny_dataset)
        runner.run_epoch_in_lockstep()
        prepared_dataset_bytes = sum(
            prep.prepared_bytes(tiny_dataset.item_size(i)) for i in range(len(tiny_dataset)))
        assert runner.staging.peak_bytes < 0.1 * prepared_dataset_bytes

    def test_staged_bytes_are_the_left_to_right_item_sum(self, plan, prep,
                                                         tiny_dataset):
        """The vectorised staging total is the per-item sum, bit for bit."""
        runner = CoordinatedEpochRunner(plan, prep, tiny_dataset)
        for assignment in plan.assignments:
            runner.produce_batch(assignment)
            staged = runner.staging.consume(0, assignment.batch_id)
            assert staged.prepared_bytes == sum(
                prep.prepared_bytes(tiny_dataset.item_size(int(i)))
                for i in assignment.item_ids)

    def test_empty_and_out_of_range_assignments(self, plan, prep,
                                                tiny_dataset):
        runner = CoordinatedEpochRunner(plan, prep, tiny_dataset)
        runner.produce_batch(BatchAssignment(
            batch_id=10_000, producer_job=0,
            item_ids=np.array([], dtype=np.int64)))
        assert runner.staging.consume(0, 10_000).prepared_bytes == 0
        for bad in (len(tiny_dataset), -1):
            with pytest.raises(UnknownItemError):
                runner.produce_batch(BatchAssignment(
                    batch_id=10_001, producer_job=0,
                    item_ids=np.array([0, bad], dtype=np.int64)))

    def test_missing_batch_without_detector_raises(self, plan, prep, tiny_dataset):
        runner = CoordinatedEpochRunner(plan, prep, tiny_dataset)
        from repro.exceptions import StagingTimeoutError
        with pytest.raises(StagingTimeoutError):
            runner.consume_batch(0, 0)

    def test_missing_batch_with_detector_triggers_recovery(self, plan, prep, tiny_dataset):
        detector = FailureDetector(plan.num_jobs, iteration_time_s=0.1,
                                   liveness_probe=lambda job: job != 1)
        runner = CoordinatedEpochRunner(plan, prep, tiny_dataset,
                                        failure_detector=detector)
        victim_batch = plan.batches_for_producer(1)[0].batch_id
        ok = runner.consume_batch(0, victim_batch, waited_s=10.0)
        assert not ok
        assert detector.state(1) is JobState.DEAD
        assert detector.events and detector.events[0].failed_job == 1


class TestFailureDetector:
    def test_timeout_is_ten_iterations_by_default(self):
        detector = FailureDetector(4, iteration_time_s=0.5)
        assert detector.timeout_s == pytest.approx(5.0)

    def test_alive_producer_triggers_retry(self):
        detector = FailureDetector(4, 1.0)
        action = detector.report_timeout(TimeoutReport(0, 7, suspected_producer=2,
                                                       reported_at=1.0))
        assert action is RecoveryAction.RETRY
        assert detector.state(2) is JobState.RUNNING

    def test_stale_report_is_ignored(self):
        detector = FailureDetector(4, 1.0)
        action = detector.report_timeout(
            TimeoutReport(0, 7, 2, 1.0), batch_is_now_staged=True)
        assert action is RecoveryAction.NONE

    def test_dead_producer_triggers_respawn_on_lowest_survivor(self):
        detector = FailureDetector(4, 1.0, liveness_probe=lambda job: job != 2)
        action = detector.report_timeout(TimeoutReport(3, 7, 2, 1.0))
        assert action is RecoveryAction.RESPAWN
        assert detector.state(2) is JobState.DEAD
        assert detector.events[0].reassigned_to == 0
        assert detector.alive_jobs() == {0, 1, 3}

    def test_no_survivor_raises(self):
        detector = FailureDetector(1, 1.0, liveness_probe=lambda job: False)
        with pytest.raises(JobFailedError):
            detector.report_timeout(TimeoutReport(0, 0, 0, 0.0))

    def test_mark_dead_externally(self):
        detector = FailureDetector(2, 1.0)
        detector.mark_dead(1)
        assert detector.alive_jobs() == {0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FailureDetector(0, 1.0)
        with pytest.raises(ConfigurationError):
            FailureDetector(2, 0.0)


class TestHPSearchWiring:
    """An HP-search session wired by hand: one plan, staging area and
    failure detector shared by the runner."""

    def test_runner_shares_the_staging_area_and_detector(self, tiny_dataset, prep):
        plan = CoordinatedPrepPlan(tiny_dataset, num_jobs=4, batch_size=16)
        staging = StagingArea(4, batch_timeout_s=10.0)
        detector = FailureDetector(4, iteration_time_s=1.0)
        runner = CoordinatedEpochRunner(plan, prep, tiny_dataset, staging=staging,
                                        failure_detector=detector)
        assert plan.covers_dataset_exactly_once()
        assert runner.staging is staging and staging.num_jobs == 4
        assert detector.timeout_s == pytest.approx(10.0)
        consumed = runner.run_epoch_in_lockstep()
        assert all(len(batches) == plan.total_batches()
                   for batches in consumed.values())
        later = CoordinatedPrepPlan(tiny_dataset, num_jobs=4, batch_size=16, epoch=3)
        assert later.epoch == 3
