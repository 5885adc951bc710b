"""Coordinated prep: sharing one fetch+prep sweep across concurrent HP jobs.

Sec. 4.3: every HP-search job trains on the same dataset, so instead of each
job independently fetching and pre-processing the whole dataset every epoch
(k-fold redundant work), CoorDL

1. assigns each job a random shard of the dataset at the start of the epoch,
2. has each job fetch + prep only its shard, producing minibatches into the
   shared :class:`~repro.coordl.staging.StagingArea`, and
3. lets every job consume every staged minibatch exactly once per epoch.

The invariant — each job processes the entire dataset exactly once per epoch,
with fresh random augmentations — is preserved because the union of the
shards is one full permutation of the dataset and batches never outlive the
epoch.

:class:`CoordinatedPrepPlan` builds and validates the shard/batch assignment;
:class:`CoordinatedEpochRunner` executes an epoch of produce/consume against
the staging area (used directly by tests and by the HP-search simulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.coordl.failure import FailureDetector, RecoveryAction, TimeoutReport
from repro.coordl.staging import StagingArea
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import verify_epoch_invariant
from repro.exceptions import ConfigurationError, StagingTimeoutError
from repro.prep.pipeline import PrepPipeline


@dataclass(frozen=True)
class BatchAssignment:
    """One minibatch of the coordinated epoch: who preps it, which items."""

    batch_id: int
    producer_job: int
    item_ids: np.ndarray


class CoordinatedPrepPlan:
    """Shard/batch assignment for one epoch of coordinated prep.

    Args:
        dataset: Dataset all jobs train on.
        num_jobs: Concurrent HP-search jobs on the server.
        batch_size: Minibatch size (identical across jobs, as in HP search).
        epoch: Epoch index (drives the permutation).
        seed: Base seed shared by the jobs.
    """

    def __init__(self, dataset: SyntheticDataset, num_jobs: int, batch_size: int,
                 epoch: int = 0, seed: int = 0) -> None:
        if num_jobs <= 0:
            raise ConfigurationError("need at least one job")
        if batch_size <= 0:
            raise ConfigurationError("batch size must be positive")
        self._dataset = dataset
        self._num_jobs = num_jobs
        self._batch_size = batch_size
        self._epoch = epoch
        self._seed = seed
        self._assignments = self._build()

    def _build(self) -> List[BatchAssignment]:
        rng = np.random.default_rng((self._seed, self._epoch, 0xC00D))
        permutation = rng.permutation(len(self._dataset)).astype(np.int64)
        assignments: List[BatchAssignment] = []
        for batch_id, start in enumerate(range(0, len(permutation), self._batch_size)):
            items = permutation[start:start + self._batch_size]
            # Round-robin production across jobs keeps the prep load balanced,
            # matching CoorDL's equal-shard assignment.
            producer = batch_id % self._num_jobs
            assignments.append(BatchAssignment(batch_id, producer, items))
        return assignments

    @property
    def num_jobs(self) -> int:
        """Number of jobs sharing the epoch."""
        return self._num_jobs

    @property
    def batch_size(self) -> int:
        """Minibatch size."""
        return self._batch_size

    @property
    def epoch(self) -> int:
        """Epoch index this plan covers."""
        return self._epoch

    @property
    def assignments(self) -> List[BatchAssignment]:
        """All batch assignments in production order."""
        return list(self._assignments)

    def batches_for_producer(self, job: int) -> List[BatchAssignment]:
        """Batches a given job is responsible for prepping."""
        return [a for a in self._assignments if a.producer_job == job]

    def producer_of(self, batch_id: int) -> int:
        """Which job preps a given batch (used by the failure detector)."""
        return self._assignments[batch_id].producer_job

    def total_batches(self) -> int:
        """Number of minibatches in the epoch."""
        return len(self._assignments)

    def covers_dataset_exactly_once(self) -> bool:
        """Validate the exactly-once-per-epoch invariant of the plan."""
        all_items = np.concatenate([a.item_ids for a in self._assignments])
        return verify_epoch_invariant(all_items, len(self._dataset))

    def unique_item_fetches(self) -> int:
        """Items fetched+prepped across ALL jobs in this epoch.

        Equals ``len(dataset)`` — versus ``num_jobs * len(dataset)`` for
        uncoordinated loaders — which is the source of coordinated prep's
        savings.
        """
        return int(sum(len(a.item_ids) for a in self._assignments))


class CoordinatedEpochRunner:
    """Execute one coordinated epoch: produce into staging, consume per job.

    This is the functional (non-timing) half of coordinated prep: it moves
    batches through the staging area, enforces the exactly-once invariant,
    tracks memory, and exercises the failure detector when producers die.
    The HP-search simulator layers device timing on top.
    """

    def __init__(self, plan: CoordinatedPrepPlan, prep: PrepPipeline,
                 dataset: SyntheticDataset,
                 staging: StagingArea | None = None,
                 failure_detector: FailureDetector | None = None) -> None:
        self._plan = plan
        self._prep = prep
        self._dataset = dataset
        self._staging = staging or StagingArea(plan.num_jobs)
        self._detector = failure_detector
        self._consumed_by_job: Dict[int, List[int]] = {
            j: [] for j in range(plan.num_jobs)}

    @property
    def staging(self) -> StagingArea:
        """The staging area used for the epoch."""
        return self._staging

    @property
    def plan(self) -> CoordinatedPrepPlan:
        """The epoch's shard/batch assignment."""
        return self._plan

    def produce_batch(self, assignment: BatchAssignment, now: float = 0.0) -> None:
        """Prep one assigned batch and stage it."""
        # A sequential cumsum adds left to right, as ``sum`` over the items
        # would, so the total is the same float bit for bit.
        sizes = self._prep.prepared_bytes(
            self._dataset.item_sizes(assignment.item_ids))
        prepared = float(np.cumsum(sizes)[-1]) if sizes.size else 0
        self._staging.stage(
            batch_id=assignment.batch_id,
            epoch=self._plan.epoch,
            producer_job=assignment.producer_job,
            item_ids=assignment.item_ids,
            prepared_bytes=prepared,
            now=now,
        )

    def consume_batch(self, job: int, batch_id: int, now: float = 0.0,
                      waited_s: float = 0.0) -> bool:
        """Consume a staged batch on behalf of a job.

        Returns True on success.  When the batch is missing and the wait has
        exceeded the timeout, the failure detector (if configured) is
        consulted; a ``RETRY``/``RESPAWN`` outcome returns False so the caller
        can retry after recovery.
        """
        try:
            self._staging.consume(job, batch_id, now=now)
        except StagingTimeoutError:
            if self._detector is None or waited_s < self._detector.timeout_s:
                raise
            action = self._detector.report_timeout(TimeoutReport(
                reporting_job=job,
                missing_batch_id=batch_id,
                suspected_producer=self._plan.producer_of(batch_id),
                reported_at=now,
            ), batch_is_now_staged=self._staging.is_staged(batch_id))
            return action == RecoveryAction.NONE
        self._consumed_by_job[job].append(batch_id)
        return True

    def run_epoch_in_lockstep(self) -> Dict[int, List[int]]:
        """Run the whole epoch with all jobs progressing batch-by-batch.

        Production order is the plan order; each batch is produced by its
        owner and then consumed by every job.  Returns the per-job list of
        consumed batch ids (all identical and covering the epoch).
        """
        for assignment in self._plan.assignments:
            self.produce_batch(assignment)
            for job in range(self._plan.num_jobs):
                self.consume_batch(job, assignment.batch_id)
        return {j: list(v) for j, v in self._consumed_by_job.items()}

    def job_epoch_is_complete(self, job: int) -> bool:
        """Whether a job has consumed every batch of the epoch."""
        return len(self._consumed_by_job[job]) == self._plan.total_batches()
