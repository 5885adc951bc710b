"""Simulation drivers: the epoch engine, the scenarios and the sweep runner."""

from repro.sim.accuracy import (
    AccuracyCurve,
    TimeToAccuracyResult,
    resnet50_imagenet_curve,
    time_to_accuracy,
)
from repro.sim.distributed import (DISTRIBUTED_KINDS, DistributedEpoch,
                                   DistributedResult, DistributedTraining)
from repro.sim.failures import (
    FAILURE_KINDS,
    FailureEpoch,
    FailureEvent,
    FailureScenario,
    FailureScenarioResult,
)
from repro.sim.engine import (
    BatchTimes,
    PipelineSimulator,
    pipeline_makespan,
    pipeline_makespan_reference,
)
from repro.sim.hp_search import (HP_SEARCH_KINDS, HPSearchEpoch,
                                 HPSearchResult, HPSearchScenario)
from repro.sim.single_server import (
    LOADER_KINDS,
    LOADER_RECIPES,
    SingleServerResult,
    SingleServerTraining,
    best_prep,
    build_loader,
)
from repro.sim.sweep import (POINT_KINDS, SweepPoint, SweepRecord,
                             SweepResult, SweepRunner)

__all__ = [
    "PipelineSimulator",
    "BatchTimes",
    "pipeline_makespan",
    "pipeline_makespan_reference",
    "SweepRunner",
    "SweepPoint",
    "SweepRecord",
    "SweepResult",
    "POINT_KINDS",
    "HP_SEARCH_KINDS",
    "DISTRIBUTED_KINDS",
    "FAILURE_KINDS",
    "FailureScenario",
    "FailureScenarioResult",
    "FailureEpoch",
    "FailureEvent",
    "SingleServerTraining",
    "SingleServerResult",
    "build_loader",
    "best_prep",
    "LOADER_KINDS",
    "LOADER_RECIPES",
    "DistributedTraining",
    "DistributedResult",
    "DistributedEpoch",
    "HPSearchScenario",
    "HPSearchResult",
    "HPSearchEpoch",
    "AccuracyCurve",
    "resnet50_imagenet_curve",
    "time_to_accuracy",
    "TimeToAccuracyResult",
]
