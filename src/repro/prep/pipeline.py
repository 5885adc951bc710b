"""Pre-processing pipeline: combines transform stages into per-sample costs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.prep.transforms import Transform, expansion_factor, pipeline_for_task

if TYPE_CHECKING:
    from repro.datasets.dataset import SyntheticDataset

# One second of CPU work on an offloaded stage becomes this many seconds of
# GPU work: GPUs decode JPEGs several times faster than a core.
GPU_OFFLOAD_EFFICIENCY = 0.25


@dataclass(frozen=True)
class PrepCost:
    """CPU/GPU split of the cost of prepping one sample (elementwise
    arrays for an array of sample sizes)."""

    cpu_core_seconds: Any
    gpu_seconds: Any


class PrepPipeline:
    """An ordered list of transforms applied to every sample.

    Args:
        stages: Transform stages in application order.
        task: Task family, used for the decoded-size expansion factor.
    """

    def __init__(self, stages: Sequence[Transform],
                 task: str = "image_classification") -> None:
        if not stages:
            raise ConfigurationError("a prep pipeline needs at least one stage")
        self._stages = tuple(stages)
        self._task = task

    @classmethod
    def for_task(cls, task: str, library: str = "dali") -> "PrepPipeline":
        """Build the standard pipeline for a task and dataloader library."""
        return cls(pipeline_for_task(task, library=library), task=task)

    @classmethod
    def for_dataset(cls, dataset: "SyntheticDataset",
                    library: str = "dali") -> "PrepPipeline":
        """The standard pipeline for a dataset's task, at its prep cost.

        Every loader and scenario builds its prep pipeline here: the task's
        stages for ``library`` (:meth:`for_task`), scaled by the dataset's
        ``prep_cost_scale``.
        """
        spec = dataset.spec
        return cls.for_task(spec.task, library).with_scaled_cost(spec.prep_cost_scale)

    @property
    def stages(self) -> Tuple[Transform, ...]:
        """Transform stages in order."""
        return self._stages

    @property
    def task(self) -> str:
        """Task family this pipeline serves."""
        return self._task

    @property
    def has_stochastic_stage(self) -> bool:
        """True when any stage applies random augmentation.

        If true, pre-processed output must be regenerated every epoch — the
        correctness constraint behind coordinated prep's within-epoch-only
        sharing (Sec. 4.3).
        """
        return any(stage.stochastic for stage in self._stages)

    def sample_cost(self, raw_bytes: Any, gpu_offload: bool = False) -> PrepCost:
        """Cost of prepping one sample of the given raw size.

        Args:
            raw_bytes: Encoded on-disk size of the sample, or an array of
                sizes: each cost is then an array (or ``0.0`` where no
                stage contributes), summed stage by stage as for one size.
            gpu_offload: Whether offloadable stages run on the GPU (DALI's
                GPU-prep mode).
        """
        cpu = 0.0
        gpu = 0.0
        for stage in self._stages:
            cost = stage.cpu_cost(raw_bytes)
            if gpu_offload and stage.gpu_offloadable:
                gpu += cost * GPU_OFFLOAD_EFFICIENCY
            else:
                cpu += cost
        return PrepCost(cpu_core_seconds=cpu, gpu_seconds=gpu)

    def prepared_bytes(self, raw_bytes: float) -> float:
        """Size of the pre-processed (decoded, augmented) sample in memory."""
        return raw_bytes * expansion_factor(self._task)

    def with_scaled_cost(self, scale: float) -> "PrepPipeline":
        """Return a pipeline with every stage's cost multiplied by ``scale``.

        Used to apply per-dataset prep-cost scaling (OpenImages images are
        larger after decode than ImageNet's) without duplicating stage lists.
        """
        if scale <= 0:
            raise ConfigurationError("cost scale must be positive")
        scaled = tuple(
            Transform(
                name=s.name,
                cpu_seconds_per_byte=s.cpu_seconds_per_byte * scale,
                cpu_seconds_fixed=s.cpu_seconds_fixed * scale,
                gpu_offloadable=s.gpu_offloadable,
                stochastic=s.stochastic,
            )
            for s in self._stages
        )
        return PrepPipeline(scaled, task=self._task)
