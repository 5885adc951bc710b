"""Catalog of the datasets used in the paper (Table 1).

The paper evaluates on four large datasets.  We never need the actual images
or audio clips — only the number of items, the size distribution of the items
and the task they serve — so each dataset is described by a
:class:`DatasetSpec` and materialised on demand as a synthetic
:class:`~repro.datasets.dataset.SyntheticDataset`.

Sizes and counts follow the paper:

* ImageNet-1K: 146 GiB, ~1.28 M images, ~150 KB average (Sec. 3.1, App. D.1)
* ImageNet-22K: 1.3 TB, ~14 M images, ~90 KB average (App. D.1)
* OpenImages (extended): 645 GB, ~300 KB average image (App. D.1)
* OpenImages (detection split): 561 GB
* FMA (Free Music Archive): 950 GB of audio clips
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro import units
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a training dataset.

    Attributes:
        name: Canonical dataset name used throughout experiments.
        task: Task family ("image_classification", "object_detection",
            "audio_classification").
        num_items: Number of training samples.
        mean_item_bytes: Average on-disk size of a raw (encoded) sample.
        item_size_cv: Coefficient of variation of the item-size distribution.
            Real JPEG corpora have substantial size spread; this drives the
            lognormal synthetic size generator.
        prep_cost_scale: Relative CPU cost of pre-processing one item compared
            to an ImageNet-1K image (richer datasets such as OpenImages have
            larger decoded images and therefore cost more to prep).
    """

    name: str
    task: str
    num_items: int
    mean_item_bytes: float
    item_size_cv: float = 0.45
    prep_cost_scale: float = 1.0

    @property
    def total_bytes(self) -> float:
        """Approximate total on-disk footprint of the dataset."""
        return self.num_items * self.mean_item_bytes

    def scaled(self, fraction: float) -> "DatasetSpec":
        """Return a proportionally smaller copy of this spec (at least 64 items).

        Simulating every one of the 14 M ImageNet-22K items at item
        granularity is unnecessary for the statistics we need; experiments
        typically run on a 1/100 – 1/1000 scale model with identical
        size-distribution and cache-fraction behaviour.
        """
        if not 0 < fraction <= 1:
            raise ConfigurationError(f"scale fraction must be in (0, 1], got {fraction}")
        return DatasetSpec(
            name=f"{self.name}@{fraction:g}",
            task=self.task,
            num_items=max(64, int(round(self.num_items * fraction))),
            mean_item_bytes=self.mean_item_bytes,
            item_size_cv=self.item_size_cv,
            prep_cost_scale=self.prep_cost_scale,
        )


IMAGENET_1K = DatasetSpec(
    name="imagenet-1k",
    task="image_classification",
    num_items=1_281_167,
    mean_item_bytes=units.KiB(114),  # 146 GiB / 1.28 M items ~= 114 KiB (~150 KB)
    item_size_cv=0.5,
    prep_cost_scale=1.0,
)

IMAGENET_22K = DatasetSpec(
    name="imagenet-22k",
    task="image_classification",
    num_items=14_200_000,
    mean_item_bytes=units.KiB(90),
    item_size_cv=0.55,
    prep_cost_scale=1.0,
)

OPENIMAGES = DatasetSpec(
    name="openimages",
    task="image_classification",
    num_items=2_150_000,
    mean_item_bytes=units.KiB(300),  # 645 GB / 2.15 M items ~= 300 KB
    item_size_cv=0.5,
    prep_cost_scale=1.0,  # decode cost scales with the (larger) encoded bytes already
)

OPENIMAGES_DETECTION = DatasetSpec(
    name="openimages-detection",
    task="object_detection",
    num_items=1_870_000,
    mean_item_bytes=units.KiB(300),
    item_size_cv=0.5,
    prep_cost_scale=1.25,  # detection prep adds box-aware transforms
)

FMA = DatasetSpec(
    name="fma",
    task="audio_classification",
    num_items=930_000,
    mean_item_bytes=units.MiB(1.0),  # 950 GB of audio clips
    item_size_cv=0.3,
    prep_cost_scale=1.0,
)

_CATALOG: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (IMAGENET_1K, IMAGENET_22K, OPENIMAGES, OPENIMAGES_DETECTION, FMA)
}


def dataset_names() -> Tuple[str, ...]:
    """Names of every dataset in the catalog."""
    return tuple(sorted(_CATALOG))


def get_dataset_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by name.

    Raises:
        ConfigurationError: if the name is not in the catalog.
    """
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(dataset_names())
        raise ConfigurationError(f"unknown dataset {name!r}; known datasets: {known}") from None
