"""Figure 11 — disk-I/O pattern over an epoch: DALI vs CoorDL (ResNet18).

With the page cache, DALI sees a burst of hits at the start of every epoch
(the most-recently-written pages are still resident) and then degenerates to
continuous storage reads; MinIO's hits are spread uniformly across the epoch
because membership in the cache is static, so the I/O timeline is a straight,
shallower line and the epoch ends earlier.  This experiment reproduces the
cumulative disk-bytes timeline of a steady-state epoch for both loaders.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import RESNET18
from repro.experiments.base import DEFAULT_SCALE, ExperimentResult, scaled_dataset
from repro.sim.engine import PipelineSimulator
from repro.sim.single_server import build_loader


def _bucketed_timeline(timeline: List[Tuple[float, float]], epoch_time: float,
                       buckets: int) -> List[float]:
    """Cumulative disk bytes sampled at evenly spaced fractions of the epoch."""
    samples = []
    for b in range(1, buckets + 1):
        t_limit = epoch_time * b / buckets
        value = 0.0
        for t, cumulative in timeline:
            if t <= t_limit:
                value = cumulative
            else:
                break
        samples.append(value)
    return samples


def run(scale: float = DEFAULT_SCALE, cache_fraction: float = 0.65,
        dataset_name: str = "openimages", buckets: int = 10,
        seed: int = 0) -> ExperimentResult:
    """Reproduce the cumulative disk-I/O timeline of Fig. 11."""
    dataset = scaled_dataset(dataset_name, scale, seed)
    server = config_ssd_v100(cache_bytes=dataset.total_bytes * cache_fraction)
    simulator = PipelineSimulator(RESNET18, server.gpu)
    # Epoch 0 warms the cache; epoch 1 is the steady-state epoch plotted.
    dali, coordl = (
        simulator.run_epochs(
            build_loader(kind, dataset, server, RESNET18, seed=seed), 2)[-1]
        for kind in ("dali-shuffle", "coordl"))

    horizon = max(dali.epoch_time_s, coordl.epoch_time_s)
    dali_series = _bucketed_timeline(dali.io.timeline, horizon, buckets)
    coordl_series = _bucketed_timeline(coordl.io.timeline, horizon, buckets)

    result = ExperimentResult(
        experiment_id="fig11",
        title="Fig. 11 — cumulative disk I/O over an epoch: DALI vs CoorDL "
              "(ResNet18/OpenImages)",
        columns=["epoch_fraction", "dali_disk_gb", "coordl_disk_gb"],
        notes=[f"DALI epoch {dali.epoch_time_s:.1f}s vs CoorDL {coordl.epoch_time_s:.1f}s "
               "(scaled dataset)",
               "paper: DALI hits early then goes disk-bound; CoorDL's I/O is uniform "
               "and the epoch ends earlier"],
    )
    for b in range(buckets):
        result.add_row(
            epoch_fraction=(b + 1) / buckets,
            dali_disk_gb=dali_series[b] / 1e9,
            coordl_disk_gb=coordl_series[b] / 1e9,
        )
    return result
