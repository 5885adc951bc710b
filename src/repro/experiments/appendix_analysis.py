"""Appendix B analysis experiments: Figs. 12, 13 and 14.

* Fig. 12 — prep stalls on a high-CPU server (64 vCPUs): hyper-threads help
  only ~30 %, so ResNet18 still has ~37 % prep stalls at 8 vCPUs per GPU.
* Fig. 13 — native PyTorch DataLoader vs DALI (CPU and GPU prep) epoch times
  with a fully cached ImageNet-1K: DALI wins even on CPU because of nvJPEG,
  and GPU prep hurts compute-heavy models.
* Fig. 14 — batch-size sweep for MobileNetV2: larger batches make the GPU
  more efficient but the epoch time stops improving once prep is the
  bottleneck.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.cache.page_cache import PageCache
from repro.cluster.configs import config_high_cpu_v100, config_ssd_v100
from repro.compute.model_zoo import IMAGE_MODELS, MOBILENET_V2, RESNET18, ModelSpec
from repro.datasets.sampler import BatchSampler, RandomSampler
from repro.experiments.base import ExperimentResult, SWEEP_SCALE, scaled_dataset
from repro.pipeline.base import DataLoader
from repro.prep.pipeline import PrepPipeline
from repro.prep.workers import WorkerPool
from repro.sim.engine import PipelineSimulator
from repro.sim.single_server import build_loader, effective_batch_size
from repro.sim.sweep import SweepPoint, SweepRunner
from repro.store import PersistentPool, StoreArg


def run_fig12(scale: float = SWEEP_SCALE, dataset_name: str = "imagenet-1k",
              vcpus_per_gpu: Sequence[int] = (3, 4, 6, 8), seed: int = 0) -> ExperimentResult:
    """Fig. 12 — ResNet18 prep stalls as vCPUs per GPU grow (64-vCPU server)."""
    dataset = scaled_dataset(dataset_name, scale, seed)
    server = config_high_cpu_v100(cache_bytes=dataset.total_bytes * 1.2)
    result = ExperimentResult(
        experiment_id="fig12",
        title="Fig. 12 — ResNet18 prep stall vs vCPUs per GPU (8xV100, 64 vCPUs)",
        columns=["vcpus_per_gpu", "prep_mode", "epoch_time_s", "prep_stall_pct"],
        notes=["paper: 37% prep stall remains even at 8 vCPUs/GPU; hyperthreads add "
               "only ~30% prep throughput"],
    )
    for vcpus in vcpus_per_gpu:
        total_threads = vcpus * server.num_gpus
        physical = min(total_threads, server.physical_cores)
        hyper = max(0, total_threads - server.physical_cores)
        for gpu_prep in (False, True):
            # Explicitly add the hyper-thread share for thread counts beyond
            # the physical cores (Appendix B.1's 30% marginal efficiency).
            pool = WorkerPool(physical_cores=float(physical), hyperthreads=float(hyper),
                              gpu_offload=gpu_prep,
                              gpu_decode_rate_scale=server.gpu.gpu_prep_scale)
            batch_size = effective_batch_size(
                dataset, RESNET18.batch_size_for(server.gpu) * server.num_gpus)
            # What build_loader gives a dali-shuffle job, but prepping on
            # the hyper-threaded pool.
            loader = DataLoader(
                dataset=dataset,
                storage=server.storage,
                cache=PageCache(server.cache_bytes),
                batch_sampler=BatchSampler(RandomSampler(len(dataset), seed=seed),
                                           batch_size),
                prep=PrepPipeline.for_dataset(dataset, "dali"),
                workers=pool,
                num_gpus=server.num_gpus,
            )
            sim = PipelineSimulator(RESNET18, server.gpu)
            stats = sim.run_epochs(loader, 2)[-1]
            result.add_row(
                vcpus_per_gpu=vcpus,
                prep_mode="cpu+gpu" if gpu_prep else "cpu-only",
                epoch_time_s=stats.epoch_time_s,
                prep_stall_pct=100.0 * stats.prep_stall_fraction,
            )
    return result


def run_fig13(scale: float = SWEEP_SCALE, dataset_name: str = "imagenet-1k",
              models: Sequence[ModelSpec] = IMAGE_MODELS, seed: int = 0,
              workers: Optional[int] = None,
              store: StoreArg = None,
              pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Fig. 13 — native PyTorch DL vs DALI-CPU vs DALI-GPU epoch times (cached)."""
    runner = SweepRunner(config_ssd_v100, scale=scale, seed=seed)
    # GPU prep interferes with the model's own compute, so DALI appears both
    # as a CPU-prep and a GPU-prep point per model.
    sweep = runner.run([
        SweepPoint(model=model, loader=loader, dataset=dataset_name,
                   cache_fraction=1.2, gpu_prep=gpu_prep)
        for model in models
        for loader, gpu_prep in (("pytorch", None), ("dali-shuffle", False),
                                 ("dali-shuffle", True))
    ], workers=workers, store=store, pool=pool)
    result = ExperimentResult(
        experiment_id="fig13",
        title="Fig. 13 — epoch time: PyTorch DL vs DALI (CPU prep) vs DALI (GPU prep)",
        columns=["model", "pytorch_epoch_s", "dali_cpu_epoch_s", "dali_gpu_epoch_s",
                 "best_for_model"],
        notes=["dataset fully cached (ImageNet-1K); paper: DALI beats PyTorch DL even "
               "on CPU; GPU prep hurts ResNet50/VGG11"],
    )
    for model in models:
        pytorch = sweep.one(model=model, loader="pytorch").steady.epoch_time_s
        dali_cpu = sweep.one(model=model, loader="dali-shuffle",
                             gpu_prep=False).steady.epoch_time_s
        dali_gpu = sweep.one(model=model, loader="dali-shuffle",
                             gpu_prep=True).steady.epoch_time_s
        best = "dali-gpu" if dali_gpu < dali_cpu else "dali-cpu"
        result.add_row(
            model=model.name,
            pytorch_epoch_s=pytorch,
            dali_cpu_epoch_s=dali_cpu,
            dali_gpu_epoch_s=dali_gpu,
            best_for_model=best,
        )
    return result


def run_fig14(scale: float = SWEEP_SCALE, dataset_name: str = "imagenet-1k",
              batch_sizes: Sequence[int] = (64, 128, 256, 512),
              seed: int = 0) -> ExperimentResult:
    """Fig. 14 — batch-size impact on MobileNetV2 epoch time and prep stalls."""
    dataset = scaled_dataset(dataset_name, scale, seed)
    server = config_ssd_v100(cache_bytes=dataset.total_bytes * 1.2)
    model = MOBILENET_V2
    result = ExperimentResult(
        experiment_id="fig14",
        title="Fig. 14 — MobileNetV2: per-GPU batch size vs epoch time (cached)",
        columns=["batch_size_per_gpu", "gpu_compute_s", "epoch_time_s", "prep_stall_pct"],
        notes=["paper: GPU compute time drops with batch size (less sync) but the "
               "epoch time stays flat because prep is the bottleneck"],
    )
    for batch in batch_sizes:
        # Larger batches reduce per-step synchronisation overhead; model it as
        # a communication overhead inversely proportional to the batch size.
        sync_scale = 512.0 / batch
        scaled_model = replace(model,
                               comm_overhead_per_gpu=model.comm_overhead_per_gpu * sync_scale)
        loader = build_loader("dali-shuffle", dataset, server, scaled_model,
                              gpu_prep=True, seed=seed,
                              batch_size=batch * server.num_gpus)
        sim = PipelineSimulator(scaled_model, server.gpu)
        stats = sim.run_epochs(loader, 2)[-1]
        result.add_row(
            batch_size_per_gpu=batch,
            gpu_compute_s=stats.gpu_time_s,
            epoch_time_s=stats.epoch_time_s,
            prep_stall_pct=100.0 * stats.prep_stall_fraction,
        )
    return result
