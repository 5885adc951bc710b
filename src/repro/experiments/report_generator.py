"""Generate the paper-vs-measured report for every reproduced table/figure.

Usage::

    python -m repro.experiments.report_generator [output_path] [scale]

Runs every registered experiment (at a configurable dataset scale) and writes
a markdown report (``EXPERIMENTS.md`` by default) containing, per experiment:
what the paper reports, the measured table from this reproduction, and any
known deviations.  ``repro report`` is the command-line front end.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Sequence

from repro.exceptions import ConfigurationError
from repro.experiments import registry
from repro.experiments.base import SWEEP_SCALE
from repro.store import PersistentPool, StoreArg

#: What the paper reports for each experiment, quoted/condensed from the text.
PAPER_EXPECTATIONS: Dict[str, str] = {
    "fig1": "HDD 15 MB/s, SSD 530 MB/s, effective fetch 802 MB/s at a 35% cache, "
            "CPU prep 735 MB/s (1062 MB/s with GPU offload) vs a GPU demand of "
            "2283 MB/s for 8xV100 ResNet18 — the pipeline cannot keep the GPUs busy.",
    "fig2": "With 35% of the dataset cached on Config-SSD-V100, the nine models "
            "spend 10-70% of epoch time blocked on I/O.",
    "fig3": "ResNet18 epoch time splits into compute, the ideal (capacity-miss) "
            "fetch stall, and an extra ~20% of misses caused by page-cache thrashing; "
            "the thrashing share disappears as the cache approaches the dataset size.",
    "fig4": "3-4 prep cores per GPU suffice for ResNet50; ResNet18/AlexNet need "
            "12-24 cores per GPU to mask prep stalls.",
    "fig5": "DALI's GPU-assisted prep eliminates the ResNet18 prep stall on 1080Ti "
            "servers but still leaves ~50% prep stall on V100s (3 cores/GPU).",
    "fig6": "With 8 GPUs and 3 cores/GPU, prep stalls range from ~5% (compute-heavy "
            "models) to ~65% (compute-light models).",
    "tab3": "TensorFlow/TFRecord: 91/94/97% cache misses at 50/35/25% cache for an "
            "8-GPU job, and 6.1-7.3x read amplification (860-1019 GB of disk I/O) "
            "for 8 uncoordinated HP-search jobs.",
    "fig8": "On a 4-item dataset with a 2-item cache, MinIO always takes exactly the "
            "2 capacity misses per epoch; the LRU page cache takes 2-4.",
    "fig9a": "Single-server training: CoorDL (MinIO) is up to 1.8x faster than "
             "DALI-seq and up to ~1.5x faster than DALI-shuffle; gains are larger on "
             "the HDD SKU (2.1x / 1.53x for ResNet50 on OpenImages).",
    "fig9b": "Two-server distributed training: partitioned caching gives up to 15x "
             "on HDD servers (AlexNet/OpenImages) and 1.3-2.9x on SSD servers, by "
             "eliminating storage I/O after the first epoch.",
    "fig9d": "8-job HP search on Config-SSD-V100: ~3x for AlexNet/ShuffleNet, 5.6x "
             "for the M5 audio model, 1.9x for ResNet50.",
    "fig9e": "AlexNet HP search with 8x1 / 4x2 / 2x4 / 1x8 GPU jobs: a single job "
             "benefits from MinIO only; the coordinated-prep benefit grows with the "
             "number of concurrent jobs.",
    "fig10": "ResNet50/ImageNet-1K to 75.9% top-1 on 16x1080Ti across 2 HDD servers: "
             "~2 days with DALI vs ~12 hours with CoorDL (4x); the accuracy-vs-epoch "
             "curve is unchanged.",
    "fig11": "DALI sees cache hits early in each epoch then becomes disk-bound; "
             "CoorDL's disk I/O is uniform across the epoch, totals less, and the "
             "epoch finishes earlier.",
    "tab5": "DS-Analyzer's predicted training speed for 25/35/50% caches is within "
            "4% of the measured values (AlexNet, Config-SSD-V100).",
    "fig16": "Predicted and empirical speed agree that ~55% of ImageNet-1K cached is "
             "enough for AlexNet; beyond that the job is CPU-bound and more DRAM "
             "does not help.",
    "tab6": "ShuffleNetV2/OpenImages at a 65% cache: 66% misses & 422 GB disk I/O "
            "(DALI-seq), 53% & 340 GB (DALI-shuffle), 35% & 225 GB (CoorDL = the "
            "capacity minimum).",
    "tab7": "HP search with the dataset fully cached: CoorDL speeds per-job training "
            "by 1.21-1.87x purely by removing redundant pre-processing.",
    "fig12": "On a 64-vCPU server, ResNet18 still shows ~37% prep stall at 8 vCPUs "
             "per GPU; hyper-threads add only ~30% prep throughput.",
    "fig13": "DALI beats the Pillow-based PyTorch DataLoader even with CPU-only "
             "prep; GPU-based prep helps light models but hurts ResNet50/VGG11.",
    "fig14": "Larger MobileNetV2 batches reduce GPU compute time per epoch but the "
             "epoch time stays flat because prep is the bottleneck.",
    "fig17": "HP search on ImageNet-22K: up to 2.5x speedup; fetch stalls are lower "
             "than OpenImages because items are smaller.",
    "fig18": "ResNet50/OpenImages across 2-4 HDD servers: DALI remains IO-bound "
             "(disk I/O per server shrinks but GPUs grow proportionally); CoorDL "
             "does no disk I/O beyond the first epoch and keeps scaling.",
    "fig19_20": "CoorDL turns CPU time wasted waiting on I/O into useful prep, and "
                "the cross-job staging area costs only ~5 GB of memory.",
    "fig21": "MinIO inside the native PyTorch DataLoader (Py-CoorDL) gives 2.1-3.3x "
             "on HDD; on SSD gains are marginal because Pillow prep is the bottleneck.",
    "fig22": "Py-CoorDL's coordinated prep cuts training time ~1.8x for 8 concurrent "
             "PyTorch-DL jobs on a cached dataset.",
    "fig23": "End-to-end Ray-Tune-style HP search: coordinated prep alone gives "
             "~2.5x on HDD (less on SSD); adding MinIO brings the total to ~5.5x on "
             "HDD.",
    "fig_crash": "(beyond paper) Sec. 4.4 describes the failure protocol — timeout "
                 "= 10x iteration time, pending minibatch reassigned — but never "
                 "quantifies a crash; this what-if measures the detection stall "
                 "plus the cache re-warm I/O per crash schedule.",
    "fig_elastic": "(beyond paper) CoorDL's partitioned cache assumes static "
                   "membership; this what-if lets servers join (cold, warming via "
                   "the miss path) and leave (cached bytes lost, survivors "
                   "re-fetch) mid-training.",
    "fig_straggler": "(beyond paper) the epoch of a data-parallel job is bound by "
                     "its slowest rank; this what-if degrades individual servers' "
                     "network/disk rates and measures the drag.",
    "fig_multitenant": "(beyond paper) Tab. 3 shows uncoordinated HP jobs thrash "
                       "the page cache; this what-if scales the number of "
                       "concurrent campaigns sharing one cache and core budget.",
}

#: Known, intentional deviations of this reproduction from the paper's numbers.
KNOWN_DEVIATIONS: Dict[str, str] = {
    "fig2": "VGG11/ResNet50 on the SSD SKU show smaller fetch stalls than the paper "
            "because the calibrated page-cache model is slightly more favourable to "
            "them at a 35% cache.",
    "fig9b": "Speedups on the HDD SKU come out larger than the paper's 15x because "
             "the simulated page cache keeps a somewhat lower hit rate and the HDD "
             "model uses the conservative 15 MB/s random-read figure.",
    "fig10": "The measured speedup (~9x) exceeds the paper's 4x for the same reason "
             "as Fig. 9(b): the DALI baseline's effective HDD throughput is "
             "conservative.  CoorDL's absolute time-to-accuracy (~12 h) matches.",
    "tab5": "Within the paper's bound: at 1/100 scale the prediction error is "
            "2.5-3.1% across the 25/35/50% caches, against the paper's 4%.  The "
            "predictor overestimates at every cache size; the 'empirical' side "
            "here is the discrete pipelined simulation, not a training run.",
    "tab6": "The DALI baselines miss far more than the paper measured.  At 1/100 "
            "scale DALI-seq misses 99.1% and reads 654 GB (paper: 66%, 422 GB); "
            "DALI-shuffle misses 72.2% and reads 478 GB (paper: 53%, 340 GB).  "
            "The two-list segmented-LRU model of Linux's page cache evicts nearly "
            "every page before its reuse under DALI-seq's storage-order scan, and "
            "thrashes harder than the paper's servers under random reads.  CoorDL "
            "sits at the 35% capacity minimum (35.1%, 231 GB against 225 GB).",
}


def generate(output_path: str = "EXPERIMENTS.md", scale: float = SWEEP_SCALE,
             workers: "int | None" = None, store: StoreArg = None,
             pool: "PersistentPool | None" = None,
             only: "Sequence[str] | None" = None) -> str:
    """Run every experiment and write the markdown report; returns the text.

    ``workers`` fans each sweep-backed experiment's grid out over that many
    processes (byte-identical results; experiments without a sweep grid
    ignore it).  ``store`` memoises every sweep point in a content-addressed
    result store (a :class:`repro.store.SweepStore` or directory path;
    ``None`` reads ``REPRO_SWEEP_STORE``, ``False`` disables): a warm
    second ``generate`` reduces to near-pure store reads.  ``pool`` hands
    the sweep-backed experiments an already-spawned
    :class:`~repro.store.PersistentPool` (the serve daemon shares its pool
    this way).  ``only`` restricts the report to the named experiment ids,
    in registry order.
    """
    if only is not None:
        known = set(registry.experiment_ids())
        unknown = sorted(set(only) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown experiment ids in only=: {unknown}")
        wanted = [eid for eid in registry.experiment_ids() if eid in set(only)]
    else:
        wanted = registry.experiment_ids()
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Every table and figure of the paper's analysis, evaluation and appendix, "
        "regenerated by `python -m repro report`.",
        "",
        f"Datasets are simulated at 1/{round(1 / scale)} of their real size "
        "(cache fractions, stall fractions and speedups are scale-free; absolute "
        "epoch times scale linearly).  Disk-I/O columns are scaled back to full "
        "dataset size where the column name says so.",
        "",
    ]
    for experiment_id in wanted:
        start = time.time()
        kwargs, _ignored = registry.experiment_kwargs(
            experiment_id, scale=scale, workers=workers, store=store, pool=pool)
        result = registry.run_experiment(experiment_id, **kwargs)
        elapsed = time.time() - start
        lines.append(f"## {result.title}")
        lines.append("")
        lines.append(f"**Paper:** {PAPER_EXPECTATIONS.get(experiment_id, '(n/a)')}")
        lines.append("")
        lines.append("**Measured:**")
        lines.append("")
        lines.append("```")
        lines.append(result.format_table())
        lines.append("```")
        lines.append("")
        if experiment_id in KNOWN_DEVIATIONS:
            lines.append(f"**Deviation:** {KNOWN_DEVIATIONS[experiment_id]}")
            lines.append("")
        lines.append(f"*(regenerated in {elapsed:.1f} s; rerun alone with "
                     f"`python -m repro run-experiment {experiment_id}`)*")
        lines.append("")
    text = "\n".join(lines)
    with open(output_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


def main() -> None:
    """CLI entry point."""
    output = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else SWEEP_SCALE
    generate(output, scale)
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
