"""repro — reproduction of "Analyzing and Mitigating Data Stalls in DNN Training".

The library has three layers:

* **substrates** — synthetic datasets and samplers (:mod:`repro.datasets`),
  storage devices and I/O accounting (:mod:`repro.storage`), caches
  (:mod:`repro.cache`), pre-processing cost models (:mod:`repro.prep`),
  GPU/model rate models (:mod:`repro.compute`) and server/cluster
  configurations (:mod:`repro.cluster`);
* **contributions** — the CoorDL coordinated data loader
  (:mod:`repro.coordl`: MinIO cache and partitioned caching; coordinated
  prep is priced by the HP-search driver)
  and the DS-Analyzer profiler/predictor (:mod:`repro.dsanalyzer`).  The
  single-server loader kinds, CoorDL and the DALI / native-PyTorch
  baselines alike, are one :class:`~repro.pipeline.DataLoader` class built
  from a recipe table by :func:`~repro.sim.single_server.build_loader`;
* **scenarios** — the pipelined epoch simulator and the single-server,
  distributed-training and HP-search drivers (:mod:`repro.sim`), plus one
  module per paper figure/table in :mod:`repro.experiments`, all memoisable
  through the content-addressed sweep result store and persistent worker
  pool (:mod:`repro.store`).
"""

from repro.cluster import config_hdd_1080ti, config_ssd_v100, get_server_config
from repro.compute import get_model, model_names
from repro.coordl import PartitionedCoorDLLoader
from repro.datasets import SyntheticDataset, get_dataset_spec
from repro.dsanalyzer import DataStallPredictor, DSAnalyzerProfiler
from repro.pipeline import DataLoader
from repro.sim import (
    DistributedTraining,
    HPSearchScenario,
    PipelineSimulator,
    SingleServerTraining,
    SweepPoint,
    SweepResult,
    SweepRunner,
    build_loader,
)
from repro.store import PersistentPool, SweepStore

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SyntheticDataset",
    "get_dataset_spec",
    "get_model",
    "model_names",
    "config_ssd_v100",
    "config_hdd_1080ti",
    "get_server_config",
    "DataLoader",
    "build_loader",
    "PartitionedCoorDLLoader",
    "DSAnalyzerProfiler",
    "DataStallPredictor",
    "PipelineSimulator",
    "SingleServerTraining",
    "DistributedTraining",
    "HPSearchScenario",
    "SweepRunner",
    "SweepPoint",
    "SweepResult",
    "SweepStore",
    "PersistentPool",
]
