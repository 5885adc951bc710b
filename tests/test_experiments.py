"""Tests for the experiment framework and the reproduced figures/tables.

Each experiment is run at a very small dataset scale (fast) and checked for
the qualitative shape the paper reports — who wins, roughly by how much,
where the crossovers are.  The full-size runs live in ``benchmarks/``.
"""

from __future__ import annotations

import inspect
import os
import re

import numpy as np
import pytest

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import RESNET18
from repro.exceptions import ConfigurationError
from repro.experiments import registry
from repro.experiments import report_generator
from repro.experiments.base import (
    SWEEP_SCALE,
    ExperimentResult,
    relative,
    scaled_dataset,
)
from repro.sim.sweep import WORKERS_ENV_VAR, SweepRunner

#: Scale used by the fast test runs of the heavier experiments.
TEST_SCALE = 1.0 / 400.0


class TestExperimentResult:
    def test_add_row_and_column_access(self):
        result = ExperimentResult("x", "Example", columns=["a", "b"])
        result.add_row(a=1, b=2.5)
        result.add_row(a=3, b=4.0)
        assert result.column("a") == [1, 3]
        assert result.row_for("a", 3)["b"] == 4.0

    def test_unknown_column_rejected(self):
        result = ExperimentResult("x", "Example", columns=["a"])
        with pytest.raises(ConfigurationError):
            result.add_row(a=1, oops=2)
        with pytest.raises(ConfigurationError):
            result.column("missing")
        result.add_row(a=1)
        with pytest.raises(ConfigurationError):
            result.row_for("a", 99)

    def test_format_table_and_to_dict(self):
        result = ExperimentResult("x", "Example", columns=["name", "value"],
                                  notes=["a note"])
        result.add_row(name="row", value=1234.5678)
        text = result.format_table()
        assert "Example" in text and "row" in text and "note:" in text
        payload = result.to_dict()
        assert payload["experiment_id"] == "x"
        assert payload["rows"][0]["name"] == "row"

    def test_relative_helper(self):
        assert relative([2.0, 4.0], 2.0) == [1.0, 2.0]
        assert relative([1.0], 0.0) == [0.0]

    def test_scaled_dataset_helper(self):
        ds = scaled_dataset("imagenet-1k", 1 / 1000)
        assert 1000 < len(ds) < 1500


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = registry.experiment_ids()
        for expected in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "tab3",
                         "fig8", "fig9a", "fig9b", "fig9d", "fig9e", "fig10",
                         "fig11", "tab5", "fig16", "tab6", "tab7", "fig12",
                         "fig13", "fig14", "fig17", "fig18", "fig19_20", "fig21",
                         "fig22", "fig23"):
            assert expected in ids

    def test_unknown_experiment_raises(self):
        with pytest.raises(ConfigurationError):
            registry.get_experiment("fig99")


class TestAnalysisExperiments:
    def test_fig1_rates_have_the_papers_ordering(self):
        result = registry.run_experiment("fig1", scale=TEST_SCALE)
        rates = {row["component"]: row["rate_mbps"] for row in result.rows}
        hdd = rates["HDD random read"]
        ssd = rates["SSD random read"]
        prep_cpu = rates["prep, 24 CPU cores"]
        prep_gpu = rates["prep, 24 cores + GPU offload"]
        gpu = rates["GPU ingestion demand (8xV100)"]
        assert hdd < ssd < gpu
        assert prep_cpu < prep_gpu < gpu       # the pipeline cannot feed the GPUs

    def test_fig2_models_show_fetch_stalls_at_35pct_cache(self):
        result = registry.run_experiment("fig2", scale=TEST_SCALE)
        stalls = result.column("fetch_stall_pct")
        assert len(stalls) == 9
        # Paper: 10-70% of epoch time blocked on I/O.  The compute-heaviest
        # models (ResNet50/VGG11 on the fast SSD) sit at the very low end.
        assert all(s >= 1.0 for s in stalls)
        assert sum(s >= 10.0 for s in stalls) >= 6
        assert max(stalls) > 40.0

    def test_fig3_thrashing_shrinks_as_cache_grows(self):
        result = registry.run_experiment("fig3", scale=TEST_SCALE,
                                         fractions=(0.35, 0.65, 1.0))
        thrash = result.column("thrashing_stall_s")
        epoch_times = result.column("dali_epoch_s")
        assert thrash[0] > thrash[-1]
        # At a 100% cache budget only page-rounding noise remains.
        assert thrash[-1] < 0.05 * epoch_times[-1]

    def test_fig4_light_models_need_more_cores(self):
        result = registry.run_experiment("fig4", scale=TEST_SCALE,
                                         cores_per_gpu=(3, 12))
        by_model = {}
        for row in result.rows:
            by_model.setdefault(row["model"], {})[row["cores_per_gpu"]] = row
        # ResNet18 gains a lot from more cores, ResNet50 little.
        r18_gain = (by_model["resnet18"][12]["throughput"]
                    / by_model["resnet18"][3]["throughput"])
        r50_gain = (by_model["resnet50"][12]["throughput"]
                    / by_model["resnet50"][3]["throughput"])
        assert r18_gain > r50_gain
        assert by_model["resnet50"][3]["cores_needed_per_gpu"] <= 5
        assert by_model["resnet18"][3]["cores_needed_per_gpu"] >= 6

    def test_fig5_gpu_prep_cannot_fix_the_v100(self):
        result = registry.run_experiment("fig5", scale=TEST_SCALE)
        v100_gpu = result.row_for("server", "Config-SSD-V100")
        rows = [r for r in result.rows
                if r["server"] == "Config-SSD-V100" and r["prep_mode"] == "cpu+gpu"]
        assert rows[0]["prep_stall_pct"] > 20.0
        slow_rows = [r for r in result.rows
                     if r["server"] == "Config-HDD-1080Ti" and r["prep_mode"] == "cpu+gpu"]
        assert slow_rows[0]["prep_stall_pct"] < rows[0]["prep_stall_pct"]

    def test_fig6_prep_stall_decreases_with_model_weight(self):
        result = registry.run_experiment("fig6", scale=TEST_SCALE)
        stalls = {row["model"]: row["prep_stall_pct"] for row in result.rows}
        assert stalls["shufflenetv2"] > stalls["resnet50"]
        assert stalls["alexnet"] > stalls["vgg11"]

    def test_tab3_tfrecord_misses_and_amplification(self):
        result = registry.run_experiment("tab3", scale=1 / 200)
        for row in result.rows:
            assert row["train_miss_pct"] > 80.0
            assert row["read_amplification"] > 4.0

    def test_tab3_lockstep_stream_is_the_nested_loop_order(self, monkeypatch):
        """The HP-search jobs' one-array lockstep stream visits the chunks
        in exactly the order of the per-step, per-job nested loop."""
        from repro.cache.page_cache import PageCache
        from repro.datasets.records import RecordLayout
        from repro.experiments.base import scaled_dataset

        streams = []
        replay = PageCache.bulk_stream_hits

        def recording(cache, item_ids, sizes):
            streams.append(np.array(item_ids))
            return replay(cache, item_ids, sizes)

        monkeypatch.setattr(PageCache, "bulk_stream_hits", recording)
        scale, jobs, seed = 1 / 2000, 3, 5
        registry.run_experiment("tab3", scale=scale, fractions=(0.5,),
                                num_hp_jobs=jobs, seed=seed)
        layout = RecordLayout(scaled_dataset("imagenet-1k", scale, seed),
                              chunk_bytes=150e6 * scale, shuffle_seed=seed)
        orders = [layout.interleaved_chunk_order(8, seed=seed + 10 + j)
                  for j in range(jobs)]
        expected, positions = [], [0] * jobs
        while any(pos < layout.num_chunks for pos in positions):
            for job in range(jobs):
                if positions[job] < layout.num_chunks:
                    expected.append(int(orders[job][positions[job]]))
                    positions[job] += 1
        # Two training scans, then the HP-search warm-up and measured epochs.
        assert [stream.size for stream in streams] == [
            layout.num_chunks] * 2 + [len(expected)] * 2
        assert streams[2].tolist() == streams[3].tolist() == expected

    def test_fig8_minio_matches_capacity_misses(self):
        result = registry.run_experiment("fig8")
        for row in result.rows:
            assert row["minio_misses"] == row["capacity_misses"]
            assert row["page_cache_misses"] >= row["minio_misses"]

    def test_tab5_predictions_close_to_empirical(self):
        result = registry.run_experiment("tab5", scale=TEST_SCALE)
        assert all(row["error_pct"] < 25.0 for row in result.rows)

    def test_fig16_more_cache_never_hurts_and_saturates(self):
        result = registry.run_experiment("fig16", scale=TEST_SCALE,
                                         fractions=(0.0, 0.55, 1.0))
        speeds = result.column("predicted_speed")
        assert speeds[0] < speeds[1]
        assert speeds[2] == pytest.approx(speeds[1], rel=0.25)
        assert result.rows[0]["bottleneck"] == "io-bound"


class TestCoorDLExperiments:
    def test_fig9a_coordl_at_least_matches_dali(self):
        result = registry.run_experiment("fig9a", scale=TEST_SCALE)
        assert all(row["speedup_vs_shuffle"] >= 0.95 for row in result.rows)
        assert max(row["speedup_vs_seq"] for row in result.rows) > 1.2

    def test_fig9b_distributed_speedup_large_on_hdd(self):
        result = registry.run_experiment("fig9b", scale=TEST_SCALE)
        speedups = result.column("speedup")
        assert max(speedups) > 4.0
        assert all(row["coordl_disk_gb_per_server"] <= row["dali_disk_gb_per_server"]
                   for row in result.rows)

    def test_fig9d_hp_search_speedups(self):
        result = registry.run_experiment("fig9d", scale=TEST_SCALE)
        speedups = {row["model"]: row["speedup"] for row in result.rows}
        assert all(s >= 0.95 for s in speedups.values())
        assert speedups["alexnet"] > 1.5
        assert speedups["audio-m5"] > 2.0

    def test_fig9e_speedup_grows_with_job_count(self):
        result = registry.run_experiment("fig9e", scale=TEST_SCALE,
                                         job_configs=((8, 1), (2, 4), (1, 8)))
        by_jobs = {row["num_jobs"]: row["speedup"] for row in result.rows}
        assert by_jobs[8] >= by_jobs[2] >= by_jobs[1] * 0.9

    def test_fig10_time_to_accuracy_improves_by_severalfold(self):
        result = registry.run_experiment("fig10", scale=TEST_SCALE)
        coordl = result.row_for("loader", "coordl")
        dali = result.row_for("loader", "dali")
        assert coordl["epochs_to_target"] == pytest.approx(dali["epochs_to_target"])
        assert coordl["speedup"] > 2.0

    def test_fig11_coordl_reads_less_and_finishes_earlier(self):
        result = registry.run_experiment("fig11", scale=TEST_SCALE)
        last = result.rows[-1]
        assert last["coordl_disk_gb"] < last["dali_disk_gb"]

    def test_tab6_miss_rates_ordered_seq_worst_coordl_best(self):
        result = registry.run_experiment("tab6", scale=TEST_SCALE)
        misses = {row["loader"]: row["cache_miss_pct"] for row in result.rows}
        assert misses["CoorDL"] <= misses["DALI-shuffle"] <= misses["DALI-seq"]
        assert misses["CoorDL"] == pytest.approx(35.0, abs=8.0)

    def test_tab7_speedups_shrink_with_model_weight(self):
        result = registry.run_experiment("tab7", scale=TEST_SCALE)
        speedups = {row["model"]: row["speedup"] for row in result.rows}
        assert speedups["alexnet"] > speedups["resnet50"]
        assert all(s >= 0.99 for s in speedups.values())


class TestAppendixExperiments:
    def test_fig12_prep_stall_persists_with_hyperthreads(self):
        result = registry.run_experiment("fig12", scale=TEST_SCALE,
                                         vcpus_per_gpu=(3, 8))
        rows = [r for r in result.rows if r["prep_mode"] == "cpu+gpu"]
        assert rows[-1]["prep_stall_pct"] > 15.0
        assert rows[-1]["prep_stall_pct"] <= rows[0]["prep_stall_pct"]

    def test_fig13_dali_beats_pytorch_dl(self):
        result = registry.run_experiment("fig13", scale=TEST_SCALE)
        for row in result.rows:
            assert row["dali_cpu_epoch_s"] <= row["pytorch_epoch_s"]
        heavy = result.row_for("model", "resnet50")
        assert heavy["best_for_model"] == "dali-cpu"

    def test_fig14_epoch_time_flat_despite_less_gpu_time(self):
        result = registry.run_experiment("fig14", scale=TEST_SCALE,
                                         batch_sizes=(64, 512))
        small, large = result.rows[0], result.rows[-1]
        assert large["gpu_compute_s"] < small["gpu_compute_s"]
        assert large["epoch_time_s"] >= 0.85 * small["epoch_time_s"]

    def test_fig17_imagenet22k_hp_search(self):
        result = registry.run_experiment("fig17", scale=TEST_SCALE)
        assert all(row["speedup"] >= 0.95 for row in result.rows)
        assert max(row["speedup"] for row in result.rows) > 1.3

    def test_fig18_coordl_scales_and_removes_disk_io(self):
        result = registry.run_experiment("fig18", scale=TEST_SCALE, node_counts=(2, 4))
        assert all(row["coordl_disk_gb_per_server"] == pytest.approx(0.0, abs=1e-6)
                   for row in result.rows)
        assert result.rows[-1]["coordl_throughput"] > result.rows[0]["coordl_throughput"]

    def test_fig19_20_utilisation_and_memory(self):
        result = registry.run_experiment("fig19_20", scale=TEST_SCALE)
        util = result.row_for("metric", "cpu_utilisation_pct")
        assert util["coordl"] >= util["dali"]
        staging = result.row_for("metric", "staging_peak_gb")
        assert 0.0 < staging["coordl"] < 64.0

    def test_fig21_pycoordl_helps_more_on_hdd_than_ssd(self):
        result = registry.run_experiment("fig21", scale=TEST_SCALE,
                                         cache_fractions=(0.6,))
        hdd = [r for r in result.rows if r["storage"] == "hdd"][0]
        ssd = [r for r in result.rows if r["storage"] == "sata-ssd"][0]
        assert hdd["speedup"] > ssd["speedup"]
        assert hdd["speedup"] > 1.3

    def test_fig22_coordinated_prep_beats_pytorch_dl(self):
        result = registry.run_experiment("fig22", scale=TEST_SCALE)
        assert all(row["speedup"] > 1.2 for row in result.rows)

    def test_fig23_full_pycoordl_is_best_on_hdd(self):
        result = registry.run_experiment("fig23", scale=TEST_SCALE)
        hdd_rows = {r["configuration"]: r for r in result.rows if r["storage"] == "hdd"}
        assert (hdd_rows["py-coordl"]["epoch_time_s"]
                <= hdd_rows["coordinated-prep"]["epoch_time_s"]
                <= hdd_rows["pytorch-dl"]["epoch_time_s"])
        # Full Py-CoorDL wins by well over 1.5x on both server types.
        for storage in ("hdd", "sata-ssd"):
            pycoordl = next(r for r in result.rows if r["storage"] == storage
                            and r["configuration"] == "py-coordl")
            assert pycoordl["speedup_vs_baseline"] > 1.5


class TestReport:
    #: The timing line ``bench/workloads.py`` strips before hashing tables.
    TIMING_LINE = re.compile(r"^\*\(regenerated in .*\)\*$", re.MULTILINE)

    def test_report_is_identical_once_timing_lines_are_stripped(self, tmp_path):
        texts = [report_generator.generate(str(tmp_path / f"report{run}.md"),
                                           scale=TEST_SCALE, only=["tab5", "tab6"])
                 for run in (0, 1)]
        assert (tmp_path / "report1.md").read_text(encoding="utf-8") == texts[1]
        timing = self.TIMING_LINE.findall(texts[0])
        assert len(timing) == 2
        assert "`python -m repro run-experiment tab6`" in timing[1]
        stripped = [self.TIMING_LINE.sub("", text) for text in texts]
        assert stripped[0] == stripped[1]

    def test_expectations_and_deviations_name_registered_experiments(self):
        ids = set(registry.experiment_ids())
        assert set(report_generator.PAPER_EXPECTATIONS) == ids
        assert set(report_generator.KNOWN_DEVIATIONS) <= ids

    def test_tab5_and_tab6_deviations_quote_the_measured_tables(self):
        """The prose is written from a 1/100-scale run; it must move with it."""
        tab5_note = report_generator.KNOWN_DEVIATIONS["tab5"]
        errors = registry.run_experiment("tab5", scale=SWEEP_SCALE).column("error_pct")
        assert f"{min(errors):.1f}-{max(errors):.1f}%" in tab5_note
        assert max(errors) < 4.0        # "within the paper's bound"
        tab6_note = report_generator.KNOWN_DEVIATIONS["tab6"]
        for row in registry.run_experiment("tab6", scale=SWEEP_SCALE).rows:
            assert f"{row['cache_miss_pct']:.1f}%" in tab6_note
            assert f"{row['disk_io_gb']:.0f} GB" in tab6_note


class TestOneExecutorPerCommand:
    """A command decides once where its sweeps run: every experiment takes
    an executor (``pool``), and only ``generate`` takes a worker count."""

    SCALE = 0.002

    def _strip(self, text: str) -> str:
        return TestReport.TIMING_LINE.sub("", text)

    def test_no_experiment_takes_a_worker_count(self):
        for experiment_id in registry.experiment_ids():
            parameters = inspect.signature(
                registry.get_experiment(experiment_id)).parameters
            assert "workers" not in parameters, experiment_id
            if "pool" in parameters:
                assert "store" in parameters, experiment_id

    def test_a_pooled_report_spawns_one_pool_and_closes_it(
            self, tmp_path, monkeypatch, built_pools):
        monkeypatch.setattr("os.cpu_count", lambda: 2)  # survive the clamp
        pooled = report_generator.generate(
            str(tmp_path / "pooled.md"), scale=self.SCALE, workers=2,
            store=False)
        (pool,) = built_pools
        assert pool.closes == 1
        assert pool.pids_seen, "no sweep ran in the pool"
        for pid in pool.pids_seen:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # no worker is left running
        serial = report_generator.generate(
            str(tmp_path / "serial.md"), scale=self.SCALE, workers=0,
            store=False)
        assert len(built_pools) == 1
        assert self._strip(pooled) == self._strip(serial)

    def test_a_failing_report_still_closes_its_pool(self, tmp_path,
                                                    monkeypatch, built_pools):
        def fail(experiment_id, **kwargs):
            raise RuntimeError(f"{experiment_id} failed")

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr(registry, "run_experiment", fail)
        with pytest.raises(RuntimeError, match="fig3 failed"):
            report_generator.generate(str(tmp_path / "report.md"),
                                      scale=self.SCALE, workers=2,
                                      store=False, only=["fig3"])
        (pool,) = built_pools
        assert pool.closes == 1

    def test_workers_zero_beats_the_environment(self, tmp_path, monkeypatch,
                                                built_pools):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        report_generator.generate(str(tmp_path / "report.md"),
                                  scale=self.SCALE, workers=0, store=False,
                                  only=["fig3", "fig8"])
        assert built_pools == []

    def test_a_supplied_pool_outlives_the_report(self, tmp_path, monkeypatch,
                                                 built_pools):
        import repro.store.pool as pool_module

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        pool = pool_module.PersistentPool(2)
        try:
            report_generator.generate(str(tmp_path / "report.md"),
                                      scale=self.SCALE, workers=2, pool=pool,
                                      store=False, only=["fig3"])
            assert built_pools == [pool] and pool.closes == 0
            runner = SweepRunner(config_ssd_v100, scale=self.SCALE, seed=0)
            points = SweepRunner.grid(models=[RESNET18],
                                      loaders=["coordl", "dali-shuffle"],
                                      cache_fractions=(0.5,))
            assert (runner.run(points, pool=pool, store=False).snapshot()
                    == runner.run(points, workers=0, store=False).snapshot())
        finally:
            pool.close()
