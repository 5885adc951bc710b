"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main
from repro.dist import HOSTS_ENV_VAR
from repro.exceptions import ConfigurationError
from repro.experiments import registry
from repro.sim.sweep import WORKERS_ENV_VAR
from repro.store import STORE_ENV_VAR, SweepStore

#: The per-experiment timing line of a report.
TIMING_LINE = re.compile(r"^\*\(regenerated in .*\)\*$", re.MULTILINE)


class TestCLI:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(registry.experiment_ids())

    def test_run_experiment_prints_table(self, capsys):
        assert main(["run-experiment", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "MinIO" in out and "page cache" in out

    def test_run_experiment_with_scale(self, capsys):
        assert main(["run-experiment", "fig1", "--scale", "0.002"]) == 0
        assert "ResNet18" in capsys.readouterr().out

    def test_profile_command(self, capsys):
        code = main(["profile", "resnet18", "openimages", "config-ssd-v100",
                     "--cache", "0.5", "--scale", "0.002", "--gpu-prep"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GPU ingestion rate" in out
        assert "Recommended cache" in out

    def test_report_command_writes_file(self, tmp_path, capsys):
        # Use a large scale divisor to keep the full report generation fast.
        output = tmp_path / "EXPERIMENTS_test.md"
        assert main(["report", "-o", str(output), "--scale", "0.002"]) == 0
        text = output.read_text()
        assert "# EXPERIMENTS" in text
        assert "Fig. 9" in text

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fly-to-the-moon"])

    def test_dist_worker_takes_no_local_fan_out(self):
        """One agent is one execution slot; more cores run more agents."""
        with pytest.raises(SystemExit) as excinfo:
            main(["dist", "worker", "--workers", "2"])
        assert excinfo.value.code == 2

    def test_unknown_experiment_raises_library_error(self):
        from repro.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError):
            main(["run-experiment", "fig99"])


class TestCLIStore:
    def test_run_experiment_populates_and_reuses_the_store(self, tmp_path,
                                                           capsys):
        store_dir = tmp_path / "store"
        args = ["run-experiment", "fig3", "--scale", "0.002",
                "--store", str(store_dir)]
        assert main(args) == 0
        entries = SweepStore(store_dir).stats().entries
        assert entries > 0
        first = capsys.readouterr().out
        # The warm re-run serves every point from the store and prints the
        # identical table (rehydrated records are bit-exact).
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert SweepStore(store_dir).stats().entries == entries

    def test_no_store_beats_the_environment_default(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "ambient"))
        assert main(["run-experiment", "fig3", "--scale", "0.002",
                     "--no-store"]) == 0
        assert not (tmp_path / "ambient").exists()

    def test_store_flag_on_experiment_without_sweeps_warns(self, tmp_path,
                                                           capsys):
        assert main(["run-experiment", "fig8",
                     "--store", str(tmp_path / "s")]) == 0
        assert "ignoring --store" in capsys.readouterr().err

    def test_store_management_subcommands(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["run-experiment", "fig3", "--scale", "0.002",
                     "--store", str(store_dir)]) == 0
        capsys.readouterr()

        assert main(["store", "stats", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and str(store_dir) in out

        assert main(["store", "gc", "--max-entries", "1",
                     "--store", str(store_dir)]) == 0
        assert "entries" in capsys.readouterr().out
        assert SweepStore(store_dir).stats().entries == 1

        assert main(["store", "invalidate", "--store", str(store_dir)]) == 0
        assert "invalidated 1 entries" in capsys.readouterr().out
        assert SweepStore(store_dir).stats().entries == 0

    def test_sqlite_store_uri_round_trips_through_the_cli(self, tmp_path,
                                                          capsys):
        """--store sqlite://FILE selects the SQLite backend end to end."""
        uri = f"sqlite://{tmp_path / 'store.db'}"
        args = ["run-experiment", "fig3", "--scale", "0.002", "--store", uri]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0  # warm: every point served from SQLite
        assert capsys.readouterr().out == first

        assert main(["store", "stats", "--store", uri]) == 0
        out = capsys.readouterr().out
        assert "[sqlite]" in out and "entries" in out

    def test_store_migrate_subcommand(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["run-experiment", "fig3", "--scale", "0.002",
                     "--store", str(store_dir)]) == 0
        entries = SweepStore(store_dir).stats().entries
        first = capsys.readouterr().out

        uri = f"sqlite://{tmp_path / 'store.db'}"
        assert main(["store", "migrate", "--store", str(store_dir),
                     "--to", uri]) == 0
        out = capsys.readouterr().out
        assert f"migrated {entries} entries" in out and "[sqlite]" in out

        # The migrated store serves the experiment warm, byte-identically.
        assert main(["run-experiment", "fig3", "--scale", "0.002",
                     "--store", uri]) == 0
        assert capsys.readouterr().out == first
        assert SweepStore(uri).stats().entries == entries

    def test_store_subcommand_reads_the_environment_default(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "ambient"))
        assert main(["store", "stats"]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_store_subcommand_without_directory_fails(self, monkeypatch):
        from repro.exceptions import ConfigurationError
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        with pytest.raises(ConfigurationError):
            main(["store", "stats"])


class TestCLIFanOut:
    """``--workers`` and ``--hosts`` decide one executor per command."""

    @pytest.fixture
    def no_dialling(self, monkeypatch):
        """Fail the test if any command dials a worker agent."""
        from repro.dist import executor as executor_module

        def refuse(*args, **kwargs):  # pragma: no cover - a failure path
            raise AssertionError("a worker agent was dialled")

        monkeypatch.setattr(executor_module.socket, "create_connection",
                            refuse)

    def test_report_workers_two_writes_the_serial_tables(
            self, tmp_path, monkeypatch, built_pools):
        monkeypatch.setattr("os.cpu_count", lambda: 2)  # survive the clamp
        texts = []
        for workers in ("2", "0"):
            output = tmp_path / f"report-{workers}.md"
            assert main(["report", "-o", str(output), "--workers", workers,
                         "--no-store", "--scale", "0.002"]) == 0
            texts.append(TIMING_LINE.sub("", output.read_text()))
        assert texts[0] == texts[1]
        (pool,) = built_pools
        assert pool.closes == 1

    def test_run_experiment_workers_zero_beats_the_environment(
            self, monkeypatch, built_pools, capsys):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        assert main(["run-experiment", "fig3", "--workers", "0",
                     "--scale", "0.002", "--no-store"]) == 0
        assert "ResNet18" in capsys.readouterr().out
        assert built_pools == []

    @pytest.mark.parametrize("command", [
        ["run-experiment", "fig3"], ["report", "-o", "unwritten.md"]])
    @pytest.mark.parametrize("hosts_from", ["flag", "environment"])
    def test_workers_with_hosts_is_rejected_before_any_fan_out(
            self, monkeypatch, tmp_path, built_pools, no_dialling, command,
            hosts_from):
        monkeypatch.chdir(tmp_path)
        args = command + ["--workers", "2", "--scale", "0.002", "--no-store"]
        if hosts_from == "flag":
            args += ["--hosts", "127.0.0.1:1"]
        else:
            monkeypatch.setenv(HOSTS_ENV_VAR, "127.0.0.1:1")
        with pytest.raises(ConfigurationError, match="not both"):
            main(args)
        assert built_pools == []
        assert not (tmp_path / "unwritten.md").exists()

    @pytest.mark.parametrize("flags, ignored", [
        (["--workers", "2"], "parallelise; ignoring --workers"),
        (["--hosts", "127.0.0.1:1"], "distribute; ignoring --hosts"),
        (["--workers", "0", "--hosts", "127.0.0.1:1"],
         "distribute; ignoring --hosts"),
    ])
    def test_experiment_without_a_grid_warns_and_spawns_nothing(
            self, monkeypatch, no_dialling, capsys, flags, ignored):
        import repro.store.pool as pool_module

        def refuse(method):  # pragma: no cover - a failure path
            raise AssertionError("a worker process was spawned")

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr(pool_module.multiprocessing, "get_context",
                            refuse)
        assert main(["run-experiment", "fig8"] + flags) == 0
        assert f"fig8 has no sweep grid to {ignored}" in (
            capsys.readouterr().err)
