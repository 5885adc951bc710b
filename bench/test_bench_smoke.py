"""Smoke test of the end-to-end benchmark.

Every workload runs at ``--smoke`` size (three report experiments, ten
serve requests, one dist pass, one set-up), untraced and traced, in its own
interpreter through the command form ``BENCHMARK.json`` names.  Each run
must pass its correctness checks and emit exactly the metrics it names.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Bound on one smoke run (2-7 s on a 2-core machine).
RUN_TIMEOUT_S = 120.0


def launch(workload: str, trace: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def collect(proc: subprocess.Popen) -> Dict[str, Any]:
    """The JSON object on a finished run's last stdout line."""
    stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    assert proc.returncode == 0, stderr[-4000:]
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_runs_are_correct_and_emit_every_metric(workload: str) -> None:
    # The untraced and the traced run go side by side, one per core.
    procs = {"end_to_end": launch(workload, 0), "per_layer": launch(workload, 1)}
    try:
        results = {kind: collect(proc) for kind, proc in procs.items()}
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                # SIGTERM lets a run stop its agents and remove its scratch.
                proc.terminate()
                proc.communicate(timeout=RUN_TIMEOUT_S)
    for kind, result in results.items():
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
        emitted = {name: value["unit"]
                   for name, value in result["metrics"].items()}
        assert emitted == expected
        assert all(isinstance(value["value"], (int, float))
                   for value in result["metrics"].values())
