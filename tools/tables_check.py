#!/usr/bin/env python3
"""Fail unless the report's tables reproduce the committed digest, with the
segmented-LRU kernel on and off.

Regenerates every registry experiment at the benchmark's report scale
(1/800), in process, with no result store and no worker pool: one
``generate(..., workers=0, store=False, only=[id])`` call per experiment,
the texts joined as the report-cold benchmark joins them.  The fenced table
blocks are digested by ``tables_digest`` from ``bench/workloads.py`` and
compared with ``bench/expected_tables.sha256``.  The report runs twice: with
the warm kernel, then with ``REPRO_WARM_KERNEL=0`` so every page-cache
replay walks item by item.  Both must match the committed digest, and the
kernel-on leg fails unless the native replay core loaded: without a
working C compiler every replay would walk, and that leg would only repeat
the kernel-off one.

Run as ``make tables-check`` (or ``PYTHONPATH=src python tools/tables_check.py``).
"""

from __future__ import annotations

import os
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import REPORT_SCALE, tables_digest  # noqa: E402

from repro.cache.warm_kernel import (  # noqa: E402
    WARM_KERNEL_ENV_VAR,
    native_core_loaded,
)
from repro.experiments import registry  # noqa: E402
from repro.experiments.report_generator import generate  # noqa: E402


def report_digest() -> str:
    """Tables digest of one storeless, serial report at the bench scale."""
    with tempfile.TemporaryDirectory() as work:
        output = os.path.join(work, "report.md")
        parts = [generate(output, scale=REPORT_SCALE, workers=0, store=False,
                          only=[experiment_id])
                 for experiment_id in registry.experiment_ids()]
    return tables_digest("\n".join(parts))


def main() -> int:
    expected = (ROOT / "bench" / "expected_tables.sha256").read_text(
        encoding="ascii").strip()
    failed = False
    for label, setting in (("kernel on", "1"), ("kernel off", "0")):
        # Read per call, so setting it here switches every later replay.
        os.environ[WARM_KERNEL_ENV_VAR] = setting
        began = time.perf_counter()
        digest = report_digest()
        verdict = "ok" if digest == expected else f"MISMATCH, expected {expected}"
        if setting == "1" and not native_core_loaded():
            verdict = "NATIVE CORE NOT LOADED (every replay walked)"
        failed |= verdict != "ok"
        print(f"tables-check {label}: {digest} {verdict} "
              f"({time.perf_counter() - began:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
