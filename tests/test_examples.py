"""Every script under examples/ runs to completion against the in-tree sources.

Each example runs in a fresh interpreter whose environment holds only
``PYTHONPATH=src``, so an example that imports a removed name, or that
depends on a ``REPRO_*`` variable of the calling shell, fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Seconds one example may take; each finishes in well under a second on a
#: 2-core x86_64 VM.
TIMEOUT_S = 60


def test_examples_found():
    assert EXAMPLES, "no scripts under examples/"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        env={"PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
