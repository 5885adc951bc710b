#!/usr/bin/env python3
"""CI gate for the runtime resilience layer (``repro.resilience``).

Replays every committed golden grid under the committed fault plan
(``tools/fault_plans/ci.json``) — per store backend, through a real
supervised worker pool — and enforces the resilience contract:

* the plan's faults actually fire: at least one worker is SIGKILLed and
  at least two transient store errors are injected *per grid* (a gate
  that injects nothing proves nothing);
* a kill interrupts work: over each backend's pass the pool respawns at
  least once and re-runs at least one point (a kill that lands after a
  grid has drained leaves both at zero and proves nothing about
  recovery);
* every grid completes **byte-identical** to its committed
  ``tests/golden`` snapshot despite the murdered workers and failing
  store — recovery re-runs are exact, retries are absorbed, and the
  store ends the grid healthy (``mode == "ok"``) with a read/write trace
  that still satisfies the write-once contract (``verify_store_trace``);
* the serve daemon run under the same plan answers correctly through an
  injected batch stall and reports its per-subsystem recovery counters
  on ``/v1/health``.

The pool is driven explicitly (``run(points, pool=...)``) so kills fire
on any machine: the sweep's serial fallback at clamped worker counts
would otherwise leave the kill schedule idle on single-core CI runners.

Delivered fault counts, respawn/re-run/retry counters and per-grid
timings land in ``BENCH_resilience.json`` at the repository root (the
CI artifact the ``resilience`` leg uploads).

Run as ``make chaos-check`` or ``PYTHONPATH=src python
tools/chaos_check.py [--backend json|sqlite|both] [--grids NAME ...]
[--plan FILE]``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.resilience import (  # noqa: E402
    FaultPlan,
    clear_installed,
    install_plan,
)
from repro.sim.harness import (  # noqa: E402
    GOLDEN_GRIDS,
    load_golden,
    snapshot_diff,
)
from repro.store import (  # noqa: E402
    PersistentPool,
    SweepStore,
    verify_store_trace,
)
from repro.store.backend import SQLITE_URI_PREFIX  # noqa: E402

#: Backends the gate replays (the acceptance bar covers both).
BACKENDS = ("json", "sqlite")

#: Where the committed golden snapshots live.
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: The committed chaos schedule the gate runs under by default.
DEFAULT_PLAN_PATH = REPO_ROOT / "tools" / "fault_plans" / "ci.json"

#: Where the chaos counters land (repo root, uploaded as a CI artifact).
REPORT_PATH = REPO_ROOT / "BENCH_resilience.json"

#: Worker processes per grid run (clamped to the machine's core count by
#: the pool; one worker still exercises kill -> respawn -> re-run).
POOL_WORKERS = 2


def backend_location(root: pathlib.Path, backend: str) -> str:
    """Store location string for one backend under a scratch root."""
    if backend == "sqlite":
        return f"{SQLITE_URI_PREFIX}{root / 'store.db'}"
    return str(root / "store")


def run_grid_under_chaos(name: str, location: str, backend: str,
                         plan: FaultPlan) -> dict:
    """One golden grid under the plan, through a supervised pool."""
    grid = GOLDEN_GRIDS[name]
    # A fresh injector per grid, adopted by the store and the pool.
    injector = install_plan(plan)
    try:
        store = SweepStore(location, trace=True)
        start = time.perf_counter()
        with PersistentPool(POOL_WORKERS, chunksize=1) as pool:
            actual = grid.build_runner().run(grid.points(), pool=pool,
                                             store=store).snapshot()
            respawns, reruns = pool.respawns, pool.reruns
        elapsed = time.perf_counter() - start
    finally:
        clear_installed()
    counters = injector.snapshot()

    diffs = snapshot_diff(load_golden(name, GOLDEN_DIR), actual)
    if diffs:
        raise AssertionError(
            f"[{backend}] {name}: chaos run diverged from the committed "
            f"golden (first differences: {diffs})")
    violations = verify_store_trace(store.trace_events)
    if violations:
        raise AssertionError(
            f"[{backend}] {name}: store trace violates the write-once "
            f"contract under faults: {violations}")
    if counters["worker_kills"] < 1:
        raise AssertionError(
            f"[{backend}] {name}: the plan delivered no worker kill to "
            f"this grid's pool")
    if counters["transient_store_faults"] < 2:
        raise AssertionError(
            f"[{backend}] {name}: expected >= 2 injected transient store "
            f"errors, got {counters['transient_store_faults']}")
    if store.mode != "ok":
        raise AssertionError(
            f"[{backend}] {name}: transient-only plan degraded the store "
            f"to {store.mode!r} ({store.degraded_reason})")
    store.close()
    return {
        "points": len(grid.points()),
        "elapsed_s": round(elapsed, 6),
        "respawns": respawns,
        "reruns": reruns,
        "store_retries": store.retries,
        "store_mode": store.mode,
        "faults": counters,
    }


def run_serve_probe(location: str, plan: FaultPlan) -> dict:
    """One daemon under the plan: stalled batch, correct answer, counters."""
    from repro.serve import ServeClient, ServeDaemon

    grid = GOLDEN_GRIDS["fig3_small"]
    install_plan(plan)
    try:
        daemon = ServeDaemon(port=0, store=location)
    finally:
        clear_installed()
    with daemon:
        client = ServeClient(daemon.url)
        results = client.whatif(grid.build_runner(), grid.points())
        bad = [r.status for r in results if r.status != "ok"]
        if bad:
            raise AssertionError(f"serve probe: non-ok statuses {bad}")
        served = {"records": [r.record.snapshot() for r in results]}
        diffs = snapshot_diff(load_golden("fig3_small", GOLDEN_DIR), served)
        if diffs:
            raise AssertionError(
                f"serve probe: served records diverge from the committed "
                f"golden under the fault plan (first: {diffs})")
        health = client.health()
    if plan.serve_stalls and health["faults"]["batch_stalls"] < 1:
        raise AssertionError("serve probe: the planned batch stall never "
                             "fired")
    if "subsystems" not in health or "admission" not in health["subsystems"]:
        raise AssertionError("serve probe: /v1/health lost its subsystem "
                             "report")
    return {
        "status": health["status"],
        "subsystems": health["subsystems"],
        "faults": health["faults"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=(*BACKENDS, "both"),
                        default="both", help="backend(s) to gate")
    parser.add_argument("--grids", nargs="+", metavar="NAME",
                        choices=sorted(GOLDEN_GRIDS), default=None,
                        help="restrict the gate to these golden grids "
                             "(default: all committed grids)")
    parser.add_argument("--plan", type=pathlib.Path,
                        default=DEFAULT_PLAN_PATH,
                        help="fault plan JSON file (default: the committed "
                             "CI plan)")
    args = parser.parse_args()
    plan = FaultPlan.from_json(args.plan.read_text(encoding="utf-8"))
    selected = BACKENDS if args.backend == "both" else (args.backend,)
    grid_names = (tuple(sorted(args.grids)) if args.grids
                  else tuple(sorted(GOLDEN_GRIDS)))

    scratch = pathlib.Path(tempfile.mkdtemp(prefix="chaos-gate-"))
    per_backend = {}
    serve_probe = {}
    try:
        for backend in selected:
            grids = {}
            for name in grid_names:
                root = scratch / backend / name
                root.mkdir(parents=True, exist_ok=True)
                grids[name] = run_grid_under_chaos(
                    name, backend_location(root, backend), backend, plan)
            per_backend[backend] = {
                "grids": grids,
                "totals": {
                    "worker_kills": sum(g["faults"]["worker_kills"]
                                        for g in grids.values()),
                    "store_faults": sum(g["faults"]["store_faults"]
                                        for g in grids.values()),
                    "respawns": sum(g["respawns"] for g in grids.values()),
                    "reruns": sum(g["reruns"] for g in grids.values()),
                    "store_retries": sum(g["store_retries"]
                                         for g in grids.values()),
                    "elapsed_s": round(sum(g["elapsed_s"]
                                           for g in grids.values()), 6),
                },
            }
        serve_root = scratch / "serve"
        serve_root.mkdir(parents=True, exist_ok=True)
        serve_probe = run_serve_probe(str(serve_root / "store"), plan)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    payload = {
        "schema": "repro-chaos-gate/1",
        "plan": plan.to_dict(),
        "grids": list(grid_names),
        "backends": per_backend,
        "serve": serve_probe,
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    for backend, result in per_backend.items():
        totals = result["totals"]
        if totals["respawns"] < 1 or totals["reruns"] < 1:
            raise AssertionError(
                f"[{backend}] no worker kill interrupted work: "
                f"{totals['worker_kills']} kill(s) gave {totals['respawns']} "
                f"respawns and {totals['reruns']} re-run points, so the "
                f"kill -> respawn -> re-run path did not run "
                f"(counters in {REPORT_PATH.name})")
    for backend, result in per_backend.items():
        totals = result["totals"]
        print(f"chaos-check[{backend}]: {len(grid_names)} golden grids "
              f"byte-identical under {totals['worker_kills']} worker "
              f"kill(s), {totals['store_faults']} injected store error(s) "
              f"({totals['respawns']} respawns, {totals['reruns']} re-run "
              f"points, {totals['store_retries']} store retries; "
              f"{totals['elapsed_s']:.2f} s)")
    print(f"chaos-check[serve]: daemon answered byte-identical through a "
          f"stalled batch; health status {serve_probe['status']!r}; "
          f"counters -> {REPORT_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
