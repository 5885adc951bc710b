#!/usr/bin/env python3
"""CI gate for the multi-host sweep fabric (``repro.dist``).

Replays every committed golden grid through a :class:`DistExecutor` over
real ``python -m repro dist worker`` subprocesses and enforces the
scale-out contract:

* **byte identity at every topology** — each grid is replayed over one
  and over two agents, and every run must match the committed
  ``tests/golden`` snapshot byte for byte (the distributed run is the
  serial run, just elsewhere);
* **the driver keeps the store** — each run writes through a fresh
  ``sqlite://`` store whose recorded read/write trace must satisfy the
  write-once contract (``verify_store_trace``), with exactly one put per
  grid point: zero lost records, zero duplicated records, whatever the
  chunk assignment or steals did;
* **host death costs time, never bytes** — a second pass per grid runs a
  two-agent fleet under a ``host_kills`` fault plan whose ``kill_hook``
  SIGKILLs one live agent after the first delivered record.  The grid
  must still complete byte-identical with exactly one host lost, and at
  least one chunk must be reassigned somewhere across the pass (a gate
  that kills nothing mid-flight proves nothing);
* **stopped agents leave nothing running** — every agent's descendants
  are recorded before its fleet closes, and each must have exited
  (zombies count as exited) within ``ORPHAN_WAIT_S`` of the close.

Per-topology timings, steal/reassignment counters and delivered-fault
counts land in ``BENCH_dist.json`` at the repository root (the CI
artifact the ``dist`` leg uploads).

Run as ``make dist-check`` or ``PYTHONPATH=src python
tools/dist_check.py [--grids NAME ...] [--skip-fault-pass]``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import shutil
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.dist import DistExecutor, LocalWorkerFleet  # noqa: E402
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
from repro.store import SweepStore, verify_store_trace  # noqa: E402

#: Where the committed golden snapshots live.
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: Where the fabric counters land (repo root, uploaded as a CI artifact).
REPORT_PATH = REPO_ROOT / "BENCH_dist.json"

#: The acceptance topologies: agent counts.
TOPOLOGIES = (1, 2)

#: The fault pass's schedule: SIGKILL one agent after the first delivered
#: record of every grid.
FAULT_PLAN = FaultPlan(host_kills=(1,))

#: Seconds a closed fleet's agent descendants get to exit.
ORPHAN_WAIT_S = 10.0


@contextlib.contextmanager
def checked_fleet(count: int, orphans: list):
    """A ``LocalWorkerFleet`` whose agents' descendants must exit with it.

    Descendants still running ``ORPHAN_WAIT_S`` after the close are
    appended to ``orphans``.
    """
    with LocalWorkerFleet(count) as fleet:
        try:
            yield fleet
        finally:
            descendants = fleet.descendant_pids()
    orphans.extend(LocalWorkerFleet.survivors(descendants, ORPHAN_WAIT_S))


def run_grid(name: str, executor: DistExecutor, location: str,
             context: str) -> dict:
    """One golden grid through the fabric; assert bytes, store and trace."""
    grid = GOLDEN_GRIDS[name]
    points = grid.points()
    store = SweepStore(location, trace=True, trace_writer="dist-gate")
    start = time.perf_counter()
    actual = grid.build_runner().run(points, pool=executor,
                                     store=store).snapshot()
    elapsed = time.perf_counter() - start

    diffs = snapshot_diff(load_golden(name, GOLDEN_DIR), actual)
    if diffs:
        raise AssertionError(
            f"[{context}] {name}: distributed run diverged from the "
            f"committed golden (first differences: {diffs})")
    violations = verify_store_trace(store.trace_events)
    if violations:
        raise AssertionError(
            f"[{context}] {name}: store trace violates the write-once "
            f"contract: {violations}")
    # Zero lost, zero duplicated: the driver committed each point once.
    if store.puts != len(points) or store.stats().entries != len(points):
        raise AssertionError(
            f"[{context}] {name}: expected exactly {len(points)} stored "
            f"records, saw {store.puts} puts / "
            f"{store.stats().entries} entries")
    store.close()
    return {"points": len(points), "elapsed_s": round(elapsed, 6)}


def run_clean_pass(grid_names, scratch: pathlib.Path,
                   orphans: list) -> dict:
    """Every grid at every agent count, byte-identical."""
    results = {}
    for hosts in TOPOLOGIES:
        key = f"hosts={hosts}"
        grids = {}
        with checked_fleet(hosts, orphans) as fleet:
            with DistExecutor(fleet.endpoints, chunksize=1) as executor:
                for name in grid_names:
                    root = scratch / "clean" / key / name
                    root.mkdir(parents=True, exist_ok=True)
                    grids[name] = run_grid(
                        name, executor, f"sqlite://{root / 'store.db'}", key)
                counters = {
                    "points_sent": executor.points_sent,
                    "steals": executor.steals,
                    "duplicates": executor.duplicates,
                    "hosts_lost": executor.hosts_lost,
                }
        if counters["hosts_lost"]:
            raise AssertionError(
                f"[{key}] lost {counters['hosts_lost']} host(s) during the "
                f"clean pass — agents must not die without a fault plan")
        results[key] = {"grids": grids, "counters": counters}
    return results


def run_fault_pass(grid_names, scratch: pathlib.Path,
                   orphans: list) -> dict:
    """Every grid with one agent SIGKILLed mid-sweep, still byte-identical."""
    grids = {}
    for name in grid_names:
        # A fresh two-agent fleet per grid: every grid murders one.
        with checked_fleet(2, orphans) as fleet:
            injector = install_plan(FAULT_PLAN)
            try:
                executor = DistExecutor(fleet.endpoints, chunksize=1,
                                        kill_hook=fleet.kill_one)
            finally:
                clear_installed()
            with executor:
                root = scratch / "fault" / name
                root.mkdir(parents=True, exist_ok=True)
                result = run_grid(name, executor,
                                  f"sqlite://{root / 'store.db'}",
                                  "host-death")
                counters = injector.snapshot()
                if counters["host_kills"] != 1:
                    raise AssertionError(
                        f"[host-death] {name}: the plan delivered "
                        f"{counters['host_kills']} agent kill(s), wanted "
                        f"exactly 1 — the fault path was not exercised")
                if executor.hosts_lost != 1:
                    raise AssertionError(
                        f"[host-death] {name}: executor observed "
                        f"{executor.hosts_lost} host death(s), wanted 1")
                if len(fleet.alive) != 1:
                    raise AssertionError(
                        f"[host-death] {name}: {len(fleet.alive)} agents "
                        f"alive after the kill, wanted 1")
                result.update({
                    "reassignments": executor.reassignments,
                    "rerun_points": executor.rerun_points,
                    "hosts_lost": executor.hosts_lost,
                    "faults": counters,
                })
                grids[name] = result
    total_reassigned = sum(g["reassignments"] for g in grids.values())
    if total_reassigned < 1:
        raise AssertionError(
            "host-death pass: no chunk was ever reassigned — every kill "
            "landed after the victim's work had drained, so the recovery "
            "path went unexercised")
    return {
        "grids": grids,
        "totals": {
            "host_kills": sum(g["faults"]["host_kills"]
                              for g in grids.values()),
            "reassignments": total_reassigned,
            "rerun_points": sum(g["rerun_points"] for g in grids.values()),
            "elapsed_s": round(sum(g["elapsed_s"] for g in grids.values()),
                               6),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grids", nargs="+", metavar="NAME",
                        choices=sorted(GOLDEN_GRIDS), default=None,
                        help="restrict the gate to these golden grids "
                             "(default: all committed grids)")
    parser.add_argument("--skip-fault-pass", action="store_true",
                        help="run only the clean topology sweep (dev loop)")
    args = parser.parse_args()
    grid_names = (tuple(sorted(args.grids)) if args.grids
                  else tuple(sorted(GOLDEN_GRIDS)))

    scratch = pathlib.Path(tempfile.mkdtemp(prefix="dist-gate-"))
    orphans: list = []
    try:
        clean = run_clean_pass(grid_names, scratch, orphans)
        fault = ({} if args.skip_fault_pass
                 else run_fault_pass(grid_names, scratch, orphans))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    payload = {
        "schema": "repro-dist-gate/1",
        "grids": list(grid_names),
        "topologies": [f"hosts={hosts}" for hosts in TOPOLOGIES],
        "clean": clean,
        "host_death": fault,
        "orphans": len(orphans),
    }
    REPORT_PATH.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")

    for key, result in clean.items():
        counters = result["counters"]
        elapsed = sum(g["elapsed_s"] for g in result["grids"].values())
        print(f"dist-check[{key}]: {len(grid_names)} golden grids "
              f"byte-identical ({counters['points_sent']} points shipped, "
              f"{counters['steals']} steals, {counters['duplicates']} "
              f"deduped duplicates; {elapsed:.2f} s)")
    if fault:
        totals = fault["totals"]
        print(f"dist-check[host-death]: {len(grid_names)} golden grids "
              f"byte-identical through {totals['host_kills']} SIGKILLed "
              f"agent(s) ({totals['reassignments']} chunk reassignments, "
              f"{totals['rerun_points']} re-shipped points; "
              f"{totals['elapsed_s']:.2f} s)")
    print(f"dist-check: counters -> {REPORT_PATH.name}")
    if orphans:
        print(f"dist-check: FAILED: {len(orphans)} agent descendant "
              f"process(es) still running {ORPHAN_WAIT_S:.0f} s after their "
              f"fleet closed (pids {sorted(orphans)})", file=sys.stderr)
        return 1
    print("dist-check: no agent left a process running")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
