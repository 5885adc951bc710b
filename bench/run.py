#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction's public entry points.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload report-cold --seed 0 --seconds 15 --trace 0

prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  It exits non-zero when a correctness check fails.

Every workload, each in a fresh process, with a table and a results file
under ``bench/results/``::

    python3 bench/run.py [--seed 0] [--seconds 15] [--runs N] [--trace]

Medians, quartiles, bounds and a verdict per metric and workload::

    python3 bench/run.py compare BASE.json NEW.json

Append a results file's medians and machine fingerprint to
``bench/history.jsonl``::

    python3 bench/run.py append RESULTS.json

``--smoke`` shrinks every workload (three experiments, ten requests, one
set-up each) to check that the benchmark itself works; the tier-1 suite
runs it through ``bench/test_bench_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

# The program receives only what the benchmark passes: no ambient worker
# count, store, fault plan, kernel switch, host list or codec.  Cleared
# before the library is imported, and so for every child process too.
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
HISTORY = BENCH_DIR / "history.jsonl"
DETAIL_PREFIX = "bench-detail "
CHILD_TIMEOUT_S = 300.0
TERMINATE_GRACE_S = 30.0


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles`` inclusive)."""
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


# -- one run --------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` (``unknown`` without)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> Dict[str, Any]:
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": git_sha(), "loadavg_1m": os.getloadavg()[0]}


def end_to_end(workload: Any, phase: Any, setup: List[float]) -> Dict[str, float]:
    """Timings in reference time (see ``workloads.speed_scale``)."""
    walls = phase.ref_walls() or [0.0]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "latency_p50_ms": statistics.median(walls) * 1000.0,
        "latency_p90_ms": quantile(walls, 0.90) * 1000.0,
        "points_per_s": (phase.points / phase.busy_ref_s
                         if phase.busy_ref_s else 0.0),
        "peak_rss_mb": rss_mb + workload.extra_rss_mb(),
        "setup_s": statistics.median(setup),
    }


def per_layer(workload: Any, tracer: Any, phase: Any, untraced: Any,
              store_faults: Dict[str, int]) -> Dict[str, float]:
    from workloads import store_probe

    ops = max(1, phase.ops)
    own, total, calls, counts = (tracer.self_s, tracer.total_s, tracer.calls,
                                 tracer.counts)
    accesses = counts["cache.warm_kernel_accesses"]
    values = {
        "datasets.build_s": own["datasets.build"] / ops,
        "datasets.builds": calls["datasets.build"] / ops,
        "datasets.sampler_epoch_s": own["datasets.sampler_epoch"] / ops,
        "pipeline.epoch_arrays_s": own["pipeline.epoch_arrays"] / ops,
        "pipeline.epochs": calls["pipeline.epoch_arrays"] / ops,
        "cache.warm_kernel_s": own["cache.warm_kernel"] / ops,
        "cache.warm_kernel_accesses": accesses / ops,
        "cache.warm_kernel_ns_per_access": (own["cache.warm_kernel"] * 1e9
                                            / accesses if accesses else 0.0),
        "sim.makespan_s": own["sim.makespan"] / ops,
        "sim.point_s": own["sim.point"] / ops,
        "sim.points": calls["sim.point"] / ops,
        "sim.run_s": own["sim.run"] / ops,
        "snapshot.encode_s": own["snapshot.encode"] / ops,
        "snapshot.encodes": calls["snapshot.encode"] / ops,
        "snapshot.decode_s": own["snapshot.decode"] / ops,
        "snapshot.decodes": calls["snapshot.decode"] / ops,
        "store.get_s": own["store.get"] / ops,
        "store.gets": calls["store.get"] / ops,
        "store.hit_ratio": (counts["store.hits"] / calls["store.get"]
                            if calls["store.get"] else 0.0),
        "store.backend_get_s": own["store.backend_get"] / ops,
        "store.put_s": own["store.put"] / ops,
        "store.puts": calls["store.put"] / ops,
        "store.backend_put_s": own["store.backend_put"] / ops,
        "store.invalid": store_faults["invalid"] / ops,
        "store.retries": store_faults["retries"] / ops,
        "experiments.reduce_s": own["experiments"] / ops,
        "serve.client_s": own["serve.client"] / ops,
        "serve.submit_s": own["serve.submit"] / ops,
        "serve.wait_s": own["serve.wait"] / ops,
        "serve.coalesced_ratio": 0.0,
        "serve.batch_points_mean": 0.0,
        # Client time the daemon's named spans do not explain: HTTP, JSON
        # text and thread hand-offs.
        "serve.unattributed_s": (own["serve.client"] - total["serve.submit"]
                                 - total["serve.wait"]
                                 - total["wire.encode"]) / ops,
        "wire.encode_s": own["wire.encode"] / ops,
        "wire.decode_s": own["wire.decode"] / ops,
        "dist.run_points_s": own["dist.run_points"] / ops,
        "dist.send_frame_s": own["dist.send_frame"] / ops,
        "dist.recv_frame_s": own["dist.recv_frame"] / ops,
        "dist.frames": (calls["dist.send_frame"]
                        + calls["dist.recv_frame"]) / ops,
        "dist.points_sent": 0.0,
        "dist.steals": 0.0,
        "dist.duplicates": 0.0,
        "dist.useful_ratio": 0.0,
        "dist.serial_pass_s": 0.0,
        "trace.overhead": (statistics.median(phase.ref_walls())
                           / statistics.median(untraced.ref_walls()) - 1.0),
        "trace.coverage": tracer.covered_s / sum(phase.walls),
    }
    values.update(workload.layers(phase))
    values.update(store_probe(workload))
    return values


def run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    work = RESULTS_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Anything the library or SQLite spills to a temp dir stays inside.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    # A terminated run still stops its agents and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _run_one(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_one(args: argparse.Namespace, spec: Dict[str, Any],
             work: Path) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS

    stamp = fingerprint()
    workload = WORKLOADS[args.workload](work, args.seed, args.seconds,
                                        args.smoke)
    try:
        setup = workload.setup()
        if args.trace:
            # The untraced half is the reference for the tracing overhead;
            # per-layer numbers come from the traced half only.
            untraced = workload.run_phase(args.seconds / 2, None)
            tracer = Tracer()
            before = (workload.store_invalid, workload.store_retries)
            tracer.mark_op_thread()
            with tracer.installed():
                phase = workload.run_phase(args.seconds / 2, tracer)
            faults = {"invalid": workload.store_invalid - before[0],
                      "retries": workload.store_retries - before[1]}
            phases = [untraced, phase]
            workload.check()
            values = per_layer(workload, tracer, phase, untraced, faults)
            names = spec["per_layer"]
        else:
            phase = workload.run_phase(args.seconds, None)
            phases = [phase]
            workload.check()
            # Closing first lets dist-golden read its agents' peak RSS.
            workload.close()
            values = end_to_end(workload, phase, setup)
            names = spec["end_to_end"]
    finally:
        workload.close()
    errors = [error for p in phases for error in p.errors] + workload.errors
    result = {
        "correct": not errors,
        "attempted": sum(p.ops for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names},
    }
    detail = dict(workload.detail, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  latency_samples_s=phase.walls, speed_scales=phase.scales,
                  setup_ref_s=setup,
                  errors=errors[:20], fingerprint=stamp)
    for error in errors[:20]:
        print(f"bench: {args.workload}: {error}", file=sys.stderr)
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# -- every workload -------------------------------------------------------


def spawn(workload: str, seed: int, seconds: float, trace: bool,
          smoke: bool) -> Dict[str, Any]:
    """One run in a fresh interpreter; returns its result and detail."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM, not SIGKILL: the child's handler stops its agents and
        # removes its scratch directory.  The run counts as failed.
        proc.terminate()
        try:
            stdout, stderr = proc.communicate(timeout=TERMINATE_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
        stderr += f"\nbench: {workload} timed out after {CHILD_TIMEOUT_S} s\n"
    lines = stdout.strip().splitlines()
    detail: Dict[str, Any] = {}
    for line in lines:
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    if proc.returncode or not result["correct"]:
        sys.stderr.write(stderr[-4000:])
        result["correct"] = False
    return {"result": result, "detail": detail}


def run_all(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    modes = [False, True] if args.trace else [False]
    runs: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        "end_to_end": {name: [] for name in names},
        "per_layer": {name: [] for name in names} if args.trace else {}}
    ok = True
    for index in range(args.runs):
        seed = args.seed + index
        for name in names:
            for trace in modes:
                start = time.perf_counter()
                run = spawn(name, seed, args.seconds, trace, args.smoke)
                kind = "per_layer" if trace else "end_to_end"
                runs[kind][name].append(run)
                ok &= run["result"]["correct"]
                print(f"{name:<12} seed {seed} trace {int(trace)}: "
                      f"{'ok' if run['result']['correct'] else 'FAILED'} "
                      f"({time.perf_counter() - start:.1f} s)", flush=True)
    digests = {run["detail"]["tables_digest"]
               for name in ("report-cold", "report-warm")
               for run in runs["end_to_end"].get(name, [])
               if "tables_digest" in run["detail"]}
    if len(digests) > 1:
        print("bench: report-cold and report-warm tables disagree",
              file=sys.stderr)
        ok = False
    for kind in runs:
        print_table(kind, spec[kind], runs[kind])
    payload = {"fingerprint": fingerprint(), "seed": args.seed,
               "seconds": args.seconds, "smoke": args.smoke, "runs": runs}
    out = RESULTS_DIR / time.strftime("%Y%m%dT%H%M%S.json", time.gmtime())
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"results -> {out}")
    return 0 if ok else 1


def metric_values(runs: List[Dict[str, Any]], name: str) -> List[float]:
    return [run["result"]["metrics"][name]["value"] for run in runs
            if name in run["result"]["metrics"]]


def print_table(kind: str, metrics: List[Dict[str, Any]],
                by_workload: Dict[str, List[Dict[str, Any]]]) -> None:
    names = list(by_workload)
    print(f"\n{kind} (median over runs)")
    print(f"{'metric':<34} {'unit':<9}" + "".join(f"{n:>14}" for n in names))
    for metric in metrics:
        cells = []
        for name in names:
            values = metric_values(by_workload[name], metric["name"])
            cells.append(f"{statistics.median(values):>14.6g}" if values
                         else f"{'-':>14}")
        print(f"{metric['name']:<34} {metric['unit']:<9}" + "".join(cells))


# -- compare / append -----------------------------------------------------


def verdict(base: List[float], new: List[float], better: str,
            bound: float) -> str:
    """better / no worse / regressed / unresolved, for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    base_med, new_med = statistics.median(base), statistics.median(new)
    if not base_med:
        return "no worse" if sign * (new_med - base_med) <= 0 else "regressed"
    worse_by = sign * (new_med - base_med) / abs(base_med)

    def spread(values: List[float]) -> float:
        return ((quantile(values, 0.75) - quantile(values, 0.25))
                / abs(statistics.median(values)))

    pairs = [sign * (n - b) < 0 for n in new for b in base]
    if max(spread(base), spread(new)) > bound:
        return "better" if all(pairs) else "unresolved"
    if worse_by > bound:
        return "regressed"
    # A gain must beat the base's own spread and win nine tenths of pairs.
    if -worse_by > spread(base) and sum(pairs) >= 0.9 * len(pairs):
        return "better"
    return "no worse"


def compare(base_path: str, new_path: str) -> int:
    spec = load_spec()
    base_file = json.loads(Path(base_path).read_text(encoding="utf-8"))
    new_file = json.loads(Path(new_path).read_text(encoding="utf-8"))
    # Runs of another length, size or seed measure other samples (more or
    # fewer passes, other request orders): not comparable run for run.
    for setting in ("seconds", "smoke", "seed"):
        if base_file[setting] != new_file[setting]:
            print(f"bench: refusing to compare: {setting} is "
                  f"{base_file[setting]} in {base_path} but "
                  f"{new_file[setting]} in {new_path}", file=sys.stderr)
            return 2
    base, new = base_file["runs"], new_file["runs"]
    regressed = False
    print(f"{'workload':<12} {'metric':<15} {'base q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'bound':>6}  verdict")
    for workload in base["end_to_end"]:
        if workload not in new["end_to_end"]:
            continue
        for metric in spec["end_to_end"]:
            a = metric_values(base["end_to_end"][workload], metric["name"])
            b = metric_values(new["end_to_end"][workload], metric["name"])
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            cells = [" / ".join(f"{quantile(v, q):.4g}"
                                for q in (0.25, 0.5, 0.75)) for v in (a, b)]
            print(f"{workload:<12} {metric['name']:<15} {cells[0]:>30} "
                  f"{cells[1]:>30} {metric['bound']:>6}  {result}")
    return 1 if regressed else 0


def append(results_path: str) -> int:
    payload = json.loads(Path(results_path).read_text(encoding="utf-8"))

    def medians(runs: List[Dict[str, Any]]) -> Dict[str, float]:
        names = sorted({name for run in runs for name in run["result"]["metrics"]})
        return {name: statistics.median(metric_values(runs, name))
                for name in names}

    line = {"date": time.strftime("%Y-%m-%d", time.gmtime()),
            "fingerprint": payload["fingerprint"], "seed": payload["seed"],
            "seconds": payload["seconds"],
            "runs": max(len(r) for r in payload["runs"]["end_to_end"].values()),
            "medians": {kind: {workload: medians(runs)
                               for workload, runs in by_workload.items()}
                        for kind, by_workload in payload["runs"].items()}}
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"appended {line['runs']}-run medians to {HISTORY}")
    return 0


def parse(argv: List[str]) -> argparse.Namespace:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run this one workload (one run, JSON last line)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics instead of end-to-end ones")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat every workload, seeds seed..seed+N-1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to check the benchmark itself")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv[:1] == ["append"] and len(argv) == 2:
        return append(argv[1])
    args = parse(argv)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
