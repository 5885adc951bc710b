"""The benchmark's four workloads, each driven through a public entry point.

=============  ==========================================================
report-cold    ``report_generator.generate`` over the whole registry into
               a fresh JSON-directory store per pass: every sweep point
               is simulated and written.
report-warm    the same report against a store one cold pass populated:
               every sweep point is a store hit, nothing is simulated.
serve-zipf     a closed loop of two client threads sending 200
               ``/v1/whatif`` requests to an in-process ``ServeDaemon``
               (fresh store), points drawn Zipf(0.8) from a 90-point
               universe.
dist-golden    a ``DistExecutor`` over a two-agent ``LocalWorkerFleet``
               replaying the seven golden grids, no store.
=============  ==========================================================

Every workload exposes ``setup()`` (returns set-up time samples),
``run_phase(seconds, tracer)`` (the measured operations), ``check()``,
``layers(phase)`` (per-layer values only the workload can read) and
``close()``.  An operation is a report pass, a request or a dist pass; its
latency samples are the units a user waits on: one experiment (a
``generate(only=[id])`` call), one request, one grid sweep.  Inputs are
fixed or derived from the seed so their cost does not depend on it: the
report is the fixed registry, the serve request multiset is fixed and the
seed only orders it, and the dist grid order is a seed permutation.

Every latency sample and set-up sample is paired with a *speed probe*: a
fixed piece of pure-Python work timed right after it (see ``speed_scale``).
On a shared 2-vCPU VM the CPU speed drifts by up to 2x over seconds to
minutes, and no counter in the guest shows it.  A sample multiplied by the
probe's reference time over its current time reads as if the CPU ran at
reference speed.  The raw samples stay in the run's detail line.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from tracing import Tracer

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import get_model
from repro.dist import DistExecutor, LocalWorkerFleet
from repro.experiments import registry
from repro.experiments.report_generator import generate
from repro.serve import ServeClient, ServeDaemon
from repro.sim.harness import GOLDEN_GRIDS, load_golden, snapshot_diff
from repro.sim.sweep import SweepPoint, SweepResult, SweepRunner
from repro.store import SweepStore, migrate_store

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = ROOT / "tests" / "golden"

#: Dataset scale of both report workloads.  The default ``SWEEP_SCALE``
#: (1/100) makes one cold report take ~35 s, more than one benchmark run
#: may; at 1/800 every experiment and code path still runs and fig17 is
#: still the largest experiment.
REPORT_SCALE = 1.0 / 800.0

#: Scale of the serve universe (the golden grids' scale).
SERVE_SCALE = 1.0 / 400.0

#: Set-up is repeated this many times per run and reported as a median.
#: A fresh interpreter's start varies most between tries and costs least,
#: so set-ups that are one cold start repeat more.
SETUP_REPEATS = 3
COLD_START_REPEATS = 9

#: Requests in one serve round.  A round is a fixed list on a fresh daemon
#: and store, so every run serves the same traffic whatever its length; a
#: longer run only serves more rounds.
SERVE_REQUESTS = 200

#: Requests between two speed probes.  Both clients finish the group
#: before the probe runs, so the probe never competes with the daemon.
SERVE_GROUP = 10

#: The serve traffic mix is an assumption, not recorded traffic: no public
#: trace of what-if queries exists.  A change may not claim a gain that
#: rests on this skew (say, a cache sized for it) from serve-zipf alone.
SERVE_MODELS = ("alexnet", "resnet18", "shufflenetv2", "squeezenet",
                "mobilenetv2", "resnet50")
SERVE_LOADERS = ("dali-shuffle", "coordl", "dali-seq")
SERVE_FRACTIONS = (0.25, 0.35, 0.5, 0.65, 0.8)
ZIPF_EXPONENT = 0.8
MAX_POINTS_PER_REQUEST = 4

#: Seed of the serve request multiset.  Fixed, so every ``--seed`` serves
#: the same points the same number of times, only in another order.
SERVE_MIX_SEED = 20210801

#: Time of ``speed_probe`` on a 2-vCPU Intel Xeon VM in a quiet period;
#: normalised times read as seconds on that machine at that speed.
PROBE_REFERENCE_S = 0.00145

#: Closed-loop clients and dist agents: one per core of a 2-core machine.
CLIENT_THREADS = 2
AGENTS = 2

#: Bounds on every wait the benchmark makes.
REQUEST_DEADLINE_S = 60.0
CLIENT_TIMEOUT_S = 90.0
PROBE_TIMEOUT_S = 60.0

_TIMING_LINE = re.compile(r"^\*\(regenerated in .*\)\*$", re.MULTILINE)
_TABLE_BLOCK = re.compile(r"^```\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def tables_digest(markdown: str) -> str:
    """Digest of a report's measured tables (timing lines excluded)."""
    blocks = _TABLE_BLOCK.findall(_TIMING_LINE.sub("", markdown))
    return hashlib.sha256("\n".join(blocks).encode("utf-8")).hexdigest()


def probe_seconds(code: str, *args: str) -> float:
    """Wall time from starting a fresh interpreter on ``code`` (a cold
    start) to the first line ``code`` prints; its clean-up after that line
    is not timed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode or not ready:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def speed_probe() -> float:
    """Seconds a fixed piece of pure-Python work takes right now: the best
    of three tries, since a thread that is still winding down can only
    slow a try."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        table = {}
        for i in range(2_000):
            table[str(i)] = (i, float(i))
        best = min(best, time.perf_counter() - start)
    return best


def speed_scale() -> float:
    """Factor that turns a time measured just now into reference time."""
    return PROBE_REFERENCE_S / speed_probe()


@dataclass
class Phase:
    """What one measured phase did.

    ``walls`` holds the latency samples and ``scales`` the ``speed_scale``
    measured right after each.  ``busy_s`` is the wall time the operations
    took, without the untimed checks and probes between them, and
    ``busy_ref_s`` the same in reference time.  ``ops`` counts operations
    (report passes, requests, dist passes).
    """

    walls: List[float] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    ops: int = 0
    points: int = 0
    failed: int = 0
    busy_s: float = 0.0
    busy_ref_s: float = 0.0
    errors: List[str] = field(default_factory=list)

    def sample(self, wall: float, scale: float, busy: bool = True) -> None:
        """One latency sample; ``busy`` also counts it as busy time."""
        self.walls.append(wall)
        self.scales.append(scale)
        if busy:
            self.add_busy(wall, scale)

    def add_busy(self, wall: float, scale: float) -> None:
        self.busy_s += wall
        self.busy_ref_s += wall * scale

    def ref_walls(self) -> List[float]:
        """The latency samples in reference time."""
        return [wall * scale for wall, scale in zip(self.walls, self.scales)]

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def timed_loop(seconds: float, op: Callable[[Phase], None]) -> Phase:
    """Run ``op`` until ``seconds`` have passed, always finishing the last.

    ``op`` records its samples, busy time and operation count (untimed
    checks may follow its timed part).  Every operation does the same
    work, so a time-bounded loop only changes the sample count.
    """
    phase = Phase()
    start = time.perf_counter()
    first = True
    while first or time.perf_counter() - start < seconds:
        first = False
        try:
            op(phase)
        except Exception as exc:  # counted, reported, and fails the run
            phase.fail(f"{type(exc).__name__}: {exc}")
            break
    return phase


class Workload:
    """Shared plumbing: scratch directory, store bookkeeping."""

    name = ""
    repeats = SETUP_REPEATS

    def __init__(self, work: Path, seed: int, seconds: float,
                 smoke: bool) -> None:
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.errors: List[str] = []
        self.detail: Dict[str, Any] = {}
        self.stores: List[SweepStore] = []
        self.store_invalid = 0
        self.store_retries = 0
        self._serial = 0

    def scratch(self, stem: str) -> Path:
        self._serial += 1
        return self.work / f"{stem}-{self._serial}"

    def account(self, store: SweepStore) -> None:
        """Add one used store's fault counters to the workload's totals."""
        self.store_invalid += store.invalid
        self.store_retries += store.retries

    @property
    def setup_repeats(self) -> int:
        return 1 if self.smoke else self.repeats

    def setup(self) -> List[float]:
        """Set-up samples, in reference time."""
        raise NotImplementedError

    def timed_setups(self, step: Callable[[], float]) -> List[float]:
        """``step``, which returns its own set-up seconds, run
        ``setup_repeats`` times; each time is scaled by a probe after it."""
        return [step() * speed_scale() for _ in range(self.setup_repeats)]

    def run_phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        raise NotImplementedError

    def check(self) -> None:
        """Untimed correctness checks after the phases; append to errors."""

    def extra_rss_mb(self) -> float:
        return 0.0

    def last_store(self) -> Optional[SweepStore]:
        return self.stores[-1] if self.stores else None

    def discard_stores(self) -> None:
        """Close and delete every store used so far (outside timing)."""
        for store in self.stores:
            store.close()
            shutil.rmtree(store.directory, ignore_errors=True)
        self.stores.clear()

    def layers(self, phase: Phase) -> Dict[str, float]:
        """Per-layer values only this workload can read."""
        return {}

    def close(self) -> None:
        for store in self.stores:
            store.close()


class ReportCold(Workload):
    """Cold ``generate()`` passes, each into a fresh JSON-directory store."""

    name = "report-cold"
    repeats = COLD_START_REPEATS

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.experiments = (["fig8", "tab3", "fig9b"] if self.smoke
                            else registry.experiment_ids())
        self.digests: List[str] = []
        self.expected = (None if self.smoke
                         else (BENCH_DIR / "expected_tables.sha256")
                         .read_text(encoding="ascii").strip())

    def setup(self) -> List[float]:
        return self.timed_setups(lambda: probe_seconds(
            "import repro.experiments.report_generator; print('ready')"))

    def _pass(self, location: Path, phase: Phase) -> None:
        """One report, experiment by experiment, into the store at
        ``location``; each experiment is one latency sample."""
        store = SweepStore(str(location))
        parts = []
        for experiment_id in self.experiments:
            began = time.perf_counter()
            parts.append(generate(str(self.work / "report.md"),
                                  scale=REPORT_SCALE, workers=0, store=store,
                                  only=[experiment_id]))
            phase.sample(time.perf_counter() - began, speed_scale())
        self.digests.append(tables_digest("\n".join(parts)))
        self.stores.append(store)
        self.account(store)
        phase.points += store.hits + store.misses

    def run_phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        def op(phase: Phase) -> None:
            phase.ops += 1
            # Only the newest store is kept on disk (for the migration
            # probe); the others are removed outside the timed region.
            self.discard_stores()
            self._pass(self.scratch("cold"), phase)
            store = self.stores[-1]
            if store.hits or store.invalid or store.puts != store.misses:
                phase.fail(f"cold pass: {store.hits} hits, {store.misses} "
                           f"misses, {store.puts} puts, {store.invalid} "
                           f"invalid")

        return timed_loop(seconds, op)

    def check(self) -> None:
        if len(set(self.digests)) > 1:
            self.errors.append("cold report passes disagree with each other")
        if self.expected and self.digests and self.digests[0] != self.expected:
            self.errors.append(
                f"report tables digest {self.digests[0]} != committed "
                f"{self.expected}")
        self.detail["tables_digest"] = self.digests[0] if self.digests else ""


class ReportWarm(ReportCold):
    """Warm ``generate()`` passes against one populated store."""

    name = "report-warm"
    repeats = SETUP_REPEATS

    def setup(self) -> List[float]:
        # Each set-up is one cold pass into a fresh store; the last one is
        # the store every warm pass reads.  Its time is the pass's busy
        # time, so the probes inside it do not count.
        samples = []
        for _ in range(self.setup_repeats):
            self.discard_stores()
            populate = Phase()
            self._pass(self.scratch("populate"), populate)
            samples.append(populate.busy_ref_s)
        self.location = self.stores[-1].directory
        self.populated = self.stores[-1].puts
        self.cold_digest = self.digests[-1]
        self.stores.clear()
        self.digests.clear()
        return samples

    def run_phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        def op(phase: Phase) -> None:
            phase.ops += 1
            self._pass(self.location, phase)
            store = self.stores[-1]
            if (store.misses or store.puts or store.invalid
                    or store.hits != self.populated):
                phase.fail(f"warm pass: {store.hits} hits of "
                           f"{self.populated}, {store.misses} misses, "
                           f"{store.puts} puts")
            if tracer is not None and tracer.calls["sim.point"]:
                phase.fail(f"warm pass simulated "
                           f"{tracer.calls['sim.point']} points")

        return timed_loop(seconds, op)

    def check(self) -> None:
        if any(digest != self.cold_digest for digest in self.digests):
            self.errors.append("warm report tables differ from the cold "
                               "pass that populated the store")
        super().check()


def serve_universe() -> List[SweepPoint]:
    """The 90 served points, in their fixed popularity order."""
    points = [SweepPoint(model=get_model(model), loader=loader,
                         cache_fraction=fraction, num_epochs=2)
              for model in SERVE_MODELS for loader in SERVE_LOADERS
              for fraction in SERVE_FRACTIONS]
    random.Random(SERVE_MIX_SEED).shuffle(points)
    return points


def serve_requests(count: int, seed: int) -> List[List[SweepPoint]]:
    """``count`` requests: a fixed multiset of Zipf draws, seed-ordered."""
    universe = serve_universe()
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(universe))]
    mix = random.Random(SERVE_MIX_SEED)
    requests = []
    for _ in range(count):
        size = mix.randint(1, MAX_POINTS_PER_REQUEST)
        chosen: List[int] = []
        while len(chosen) < size:
            index = mix.choices(range(len(universe)), weights)[0]
            if index not in chosen:
                chosen.append(index)
        requests.append([universe[index] for index in chosen])
    random.Random(seed).shuffle(requests)
    return requests


_SERVE_PROBE = """
import sys
from repro.serve import ServeClient, ServeDaemon
daemon = ServeDaemon(port=0, store=sys.argv[1], workers=0).start()
try:
    ServeClient(daemon.url, timeout_s=30).health()
    print("ready", flush=True)
finally:
    daemon.close()
"""


class ServeZipf(Workload):
    """Two closed-loop clients against one in-process daemon."""

    name = "serve-zipf"
    repeats = COLD_START_REPEATS

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.requests = serve_requests(10 if self.smoke else SERVE_REQUESTS,
                                       self.seed)
        self.runner = SweepRunner(config_ssd_v100, scale=SERVE_SCALE)
        self.served: Dict[SweepPoint, bytes] = {}
        self.daemon_stats: List[Dict[str, Any]] = []

    def setup(self) -> List[float]:
        return self.timed_setups(lambda: probe_seconds(
            _SERVE_PROBE, str(self.scratch("probe"))))

    def _client(self, url: str, first: int, cursor: List[int],
                lock: threading.Lock, walls: List[float], phase: Phase,
                tracer: Optional[Tracer]) -> None:
        """Send the group's requests, from index ``first`` on, taking the
        next index from ``cursor`` (shared with the other client) until the
        group is used up; each request's latency goes to ``walls``."""
        if tracer is not None:
            tracer.mark_op_thread()
        client = ServeClient(url, timeout_s=CLIENT_TIMEOUT_S)
        end = min(first + SERVE_GROUP, len(self.requests))
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= end:
                return
            points = self.requests[index]
            start = time.perf_counter()
            try:
                answers = client.whatif(self.runner, points,
                                        deadline_s=REQUEST_DEADLINE_S)
            except Exception as exc:
                with lock:
                    walls.append(time.perf_counter() - start)
                    phase.fail(f"request {index}: {type(exc).__name__}: {exc}")
                continue
            wall = time.perf_counter() - start
            # Outside the timed region: every served copy of a point must
            # pickle identically; check() compares one copy per point with
            # a direct simulation.
            copies = [(point, pickle.dumps(answer.record))
                      for point, answer in zip(points, answers)
                      if answer.status == "ok"]
            with lock:
                walls.append(wall)
                phase.points += len(points)
                bad = [a.status for a in answers if a.status != "ok"]
                if bad or len(answers) != len(points):
                    phase.fail(f"request {index}: statuses {bad}")
                for point, blob in copies:
                    if self.served.setdefault(point, blob) != blob:
                        phase.fail(f"request {index}: {point.describe()} "
                                   f"served two different records")

    def _serve_group(self, url: str, first: int, phase: Phase,
                     tracer: Optional[Tracer]) -> None:
        """Both clients work through one group, then one speed probe runs
        while the daemon is idle and scales the group's samples."""
        cursor, lock, walls = [first], threading.Lock(), []
        threads = [threading.Thread(
            target=self._client, name=f"bench-client-{i}",
            args=(url, first, cursor, lock, walls, phase, tracer))
            for i in range(CLIENT_THREADS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        deadline = start + CLIENT_TIMEOUT_S * SERVE_GROUP
        for thread in threads:
            thread.join(max(0.0, deadline - time.perf_counter()))
        wall = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve clients did not finish")
        scale = speed_scale()
        phase.add_busy(wall, scale)
        for latency in walls:
            phase.sample(latency, scale, busy=False)

    def run_phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        def op(phase: Phase) -> None:
            # One round: the whole request list against a fresh daemon and
            # store.  Only the newest store is kept on disk.
            phase.ops += len(self.requests)
            self.discard_stores()
            store = SweepStore(str(self.scratch("serve-store")))
            self.stores.append(store)
            answered = len(phase.walls)
            daemon = ServeDaemon(port=0, store=store, workers=0).start()
            try:
                for first in range(0, len(self.requests), SERVE_GROUP):
                    self._serve_group(daemon.url, first, phase, tracer)
                self.daemon_stats.append(ServeClient(daemon.url).stats())
            finally:
                daemon.close()
                self.account(store)
            answered = len(phase.walls) - answered
            if answered != len(self.requests):
                phase.fail(f"{answered} of {len(self.requests)} requests "
                           f"answered")

        return timed_loop(seconds, op)

    def check(self) -> None:
        for point, blob in self.served.items():
            served = pickle.loads(blob).snapshot(include_timeline=True)
            direct = self.runner.run([point], workers=0, store=False)
            if direct.records[0].snapshot(include_timeline=True) != served:
                self.errors.append(f"served {point.describe()} differs from "
                                   f"a direct simulation")
        self.detail["distinct_points"] = len(self.served)

    def layers(self, phase: Phase) -> Dict[str, float]:
        batcher = self.daemon_stats[-1]["batcher"]
        return {
            "serve.coalesced_ratio": (batcher["attached_points"]
                                      / max(1, batcher["submitted_points"])),
            "serve.batch_points_mean": (batcher["batched_points"]
                                        / max(1, batcher["batches"])),
        }


class DistGolden(Workload):
    """Golden-grid passes over two local agents, no store."""

    name = "dist-golden"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.order = sorted(GOLDEN_GRIDS)
        random.Random(self.seed).shuffle(self.order)
        self.golden = {name: load_golden(name, GOLDEN_DIR)
                       for name in self.order}
        self.fleet: Optional[LocalWorkerFleet] = None
        self.executor: Optional[DistExecutor] = None
        self.agents_mb = 0.0

    def _close_fabric(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None
        if self.fleet is not None:
            self.agents_mb = sum(vm_hwm_mb(proc.pid)
                                 for proc in self.fleet.alive)
            self.fleet.close()
            self.fleet = None

    def _pass(self, executor: Optional[DistExecutor], phase: Phase
              ) -> Dict[str, SweepResult]:
        """Every golden grid once; each grid sweep is one latency sample.
        ``executor=None`` runs the same pass serially in-process."""
        results = {}
        for name in self.order:
            grid = GOLDEN_GRIDS[name]
            began = time.perf_counter()
            results[name] = grid.build_runner().run(
                grid.points(), pool=executor, workers=0, store=False)
            phase.sample(time.perf_counter() - began, speed_scale())
        return results

    def _start_fabric(self) -> float:
        """Spawn the agents, connect, and run one warm-up pass (agents
        build their datasets); replaces any earlier fabric.  Returns the
        seconds taken, without the warm-up pass's speed probes."""
        self._close_fabric()
        start = time.perf_counter()
        self.fleet = LocalWorkerFleet(AGENTS)
        self.executor = DistExecutor(self.fleet.endpoints)
        connected = time.perf_counter() - start
        warm_up = Phase()
        self._pass(self.executor, warm_up)
        return connected + warm_up.busy_s

    def setup(self) -> List[float]:
        return self.timed_setups(self._start_fabric)

    def run_phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        def op(phase: Phase) -> None:
            phase.ops += 1
            results = self._pass(self.executor, phase)
            if tracer is not None:
                tracer.paused = True
            try:
                for name, result in results.items():
                    diffs = snapshot_diff(self.golden[name], result.snapshot())
                    if diffs:
                        phase.fail(f"{name} diverged from tests/golden: "
                                   f"{diffs[:3]}")
                    phase.points += len(result)
            finally:
                if tracer is not None:
                    tracer.paused = False

        counters = self._counters()
        phase = timed_loop(seconds, op)
        after = self._counters()
        self.fabric_delta = {key: after[key] - counters[key] for key in after}
        return phase

    def _counters(self) -> Dict[str, int]:
        return {"points_sent": self.executor.points_sent,
                "steals": self.executor.steals,
                "duplicates": self.executor.duplicates}

    def extra_rss_mb(self) -> float:
        return self.agents_mb

    def layers(self, phase: Phase) -> Dict[str, float]:
        ops = max(1, phase.ops)
        delta = self.fabric_delta
        serial = [Phase() for _ in range(3)]
        for pass_phase in serial:
            self._pass(None, pass_phase)
        return {
            "dist.points_sent": delta["points_sent"] / ops,
            "dist.steals": delta["steals"] / ops,
            "dist.duplicates": delta["duplicates"] / ops,
            "dist.useful_ratio": phase.points / max(1, delta["points_sent"]),
            # The same pass in-process with no fabric: the differential
            # baseline the fabric's cost is read against.
            "dist.serial_pass_s": statistics.median(
                pass_phase.busy_s for pass_phase in serial),
        }

    def close(self) -> None:
        self._close_fabric()
        super().close()


WORKLOADS = {cls.name: cls
             for cls in (ReportCold, ReportWarm, ServeZipf, DistGolden)}


def store_probe(workload: Workload) -> Dict[str, float]:
    """Disk size and per-get latency of the workload's newest store, and of
    a copy migrated to the other backend (outside every timed region)."""
    store = workload.last_store()
    if store is None:
        return {"store.payload_mb": 0.0, "store.disk_mb": 0.0,
                "store.get_ms": 0.0, "store.alt_disk_mb": 0.0,
                "store.alt_get_ms": 0.0}
    stats = store.stats()
    alt = SweepStore(f"sqlite://{workload.work / 'migrated.db'}")
    try:
        migrate_store(store, alt)
        alt_stats = alt.stats()
        return {"store.payload_mb": stats.total_bytes / 1e6,
                "store.disk_mb": stats.disk_bytes / 1e6,
                "store.get_ms": _mean_get_ms(store),
                "store.alt_disk_mb": alt_stats.disk_bytes / 1e6,
                "store.alt_get_ms": _mean_get_ms(alt)}
    finally:
        alt.close()


def _mean_get_ms(store: SweepStore) -> float:
    keys = store.backend.entries()
    start = time.perf_counter()
    for key in keys:
        if store.get(key) is None:
            raise RuntimeError(f"stored key {key} did not read back")
    return (time.perf_counter() - start) * 1000.0 / max(1, len(keys))
