"""Deterministic fault injection: plans, schedules, and the injector.

A :class:`FaultPlan` is a declarative, JSON-serialisable description of the
faults one test run should experience: parent-side worker kills (by received
result count), transient/permanent store errors (by backend-call count), and
serve-batch stalls (by batch count).  A :class:`FaultInjector` is the
stateful runtime for one plan — thread-safe counters decide *exactly* which
call fires which fault, so a plan plus a workload is a reproducible chaos
schedule with no randomness at injection time (the plan's ``seed`` exists so
*generators* of plans — hypothesis, CI sweeps — can be seeded; the injector
itself is a pure counter machine).

Activation is process-wide, opt-in and zero-cost when off; every fault
site reads :func:`active_injector` once, when it is constructed:

* **installed** — :func:`install_plan` until :func:`clear_installed` (how
  the chaos tests and gates wire one injector through a whole stack);
* **environment** — ``REPRO_FAULT_PLAN`` holds either inline JSON or a path
  to a JSON file; :func:`active_injector` parses it once per process and
  hands every fault site the same shared injector (how ``make chaos-check``
  runs the ordinary gates under a committed plan without touching their
  code).  An installed plan beats it.  With neither, every fault site sees
  ``None`` and the hot path costs one attribute test.

Faults are injected *parent-side only*: the injector never crosses a
process boundary (worker kills are delivered by the parent via SIGKILL), so
plans behave identically at any worker count — at ``workers<=1`` there are
no pool workers and kill entries simply never fire, which is exactly the
byte-identity-across-worker-counts contract the chaos suite pins.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import (
    ConfigurationError,
    PermanentFaultError,
    TransientFaultError,
)

#: Environment variable holding a fault plan (inline JSON or a file path).
FAULT_PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: Store operations a :class:`StoreFault` may target ("any" matches both).
STORE_FAULT_OPS = ("get", "put", "any")

#: Fault kinds: transient errors are retried, permanent ones degrade.
STORE_FAULT_KINDS = ("transient", "permanent")


@dataclass(frozen=True)
class StoreFault:
    """One injected store error: the ``at``-th matching backend call fails.

    Args:
        op: Which store operation to target (``get``/``put``/``any``).
        at: 1-based call count (per-op, per-injector) at which to fire.
        kind: ``transient`` raises :class:`TransientFaultError` (the retry
            policy should absorb it); ``permanent`` raises
            :class:`PermanentFaultError` (the degradation ladder engages).
        times: How many consecutive matching calls fail starting at ``at``
            (a transient fault with ``times`` >= the retry budget behaves
            permanently — useful for exercising retry exhaustion).
    """

    op: str = "any"
    at: int = 1
    kind: str = "transient"
    times: int = 1

    def __post_init__(self) -> None:
        if self.op not in STORE_FAULT_OPS:
            raise ConfigurationError(
                f"store fault op must be one of {STORE_FAULT_OPS}, "
                f"got {self.op!r}")
        if self.kind not in STORE_FAULT_KINDS:
            raise ConfigurationError(
                f"store fault kind must be one of {STORE_FAULT_KINDS}, "
                f"got {self.kind!r}")
        if self.at < 1:
            raise ConfigurationError("store fault 'at' is a 1-based call "
                                     "count and must be >= 1")
        if self.times < 1:
            raise ConfigurationError("store fault 'times' must be >= 1")

    def covers(self, op: str, call_count: int) -> bool:
        """True when this fault fires for the ``call_count``-th ``op`` call."""
        if self.op != "any" and self.op != op:
            return False
        return self.at <= call_count < self.at + self.times


@dataclass(frozen=True)
class ServeStall:
    """Stall the ``at``-th dispatched serve batch for ``stall_s`` seconds."""

    at: int = 1
    stall_s: float = 0.05

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ConfigurationError("serve stall 'at' must be >= 1")
        if self.stall_s < 0:
            raise ConfigurationError("serve stall seconds must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, reproducible chaos schedule.

    Args:
        seed: Seed recorded with the plan so generated plans are
            reproducible; injection itself is counter-driven and uses no
            randomness.
        worker_kills: Received-result counts at which the *parent* SIGKILLs
            one live pool worker.  The schedule restarts for every
            ``run_points`` call, so "kill a worker after 2 results" applies
            to every grid a plan covers; each entry fires at most once per
            run, which keeps kills bounded without cross-process state.
        store_faults: :class:`StoreFault` entries, matched against per-op
            call counters that span the injector's lifetime.
        serve_stalls: :class:`ServeStall` entries, matched against the
            batcher's dispatched-batch counter.
        host_kills: Delivered-record counts at which the *driver* of a
            distributed sweep (:class:`repro.dist.DistExecutor`) delivers
            one ``host-death`` fault through its ``kill_hook`` — SIGKILLing
            a worker agent process mid-chunk.  Like ``worker_kills`` the
            schedule restarts per ``run_points`` call and each entry fires
            at most once per run; without a hook (no fleet to kill) the
            entries are inert, so plans behave identically when no fabric
            is in play.
    """

    seed: int = 0
    worker_kills: Tuple[int, ...] = ()
    store_faults: Tuple[StoreFault, ...] = ()
    serve_stalls: Tuple[ServeStall, ...] = ()
    host_kills: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for count in self.worker_kills:
            if count < 1:
                raise ConfigurationError(
                    "worker kill thresholds are 1-based received-result "
                    "counts and must be >= 1")
        for count in self.host_kills:
            if count < 1:
                raise ConfigurationError(
                    "host kill thresholds are 1-based delivered-record "
                    "counts and must be >= 1")

    def to_dict(self) -> dict:
        """Plain-dict form, invertible via :meth:`from_dict`."""
        return {
            "seed": self.seed,
            "worker_kills": list(self.worker_kills),
            "store_faults": [
                {"op": f.op, "at": f.at, "kind": f.kind, "times": f.times}
                for f in self.store_faults
            ],
            "serve_stalls": [
                {"at": s.at, "stall_s": s.stall_s} for s in self.serve_stalls
            ],
            "host_kills": list(self.host_kills),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Build a plan from :meth:`to_dict` output (e.g. a JSON plan file)."""
        if not isinstance(payload, dict):
            raise ConfigurationError("a fault plan must be a JSON object")
        unknown = set(payload) - {"seed", "worker_kills", "store_faults",
                                  "serve_stalls", "host_kills"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan fields: {sorted(unknown)}")
        return cls(
            seed=int(payload.get("seed", 0)),
            worker_kills=tuple(int(c) for c in payload.get("worker_kills",
                                                           ())),
            store_faults=tuple(StoreFault(**f)
                               for f in payload.get("store_faults", ())),
            serve_stalls=tuple(ServeStall(**s)
                               for s in payload.get("serve_stalls", ())),
            host_kills=tuple(int(c) for c in payload.get("host_kills", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from a JSON string."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"fault plan is not valid JSON: {exc}") \
                from exc
        return cls.from_dict(payload)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """Read ``REPRO_FAULT_PLAN`` (inline JSON or a file path), if set."""
        raw = os.environ.get(FAULT_PLAN_ENV_VAR, "").strip()
        if not raw:
            return None
        if raw.startswith("{"):
            return cls.from_json(raw)
        try:
            text = open(raw, "r", encoding="utf-8").read()
        except OSError as exc:
            raise ConfigurationError(
                f"{FAULT_PLAN_ENV_VAR} names an unreadable plan file "
                f"{raw!r}: {exc}") from exc
        return cls.from_json(text)


class KillSchedule:
    """Per-run view of a plan's worker-kill thresholds.

    :meth:`due` is called by the supervised executor after every received
    result; a threshold fires once when the received count reaches it, then
    is retired — so a run sees at most ``len(worker_kills)`` kills no
    matter how many times lost chunks are re-run.
    """

    def __init__(self, thresholds: Tuple[int, ...]) -> None:
        self._pending = sorted(thresholds)

    def due(self, results_seen: int) -> bool:
        """True (once per threshold) when ``results_seen`` crosses one."""
        if self._pending and results_seen >= self._pending[0]:
            self._pending.pop(0)
            return True
        return False


@dataclass
class FaultCounters:
    """What an injector has actually delivered (surfaced in health/stats)."""

    store_faults: int = 0
    transient_store_faults: int = 0
    permanent_store_faults: int = 0
    worker_kills: int = 0
    batch_stalls: int = 0
    host_kills: int = 0

    def to_dict(self) -> dict:
        return {
            "store_faults": self.store_faults,
            "transient_store_faults": self.transient_store_faults,
            "permanent_store_faults": self.permanent_store_faults,
            "worker_kills": self.worker_kills,
            "batch_stalls": self.batch_stalls,
            "host_kills": self.host_kills,
        }


class FaultInjector:
    """Thread-safe runtime for one :class:`FaultPlan`.

    One injector is meant to be shared by every fault site in a stack (the
    store's backend calls, the pool's supervisor, the batcher's dispatch
    loop); its counters are therefore global to the injector, matching how
    a plan describes one workload's fault schedule.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._op_calls: Dict[str, int] = {"get": 0, "put": 0}
        self._batches = 0
        self.counters = FaultCounters()

    def store_fault(self, op: str) -> None:
        """Raise the planned fault for this ``op`` call, if any.

        Called by the store *inside* its retry wrapper, before the backend
        op runs — so a transient fault consumes one retry attempt and a
        ``times`` >= the retry budget exhausts it.
        """
        if op not in self._op_calls:
            raise ConfigurationError(f"unknown store fault op {op!r}")
        with self._lock:
            self._op_calls[op] += 1
            count = self._op_calls[op]
            fault = next((f for f in self.plan.store_faults
                          if f.covers(op, count)), None)
            if fault is None:
                return
            self.counters.store_faults += 1
            if fault.kind == "transient":
                self.counters.transient_store_faults += 1
            else:
                self.counters.permanent_store_faults += 1
        if fault.kind == "transient":
            raise TransientFaultError(
                f"injected transient store fault ({op} call #{count})")
        raise PermanentFaultError(
            f"injected permanent store fault ({op} call #{count})")

    def run_kills(self) -> KillSchedule:
        """A fresh per-run kill schedule (see :class:`KillSchedule`)."""
        return KillSchedule(self.plan.worker_kills)

    def note_kill(self) -> None:
        """Record one delivered worker kill."""
        with self._lock:
            self.counters.worker_kills += 1

    def host_kill_schedule(self) -> KillSchedule:
        """A fresh per-run ``host-death`` schedule (``plan.host_kills``)."""
        return KillSchedule(self.plan.host_kills)

    def note_host_kill(self) -> None:
        """Record one delivered host kill (a SIGKILLed worker agent)."""
        with self._lock:
            self.counters.host_kills += 1

    def batch_stall(self) -> float:
        """Seconds to stall the current serve batch (0.0 when none)."""
        with self._lock:
            self._batches += 1
            count = self._batches
            stall = next((s for s in self.plan.serve_stalls if s.at == count),
                         None)
            if stall is None:
                return 0.0
            self.counters.batch_stalls += 1
        return stall.stall_s

    def snapshot(self) -> dict:
        """Counter snapshot for health payloads and BENCH artifacts."""
        with self._lock:
            return self.counters.to_dict()


# -- process-wide activation --------------------------------------------------

_ENV_LOCK = threading.Lock()
_ENV_RESOLVED = False
_ENV_INJECTOR: Optional[FaultInjector] = None
_INSTALLED: Optional[FaultInjector] = None


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    """Install a process-wide injector (tests); ``None`` clears it.

    An installed injector takes precedence over ``REPRO_FAULT_PLAN``.
    Returns the injector so the caller can read its counters afterwards.
    """
    global _INSTALLED
    with _ENV_LOCK:
        _INSTALLED = FaultInjector(plan) if plan is not None else None
        return _INSTALLED


def clear_installed() -> None:
    """Remove any installed injector and forget the cached env plan."""
    global _INSTALLED, _ENV_RESOLVED, _ENV_INJECTOR
    with _ENV_LOCK:
        _INSTALLED = None
        _ENV_RESOLVED = False
        _ENV_INJECTOR = None


def active_injector() -> Optional[FaultInjector]:
    """The process-wide injector, or ``None`` when fault injection is off.

    Resolution order: an injector installed via :func:`install_plan`, then
    a plan parsed (once per process) from ``REPRO_FAULT_PLAN``.  With
    neither, this is a lock-free ``None`` after the first call.
    """
    global _ENV_RESOLVED, _ENV_INJECTOR
    if _INSTALLED is not None:
        return _INSTALLED
    if _ENV_RESOLVED:
        return _ENV_INJECTOR
    with _ENV_LOCK:
        if not _ENV_RESOLVED:
            plan = FaultPlan.from_env()
            _ENV_INJECTOR = FaultInjector(plan) if plan is not None else None
            _ENV_RESOLVED = True
    return _ENV_INJECTOR
