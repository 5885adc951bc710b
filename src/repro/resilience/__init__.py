"""Runtime resilience: deterministic fault injection and recovery.

Two small layers, composable and individually inert when unused:

* :mod:`repro.resilience.faults` — :class:`FaultPlan` (a declarative,
  JSON-round-trippable chaos schedule) and :class:`FaultInjector` (its
  thread-safe, counter-driven runtime), activated per-object via kwargs or
  process-wide via the ``REPRO_FAULT_PLAN`` environment variable;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` /
  :func:`call_with_retry` / :func:`is_transient`, the store's
  retry-with-backoff for transient backend errors.

Worker-death recovery lives in the pool itself
(:class:`repro.store.PersistentPool`): it detects dead workers, rebuilds
itself, and re-runs lost chunks byte-identically under a bounded respawn
budget.

See docs/ARCHITECTURE.md ("Failure domains & recovery") for the fault
matrix: which faults are injected where, how each is detected, what
recovers it, and when recovery escalates to an error.
"""

from repro.exceptions import (
    PermanentFaultError,
    ResilienceError,
    TransientFaultError,
)
from repro.resilience.faults import (
    FAULT_PLAN_ENV_VAR,
    FaultCounters,
    FaultInjector,
    FaultPlan,
    KillSchedule,
    ServeStall,
    StoreFault,
    active_injector,
    clear_installed,
    install_plan,
)
from repro.resilience.retry import (
    NO_RETRY,
    RetryPolicy,
    call_with_retry,
    is_transient,
)

__all__ = [
    "FAULT_PLAN_ENV_VAR",
    "NO_RETRY",
    "FaultCounters",
    "FaultInjector",
    "FaultPlan",
    "KillSchedule",
    "PermanentFaultError",
    "ResilienceError",
    "RetryPolicy",
    "ServeStall",
    "StoreFault",
    "TransientFaultError",
    "active_injector",
    "call_with_retry",
    "clear_installed",
    "install_plan",
    "is_transient",
]
