"""Retry-with-backoff for transient runtime errors.

The store wraps every backend call in :func:`call_with_retry` under a
:class:`RetryPolicy`; the transient classifier (:func:`is_transient`)
recognises the errors that experience says go away on their own — SQLite
lock/busy contention, interruptible-syscall ``OSError``\\ s, and the fault
injector's :class:`~repro.exceptions.TransientFaultError` — and nothing
else.  Everything non-transient propagates on the first attempt so real
bugs are never silently retried into timeouts.

Backoff is deterministic (no jitter): delays are a pure function of the
policy, which keeps chaos runs reproducible and the total worst-case stall
bounded and computable (``sum(policy.delays())``).
"""

from __future__ import annotations

import errno
import sqlite3
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.exceptions import ConfigurationError, TransientFaultError

#: ``OSError`` errnos treated as transient (retry-worthy) contention.
TRANSIENT_ERRNOS = frozenset({errno.EAGAIN, errno.EBUSY, errno.EINTR})

#: Substrings marking a transient ``sqlite3.OperationalError``.
_SQLITE_TRANSIENT_MARKERS = ("locked", "busy")


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry a transient failure.

    Args:
        max_attempts: Total attempts including the first (so ``1`` disables
            retrying entirely).
        backoff_s: Sleep before the first retry.
        multiplier: Backoff growth factor per retry.
        max_backoff_s: Ceiling on any single sleep.

    The defaults retry three times over ~35 ms — enough to outlive a
    WAL-mode writer lock without turning a genuinely broken disk into a
    hang.
    """

    max_attempts: int = 4
    backoff_s: float = 0.005
    multiplier: float = 2.0
    max_backoff_s: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("retry max_attempts must be >= 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigurationError("retry backoff seconds must be >= 0")
        if self.multiplier < 1:
            raise ConfigurationError("retry multiplier must be >= 1")

    def delays(self) -> Iterator[float]:
        """The sleep before each retry (``max_attempts - 1`` values)."""
        delay = self.backoff_s
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_backoff_s)
            delay *= self.multiplier


def is_transient(exc: BaseException) -> bool:
    """True for errors worth retrying; everything else fails fast."""
    if isinstance(exc, TransientFaultError):
        return True
    if isinstance(exc, sqlite3.OperationalError):
        message = str(exc).lower()
        return any(marker in message for marker in _SQLITE_TRANSIENT_MARKERS)
    if isinstance(exc, OSError):
        return exc.errno in TRANSIENT_ERRNOS
    return False


def call_with_retry(fn: Callable[[], object], *,
                    policy: RetryPolicy = RetryPolicy(),
                    on_retry: Optional[Callable[[BaseException], None]]
                    = None,
                    sleep: Callable[[float], None] = time.sleep) -> object:
    """Call ``fn`` retrying :func:`is_transient` failures under ``policy``.

    ``on_retry`` fires once per retry *before* the backoff sleep (the store
    counts its retries there).  The last transient error propagates
    unchanged when the budget runs out; non-transient errors propagate from
    the first attempt.  ``sleep`` is injectable so tests can run schedules
    without wall-clock delay.
    """
    delays = policy.delays()
    while True:
        try:
            return fn()
        except BaseException as exc:  # noqa: BLE001 — classified below
            if not is_transient(exc):
                raise
            try:
                delay = next(delays)
            except StopIteration:
                raise exc from None
            if on_retry is not None:
                on_retry(exc)
            if delay > 0:
                sleep(delay)
