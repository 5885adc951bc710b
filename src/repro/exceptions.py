"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming errors
such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A component was configured with inconsistent or out-of-range values."""


class UnknownItemError(ReproError):
    """A dataset item id was requested that does not exist in the dataset."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class SweepPointError(ReproError):
    """One point of a parameter sweep failed to simulate.

    Raised by :meth:`repro.sim.sweep.SweepRunner.run` with the failing
    point's label (or a synthesised description) in the message and the
    original exception chained as ``__cause__`` — including when the point
    ran in a worker process, where a bare ``multiprocessing`` traceback
    would otherwise lose both.

    Attributes:
        point_label: Label/description of the failing sweep point.
        child_traceback: Formatted traceback from the worker process, when
            the point failed in one (``None`` for in-process failures, whose
            traceback is the chained exception's own).
        failures: Every failing input index of the run, as ``{index:
            (exception, child traceback or None)}`` — the error itself names
            the lowest one; empty when points were lost with their workers
            or hosts rather than raising.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.point_label: str = ""
        self.child_traceback: str | None = None
        self.failures: dict[int, tuple] = {}


class ProfilingError(ReproError):
    """DS-Analyzer could not complete a measurement phase."""


class ResilienceError(ReproError):
    """Base class for runtime-resilience failures (fault injection/recovery)."""


class HostLostError(ResilienceError):
    """No worker host of a distributed sweep fabric could be reached.

    Raised by :meth:`repro.dist.DistExecutor.run_points` when every
    configured agent endpoint refuses the connection (or fails the
    protocol handshake) at dispatch time.  Hosts that die *mid-run* do
    not raise this: their chunks are reassigned under the executor's
    budget, and exhausting that budget raises the shared sweep failure,
    a labelled :class:`~repro.exceptions.SweepPointError`.
    """


class TransientFaultError(ResilienceError):
    """An injected fault that a retry policy is expected to absorb."""


class PermanentFaultError(ResilienceError):
    """An injected fault that no retry will fix (models ENOSPC and friends)."""
