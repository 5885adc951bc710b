"""Thin stdlib HTTP client for the what-if sweep daemon.

:class:`ServeClient` wraps :mod:`urllib.request` around the endpoints of
:mod:`repro.serve.server` and decodes responses back into library types
where one exists — :meth:`ServeClient.whatif` rehydrates served records
into byte-identical :class:`~repro.sim.sweep.SweepRecord` objects via
:func:`repro.serve.protocol.record_from_wire`.  The golden round-trip
gate and ``repro query`` both drive the daemon through this client.
A response stamped with another :data:`~repro.serve.protocol.PROTOCOL_VERSION`
raises :class:`~repro.exceptions.ConfigurationError` instead of being parsed.

Idempotent requests retry transparently: every endpoint the client
exposes is safe to re-send (GETs trivially; the sweep POSTs because the
daemon's answers are content-addressed — re-asking a question computes
or re-reads the same records), so a connection reset, a refused connect
(daemon restarting) or a ``503`` admission rejection is retried with
capped exponential backoff before the error escapes.  ``503`` responses
honour the daemon's ``Retry-After`` suggestion, capped by
:data:`MAX_RETRY_AFTER_S` so a confused server cannot park the client.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    RETRY_AFTER_HEADER,
    point_to_wire,
    record_from_wire,
    runner_to_wire,
)
from repro.sim.sweep import SweepPoint, SweepRecord, SweepRunner

#: Default number of *re-sends* after a retryable failure (connection
#: reset / refused, 503).  Total attempts = retries + 1.
DEFAULT_CLIENT_RETRIES = 3

#: First backoff sleep; doubles per retry up to :data:`MAX_BACKOFF_S`.
DEFAULT_BACKOFF_S = 0.1

#: Ceiling on a single computed backoff sleep.
MAX_BACKOFF_S = 2.0

#: Ceiling on an honoured ``Retry-After`` header value (seconds).
MAX_RETRY_AFTER_S = 5.0


@dataclass
class WhatIfResult:
    """One point's answer from :meth:`ServeClient.whatif`.

    ``record`` is the rehydrated, byte-identical
    :class:`~repro.sim.sweep.SweepRecord` when ``status == "ok"``, else
    ``None``; ``error`` carries the daemon's failure text for ``status
    == "error"``; ``status == "timed_out"`` marks a point the request's
    deadline cut off (ask again — the simulation finished into the
    store).
    """

    status: str
    record: Optional[SweepRecord]
    error: Optional[str]


class ServeError(ConfigurationError):
    """An HTTP-level error response from the serve daemon.

    ``retry_after`` carries the parsed ``Retry-After`` header (seconds)
    when the daemon sent one (admission rejections do), else ``None``.
    """

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"serve daemon returned {status}: {message}")
        self.status = status
        self.retry_after = retry_after


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Seconds from a ``Retry-After`` header (delta form only), if sane."""
    if not value:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


def _is_retryable_url_error(exc: urllib.error.URLError) -> bool:
    """Connection-level failures worth re-sending: the request never
    reached (or never finished reaching) a healthy daemon."""
    reason = exc.reason
    return isinstance(reason, (ConnectionResetError, ConnectionRefusedError,
                               ConnectionAbortedError, BrokenPipeError))


class ServeClient:
    """Talk to one serve daemon at ``url`` (e.g. ``http://127.0.0.1:8421``).

    Args:
        url: Daemon base URL.
        timeout_s: Socket timeout per HTTP attempt.
        retries: Re-sends after a retryable failure (``0`` disables).
        backoff_s: First backoff sleep; doubles per retry, capped at
            :data:`MAX_BACKOFF_S` (a 503's ``Retry-After`` takes
            precedence, capped at :data:`MAX_RETRY_AFTER_S`).
    """

    def __init__(self, url: str, timeout_s: float = 600.0, *,
                 retries: int = DEFAULT_CLIENT_RETRIES,
                 backoff_s: float = DEFAULT_BACKOFF_S) -> None:
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if backoff_s < 0:
            raise ConfigurationError("backoff_s must be >= 0")
        self._url = url.rstrip("/")
        self._timeout_s = timeout_s
        self._retries = retries
        self._backoff_s = backoff_s
        #: Retried sends this client performed (observable for tests).
        self.retries_used = 0

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, data)
            except ServeError as exc:
                if exc.status != 503 or attempt >= self._retries:
                    raise
                delay = exc.retry_after
                if delay is None:
                    delay = min(self._backoff_s * (2 ** attempt), MAX_BACKOFF_S)
                delay = min(delay, MAX_RETRY_AFTER_S)
            except ConfigurationError as exc:
                if getattr(exc, "_retryable", False) and attempt < self._retries:
                    delay = min(self._backoff_s * (2 ** attempt), MAX_BACKOFF_S)
                else:
                    raise
            attempt += 1
            self.retries_used += 1
            if delay > 0:
                time.sleep(delay)

    def _request_once(self, method: str, path: str,
                      data: Optional[bytes]) -> Dict[str, Any]:
        request = urllib.request.Request(
            self._url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self._timeout_s) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            retry_after = _parse_retry_after(
                exc.headers.get(RETRY_AFTER_HEADER) if exc.headers else None)
            try:
                message = json.loads(exc.read().decode("utf-8")).get(
                    "error", exc.reason)
            except Exception:
                message = str(exc.reason)
            raise ServeError(exc.code, message, retry_after) from None
        except urllib.error.URLError as exc:
            error = ConfigurationError(
                f"cannot reach serve daemon at {self._url}: {exc.reason}")
            error._retryable = _is_retryable_url_error(exc)
            raise error from None
        protocol = payload.get("protocol") if isinstance(payload, dict) else None
        if protocol != PROTOCOL_VERSION:
            raise ConfigurationError(
                f"serve daemon at {self._url} speaks protocol {protocol!r}; "
                f"this client speaks {PROTOCOL_VERSION}")
        return payload

    def health(self) -> Dict[str, Any]:
        """``GET /v1/health`` — liveness + subsystem degradation report."""
        return self._request("GET", "/v1/health")

    def stats(self) -> Dict[str, Any]:
        """``GET /v1/stats`` — store / batcher / latency statistics."""
        return self._request("GET", "/v1/stats")

    def whatif(self, runner: SweepRunner, points: Sequence[SweepPoint],
               deadline_s: Optional[float] = None) -> List[WhatIfResult]:
        """Query the daemon for ``points`` under ``runner``'s configuration.

        Returns one :class:`WhatIfResult` per point, in input order.
        ``deadline_s`` bounds this request only (the daemon's default
        applies when ``None``); late points come back ``timed_out``.
        """
        body: Dict[str, Any] = {
            "runner": runner_to_wire(runner),
            "points": [point_to_wire(point) for point in points],
        }
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        payload = self._request("POST", "/v1/whatif", body)
        results = []
        for item in payload.get("results", []):
            record = item.get("record")
            results.append(WhatIfResult(
                status=item.get("status", "error"),
                record=None if record is None else record_from_wire(record),
                error=item.get("error")))
        return results

    def experiment(self, experiment_id: str,
                   scale: Optional[float] = None) -> Dict[str, Any]:
        """``POST /v1/experiment`` — run a registered experiment by id."""
        body: Dict[str, Any] = {"id": experiment_id}
        if scale is not None:
            body["scale"] = scale
        return self._request("POST", "/v1/experiment", body)

    def report(self, scale: Optional[float] = None,
               only: Optional[Sequence[str]] = None) -> str:
        """``POST /v1/report`` — EXPERIMENTS.md markdown for the grid."""
        body: Dict[str, Any] = {}
        if scale is not None:
            body["scale"] = scale
        if only is not None:
            body["only"] = list(only)
        return self._request("POST", "/v1/report", body)["markdown"]
