"""Wire protocol of the what-if sweep service.

Everything the serve daemon (:mod:`repro.serve.server`) and client
(:mod:`repro.serve.client`) exchange is JSON, and every payload shape is
defined here so the two sides (and the tests) cannot drift:

* a **runner spec** names the :class:`~repro.sim.sweep.SweepRunner`
  configuration a query runs under — the server factory by registry name
  or ``module:qualname`` token, plus scale / seed / queue depth
  (:func:`runner_to_wire` / :func:`runner_from_wire`; unknown fields are
  rejected);
* a **point** is one :class:`~repro.sim.sweep.SweepPoint` with the model
  by zoo name (:func:`point_to_wire` / :func:`point_from_wire`, defined in
  :mod:`repro.sim.sweep`) — the codec record snapshots use too.
  Schedule-valued fields of the failure kinds (``crash_schedule``,
  ``membership_schedule``, ``straggler_factors``) arrive as JSON arrays;
  ``SweepPoint.__post_init__`` normalises them back to the canonical
  sorted tuples, so wire points and native points hash/compare equal;
* a **result record** travels as the fully-invertible snapshot form
  (:meth:`~repro.sim.sweep.SweepRecord.snapshot` with
  ``include_timeline=True``: each disk timeline is ``timeline_len`` plus
  base64 of its little-endian float64 columns), so a client rehydrates
  byte-identical records with
  :meth:`~repro.sim.sweep.SweepRecord.from_snapshot` — the golden
  round-trip gate (``tools/store_check.py --serve``) pins exactly that.

Factory resolution is deliberately narrow: a request may only name
factories inside :data:`ALLOWED_FACTORY_MODULES` (the server-SKU catalog),
because the token is resolved by import + ``getattr`` and *called* —
accepting arbitrary ``module:qualname`` tokens from the network would be
remote code execution by configuration.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List

from repro.cluster.server import ServerConfig
from repro.exceptions import ConfigurationError
from repro.sim.sweep import (SweepPoint, SweepRecord, SweepRunner,
                             point_from_wire, point_to_wire)

#: Modules a wire runner spec may resolve its server factory from.  The
#: cluster-config catalog is the only SKU source today; extend the tuple if
#: factories ever live elsewhere (never accept arbitrary modules).
ALLOWED_FACTORY_MODULES = ("repro.cluster.configs",)

#: Version tag carried in every response envelope, bumped on breaking
#: protocol changes so a stale client fails loudly instead of misparsing
#: (:class:`~repro.serve.ServeClient` refuses any other version).  Version 2
#: carries each record's disk timelines as base64 float64 columns; version 3
#: carries the runner spec as the factory token plus scale, seed and queue
#: depth.
PROTOCOL_VERSION = 3

#: The fields of a wire runner spec: :func:`runner_to_wire` emits all of
#: them, and :func:`runner_from_wire` rejects any other.
_RUNNER_FIELDS = frozenset({"server_factory", "scale", "seed", "queue_depth"})

#: Header carried by 503 responses (admission rejection, draining): how
#: many seconds the client should wait before retrying.  The client's
#: retry loop honours it, capped by its own backoff ceiling.
RETRY_AFTER_HEADER = "Retry-After"

#: Statuses a 503 response's ``reason`` field may carry: the daemon is
#: either over its in-flight admission limit or draining towards close.
BUSY_REASONS = ("over_capacity", "draining")


def runner_to_wire(runner: SweepRunner) -> Dict[str, Any]:
    """Wire form of one runner configuration.

    The factory travels as the same ``module:qualname`` token the result
    store keys on (:meth:`~repro.sim.sweep.SweepRunner._factory_identity`),
    so a runner that cannot be soundly named cannot be queried remotely
    either — the same closures/lambdas the store rejects.
    """
    factory_token = runner._factory_identity()
    server_factory, scale, seed, queue_depth = runner.spec()
    return {
        "server_factory": factory_token,
        "scale": float(scale),
        "seed": int(seed),
        "queue_depth": int(queue_depth),
    }


def _resolve_factory(token: str) -> Callable[..., ServerConfig]:
    """Resolve a ``module:qualname`` factory token, whitelist-checked."""
    module_name, _, qualname = token.partition(":")
    if not qualname or module_name not in ALLOWED_FACTORY_MODULES:
        raise ConfigurationError(
            f"server factory {token!r} is not servable; expected "
            f"'<module>:<name>' with module in {ALLOWED_FACTORY_MODULES}")
    module = importlib.import_module(module_name)
    factory = module
    for part in qualname.split("."):
        factory = getattr(factory, part, None)
    if not callable(factory):
        raise ConfigurationError(
            f"server factory {token!r} does not resolve to a callable")
    return factory


def runner_from_wire(data: Dict[str, Any]) -> SweepRunner:
    """Build the runner a wire spec describes (inverse of
    :func:`runner_to_wire`; unknown fields are rejected, so a misspelt
    field cannot silently fall back to its default)."""
    if not isinstance(data, dict):
        raise ConfigurationError("runner spec must be a JSON object")
    unknown = set(data) - _RUNNER_FIELDS
    if unknown:
        raise ConfigurationError(
            f"unknown runner spec fields {sorted(unknown)}; known: "
            f"{sorted(_RUNNER_FIELDS)}")
    try:
        factory = _resolve_factory(str(data["server_factory"]))
        return SweepRunner(factory,
                           scale=float(data.get("scale", 1.0)),
                           seed=int(data.get("seed", 0)),
                           queue_depth=int(data.get("queue_depth", 4)))
    except KeyError as exc:
        raise ConfigurationError(f"runner spec is missing {exc}") from None


def points_from_wire(data: Any) -> List[SweepPoint]:
    """Decode a request's point list (must be a non-empty JSON array)."""
    if not isinstance(data, list) or not data:
        raise ConfigurationError("'points' must be a non-empty JSON array")
    return [point_from_wire(item) for item in data]


def record_to_wire(record: SweepRecord) -> Dict[str, Any]:
    """Wire form of one result record: the fully-invertible snapshot
    (disk timelines as base64 float64 columns)."""
    return record.snapshot(include_timeline=True)


def record_from_wire(data: Dict[str, Any]) -> SweepRecord:
    """Rehydrate a served record, bit-for-bit (see
    :meth:`~repro.sim.sweep.SweepRecord.from_snapshot`)."""
    return SweepRecord.from_snapshot(data)
