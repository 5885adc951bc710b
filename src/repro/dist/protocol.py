"""Frame protocol of the multi-host sweep fabric.

Driver (:class:`~repro.dist.DistExecutor`) and worker agents
(:class:`~repro.dist.DistWorker`) speak length-prefixed JSON frames over a
plain TCP socket: a 4-byte big-endian payload length followed by the frame
as canonical UTF-8 JSON.  Framing lives here (:func:`send_frame` /
:func:`recv_frame`) together with the spec wire forms, so the two sides —
and the tests — cannot drift.

Frame types (every frame is a JSON object with a ``"type"`` key):

======================  =========  =========================================
``hello``               both ways  handshake; carries ``protocol`` (checked
                                   against :data:`DIST_PROTOCOL_VERSION`),
                                   and from the worker ``pid``/``workers``
``ping`` / ``pong``     both ways  liveness probe
``run_chunk``           to worker  ``id``, ``spec`` (wire runner spec) and
                                   ``points`` (``[[index, point], ...]``)
``record``              to driver  one finished point: ``id``, ``index``
                                   and the fully-invertible ``snapshot``
``point_error``         to driver  one failed point: ``id``, ``index``,
                                   ``error`` text and worker ``traceback``
``chunk_done``          to driver  chunk barrier: ``id``, ``ok``/``failed``
``shutdown`` / ``bye``  both ways  orderly connection teardown
======================  =========  =========================================

Payload shapes are **reused from the serve layer**
(:mod:`repro.serve.protocol`): the runner spec travels as the whitelisted
``module:qualname`` factory token plus three scalars, points by model zoo
name, and records as ``SweepRecord.snapshot(include_timeline=True)`` — the
byte-exact wire form the store and the HTTP daemon already use, with each
disk timeline as base64 of its little-endian float64 columns.  The same
security posture applies: a worker agent resolves factory tokens only from
:data:`repro.serve.protocol.ALLOWED_FACTORY_MODULES`, because the token is
imported and *called* — accepting arbitrary tokens from the network would
be remote code execution by configuration.
"""

from __future__ import annotations

import json
import os
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.serve.protocol import (
    runner_from_wire,
    runner_to_wire,
)
from repro.sim.sweep import SweepRunner

#: Version tag exchanged in ``hello`` frames; bumped on breaking protocol
#: changes so a stale agent fails loudly instead of misparsing.  Version 2
#: carries each record's disk timelines as base64 float64 columns; version 3
#: carries the runner spec as the factory token plus scale, seed and queue
#: depth.
DIST_PROTOCOL_VERSION = 3

#: Environment variable supplying the default worker-host list of the
#: sweep-running CLI commands (``run-experiment`` / ``report`` / ``serve``)
#: when no ``--hosts`` flag is passed: a comma-separated ``host:port`` list,
#: e.g. ``127.0.0.1:8501,127.0.0.1:8502``.  Unset or empty means "no
#: fabric" (local execution).
HOSTS_ENV_VAR = "REPRO_SWEEP_HOSTS"

#: Hard bound on one frame's JSON payload.  Golden-grid snapshots are a few
#: hundred KiB; anything near this bound is a protocol error, not data.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def send_frame(sock: socket.socket, frame: Dict[str, Any]) -> None:
    """Send one frame: 4-byte big-endian length + canonical JSON payload."""
    payload = json.dumps(frame, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ConfigurationError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol bound")
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks: List[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Receive one frame; raises :class:`ConnectionError` on EOF/short read.

    A clean close *between* frames also raises ``ConnectionError`` — the
    caller decides whether the conversation was allowed to end there.
    """
    header = sock.recv(_LENGTH.size)
    if not header:
        raise ConnectionError("peer closed the connection")
    if len(header) < _LENGTH.size:
        header += _recv_exact(sock, _LENGTH.size - len(header))
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(
            f"peer announced a {length}-byte frame (bound is "
            f"{MAX_FRAME_BYTES}); refusing to read it")
    payload = _recv_exact(sock, length)
    try:
        frame = json.loads(payload.decode("utf-8"))
    except ValueError as exc:
        raise ConnectionError(f"peer sent an unparsable frame: {exc}") from exc
    if not isinstance(frame, dict) or "type" not in frame:
        raise ConnectionError("peer sent a frame without a 'type'")
    return frame


def spec_to_wire(spec: tuple) -> Dict[str, Any]:
    """Wire form of one picklable runner spec tuple.

    ``spec`` is :meth:`~repro.sim.sweep.SweepRunner.spec` output — the same
    tuple :class:`~repro.store.PersistentPool` pickles to its workers.  The
    factory function is replaced by its ``module:qualname`` token (the
    serve layer's rendering), which also validates driver-side that the
    factory is resolvable and whitelisted before anything hits the network.
    """
    server_factory, scale, seed, queue_depth = spec
    runner = SweepRunner(server_factory, scale=scale, seed=seed,
                         queue_depth=queue_depth)
    wire = runner_to_wire(runner)
    # Round-trip through the whitelist check now: a driver must fail this
    # loudly at submit time, not discover it as a remote protocol error.
    runner_from_wire(wire)
    return wire


def spec_from_wire(data: Dict[str, Any]) -> tuple:
    """Rebuild the picklable spec tuple a wire runner spec describes.

    Factory resolution goes through the serve layer's whitelist
    (:data:`~repro.serve.protocol.ALLOWED_FACTORY_MODULES`); the returned
    tuple feeds the same per-worker runner/dataset/sampler caches
    :class:`~repro.store.PersistentPool` workers use.
    """
    return runner_from_wire(data).spec()


def parse_hosts(text: str) -> List[Tuple[str, int]]:
    """Parse a ``host:port[,host:port...]`` list into ``(host, port)`` pairs."""
    hosts: List[Tuple[str, int]] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        host, sep, port = item.rpartition(":")
        if not sep or not host:
            raise ConfigurationError(
                f"worker host {item!r} is not of the form host:port")
        try:
            hosts.append((host, int(port)))
        except ValueError:
            raise ConfigurationError(
                f"worker host {item!r} has a non-integer port") from None
    if not hosts:
        raise ConfigurationError("the worker host list is empty")
    return hosts


def resolve_hosts(hosts: Optional[str] = None) -> Optional[List[Tuple[str, int]]]:
    """Normalise a ``--hosts`` argument to ``(host, port)`` pairs.

    ``None`` falls back to :data:`HOSTS_ENV_VAR` (no fabric when unset or
    empty — the local-execution default).
    """
    if hosts is None:
        hosts = os.environ.get(HOSTS_ENV_VAR, "").strip()
    if not hosts:
        return None
    return parse_hosts(hosts)
