"""Entry types of the sweep-point kind table.

:data:`repro.sim.sweep.POINT_KINDS` maps every ``SweepPoint.loader`` name
to a :class:`PointKind`; kinds with one result shape share a
:class:`PointFamily`.  Each scenario module (:mod:`~repro.sim.single_server`,
:mod:`~repro.sim.hp_search`, :mod:`~repro.sim.distributed`,
:mod:`~repro.sim.failures`) defines the rows of the kinds it runs, so adding
a kind touches one module, and no scenario imports the sweep runner.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import (Any, Callable, Dict, Tuple, get_args, get_origin,
                    get_type_hints)

from repro.cluster.server import ServerConfig
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import Sampler
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class PointContext:
    """What the runner hands a kind's ``run`` besides the point: the
    point's dataset, its server (carrying the point's cache budget), its
    :meth:`~repro.sim.sweep.SweepRunner.point_seed`, the runner's queue
    depth, and ``sampler(seed)``, the runner's memoised random sampler
    over the dataset for a given seed (``seed`` itself, or a scenario's
    per-job seed), whose epoch orders are read-only."""

    dataset: SyntheticDataset
    server: ServerConfig
    seed: int
    queue_depth: int
    sampler: Callable[[Any], Sampler]


@dataclass(frozen=True)
class PointFamily:
    """What kinds with one result shape share: the
    :class:`~repro.sim.sweep.SweepRecord` attribute holding the result
    (``slot``), its key in the record snapshot, ``encode(result,
    include_timeline)`` with its exact inverse ``decode(data, loader_name)``
    (floats as ``float.hex``), and ``metrics(result)``, the metric columns
    of ``row()``."""

    slot: str
    key: str
    encode: Callable[[Any, bool], Any]
    decode: Callable[[Any, str], Any]
    metrics: Callable[[Any], Dict[str, Any]]


def require(condition: bool, message: str) -> None:
    """Raise :class:`~repro.exceptions.ConfigurationError` unless
    ``condition`` holds (the building block of every kind's ``check``)."""
    if not condition:
        raise ConfigurationError(message)


def require_measured_epoch(point: Any) -> None:
    """Range check of every kind that simulates ``num_epochs`` epochs."""
    require(point.num_epochs >= 2,
            "need at least two epochs (warm-up + one measured epoch)")


def require_servers(point: Any) -> None:
    """Range checks of the kinds that run ``num_servers`` servers."""
    require_measured_epoch(point)
    require(point.num_servers >= 2,
            f"{point.loader!r} sweep points need at least two servers")


@dataclass(frozen=True)
class PointKind:
    """One ``SweepPoint.loader`` value: its family, the kind-specific
    ``SweepPoint`` fields it takes (a field is kind-specific when some kind
    takes it, and must stay at its default on every other kind's points),
    ``run(point, context)`` returning ``(loader name, result)``, and
    ``check(point)``, which raises
    :class:`~repro.exceptions.ConfigurationError` for out-of-range values."""

    family: PointFamily
    fields: Tuple[str, ...]
    run: Callable[[Any, PointContext], Tuple[str, Any]]
    check: Callable[[Any], None] = require_measured_epoch


def named(result: Any) -> Tuple[str, Any]:
    """``(result.loader_name, result)``: the ``run`` return of a kind
    whose result carries its loader name."""
    return result.loader_name, result


def dataclass_codec(cls: type) -> Tuple[Callable[..., Any], Callable[..., Any]]:
    """``(encode, decode)`` of a result dataclass, from its field types.

    ``float`` fields render as ``float.hex`` (bit exact), ``int``, ``bool``
    and ``str`` fields as themselves, ``List[...]`` and dataclass fields
    element-wise, and fields of a class with its own ``snapshot`` /
    ``from_snapshot`` pair (:class:`~repro.storage.iostats.IOStats`)
    through that pair.  The signatures match :class:`PointFamily`.
    """
    hints = get_type_hints(cls)
    parts = [(f.name, *_value_codec(hints[f.name])) for f in fields(cls)]

    def encode(value: Any, include_timeline: bool = False) -> Dict[str, Any]:
        return {name: enc(getattr(value, name), include_timeline)
                for name, enc, _ in parts}

    def decode(data: Dict[str, Any], loader_name: str = "") -> Any:
        return cls(**{name: dec(data[name]) for name, _, dec in parts})

    return encode, decode


def _value_codec(kind: Any) -> Tuple[Callable[..., Any], Callable[..., Any]]:
    if kind is float:
        return (lambda value, full: float(value).hex()), float.fromhex
    if kind in (int, bool, str):
        return (lambda value, full: value), kind
    if get_origin(kind) is list:
        encode, decode = _value_codec(get_args(kind)[0])
        return ((lambda items, full: [encode(item, full) for item in items]),
                (lambda items: [decode(item) for item in items]))
    if is_dataclass(kind):
        return dataclass_codec(kind)
    if hasattr(kind, "from_snapshot"):
        return kind.snapshot, kind.from_snapshot
    raise TypeError(f"no snapshot codec for field type {kind!r}")
