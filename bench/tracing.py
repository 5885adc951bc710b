"""Timing shims around the library's public layer entry points.

The benchmark measures end-to-end numbers with nothing patched.  A traced
run installs the wrappers below for one phase, then restores every
original attribute.  Each wrapper opens a span named after its layer.  A
span's *self time* is its duration minus the time of the spans it opened
on the same thread, so the self times of one thread partition the time
that thread spent inside named layers.

Spans opened by the benchmark's own op loop (``mark_op_thread``) at the top
of a thread's stack count toward coverage: the share of op wall clock
that falls inside some named layer.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Counter = Callable[[tuple, Any], Dict[str, int]]


class Tracer:
    """Per-layer call counts, total and self times, and extra counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.covered_s = 0.0
        self.paused = False

    def mark_op_thread(self) -> None:
        """Count this thread's top-level spans toward coverage."""
        self._local.op_thread = True

    def wrap(self, name: str, fn: Callable, count: Optional[Counter] = None
             ) -> Callable:
        """``fn`` timed as span ``name``; ``count`` adds extra counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.paused:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                top = not stack and getattr(local, "op_thread", False)
                with tracer._lock:
                    tracer.total_s[name] += elapsed
                    tracer.self_s[name] += elapsed - children
                    tracer.calls[name] += 1
                    if top:
                        tracer.covered_s += elapsed
            if count is not None:
                extra = count(args, result)
                with tracer._lock:
                    for key, value in extra.items():
                        tracer.counts[key] += value
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str,
              count: Optional[Counter] = None) -> None:
        """Replace ``owner.attr`` with its traced wrapper until uninstall."""
        original = (vars(owner)[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        if isinstance(original, classmethod):
            replacement: Any = classmethod(
                self.wrap(name, original.__func__, count))
        else:
            replacement = self.wrap(name, original, count)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Layer shims in place for the duration of the block."""
        install_layer_shims(self)
        try:
            yield self
        finally:
            self.uninstall()


def _store_hit(args: tuple, result: Any) -> Dict[str, int]:
    return {"store.hits": int(result is not None)}


def _kernel_accesses(args: tuple, result: Any) -> Dict[str, int]:
    return {"cache.warm_kernel_accesses": len(args[0])}


def install_layer_shims(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are named after.

    Functions the library imports by name are patched in the importing
    module, since that is the name the caller looks up.
    """
    from repro.cache import page_cache
    from repro.coordl.partitioned_loader import PartitionedCoorDLLoader
    from repro.datasets.dataset import SyntheticDataset
    from repro.datasets.sampler import CachingSampler
    from repro.dist import executor as dist_executor
    from repro.experiments import registry
    from repro.pipeline.base import DataLoader
    from repro.serve import client as serve_client
    from repro.serve import server as serve_server
    from repro.serve.batcher import CoalescingBatcher, QueryTicket
    from repro.sim import engine
    from repro.sim.sweep import SweepRecord, SweepRunner
    from repro.store import JsonDirBackend, SqliteBackend, SweepStore

    tracer.patch(SyntheticDataset, "__init__", "datasets.build")
    tracer.patch(CachingSampler, "epoch", "datasets.sampler_epoch")
    tracer.patch(DataLoader, "batch_time_arrays", "pipeline.epoch_arrays")
    tracer.patch(PartitionedCoorDLLoader, "batch_time_arrays",
                 "pipeline.epoch_arrays")
    tracer.patch(page_cache, "simulate_segmented_lru", "cache.warm_kernel",
                 count=_kernel_accesses)
    tracer.patch(engine, "pipeline_makespan", "sim.makespan")
    tracer.patch(SweepRunner, "_run_point", "sim.point")
    tracer.patch(SweepRunner, "run", "sim.run")
    tracer.patch(SweepRecord, "snapshot", "snapshot.encode")
    tracer.patch(SweepRecord, "from_snapshot", "snapshot.decode")
    tracer.patch(SweepStore, "get", "store.get", count=_store_hit)
    tracer.patch(SweepStore, "put", "store.put")
    for backend in (JsonDirBackend, SqliteBackend):
        tracer.patch(backend, "get", "store.backend_get")
        tracer.patch(backend, "put", "store.backend_put")
    tracer.patch(registry, "run_experiment", "experiments")
    tracer.patch(serve_client.ServeClient, "whatif", "serve.client")
    tracer.patch(CoalescingBatcher, "submit", "serve.submit")
    tracer.patch(QueryTicket, "wait", "serve.wait")
    tracer.patch(serve_server, "record_to_wire", "wire.encode")
    tracer.patch(serve_client, "record_from_wire", "wire.decode")
    tracer.patch(dist_executor.DistExecutor, "run_points", "dist.run_points")
    tracer.patch(dist_executor, "send_frame", "dist.send_frame")
    tracer.patch(dist_executor, "recv_frame", "dist.recv_frame")
