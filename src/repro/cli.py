"""Command-line interface.

Provides the operations a practitioner would reach for first, without writing
any Python:

* ``python -m repro list-experiments`` — every reproduced table/figure.
* ``python -m repro run-experiment fig9a --scale 0.01`` — regenerate one of
  them and print the table.
* ``python -m repro profile resnet18 openimages config-ssd-v100 --cache 0.65``
  — DS-Analyzer profile + bottleneck classification + cache recommendation.
* ``python -m repro report -o EXPERIMENTS.md`` — regenerate the full
  paper-vs-measured report.
* ``python -m repro store stats`` — inspect/manage the content-addressed
  sweep result store (also ``gc``, ``invalidate``, and ``migrate`` for
  converting between the JSON-directory and ``sqlite://`` backends).
* ``python -m repro serve --store CACHE --workers 4`` — start the
  long-running what-if daemon (one shared store + worker pool; concurrent
  queries coalesce).
* ``python -m repro query --model resnet18 --cache-fraction 0.35`` — ask a
  running daemon a what-if question (also ``--health``, ``--stats``,
  ``--experiment fig3``).
* ``python -m repro dist worker --listen 0.0.0.0:8501`` — run one sweep
  worker agent of the multi-host fabric (``repro.dist``).

``run-experiment`` and ``report`` accept ``--store DIR`` (memoise every
sweep point on disk; a warm re-run reduces to store reads) and
``--no-store``; with neither flag the ``REPRO_SWEEP_STORE`` environment
variable supplies the default store directory.  The sweep-running commands
(``run-experiment``/``report``/``serve``) also accept ``--hosts a:p,b:p``
(default: ``REPRO_SWEEP_HOSTS``) to run misses on remote worker agents
through a :class:`repro.dist.DistExecutor` instead of local processes —
results are byte-identical either way.  ``run-experiment`` and ``report``
run every sweep on one executor: the hosts, or one pool of ``--workers N``
(default ``REPRO_SWEEP_WORKERS``; below 2, serial); ``--workers N``
(N >= 1) with hosts is rejected.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Optional, Sequence

from repro.cluster.configs import (
    get_server_config,
    get_server_factory,
    server_config_names,
)
from repro.compute.model_zoo import get_model
from repro.datasets.catalog import get_dataset_spec
from repro.datasets.dataset import SyntheticDataset
from repro.dsanalyzer.predictor import DataStallPredictor
from repro.dsanalyzer.profiler import DSAnalyzerProfiler
from repro.dsanalyzer.report import format_recommendation, summarize
from repro.dsanalyzer.whatif import optimal_cache_fraction
from repro.exceptions import ConfigurationError
from repro.experiments import registry
from repro.experiments.base import SWEEP_SCALE
from repro.experiments.report_generator import generate
from repro.sim.sweep import sweep_executor
from repro.store import STORE_ENV_VAR, StoreArg, SweepStore, resolve_store


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Analyzing and Mitigating Data Stalls in "
                    "DNN Training' (DS-Analyzer + CoorDL).")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-experiments", help="list every reproduced table/figure")

    run = sub.add_parser("run-experiment", help="regenerate one table/figure")
    run.add_argument("experiment_id", help="id from list-experiments, e.g. fig9a")
    run.add_argument("--scale", type=float, default=SWEEP_SCALE,
                     help="dataset scale fraction (default 1/100)")
    run.add_argument("--workers", type=int, default=None,
                     help="one worker pool of N processes for every sweep "
                          "(below 2: serial; default: REPRO_SWEEP_WORKERS; "
                          "results are identical for every value)")
    _add_store_flags(run)
    _add_hosts_flag(run)

    profile = sub.add_parser("profile", help="DS-Analyzer profile for a model")
    profile.add_argument("model", help="model name, e.g. resnet18")
    profile.add_argument("dataset", help="dataset name, e.g. openimages")
    profile.add_argument("server", help="server config, e.g. config-ssd-v100")
    profile.add_argument("--cache", type=float, default=0.35,
                         help="cached fraction of the dataset (default 0.35)")
    profile.add_argument("--scale", type=float, default=SWEEP_SCALE,
                         help="dataset scale fraction (default 1/100)")
    profile.add_argument("--gpu-prep", action="store_true",
                         help="profile with DALI GPU-assisted prep")

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("-o", "--output", default="EXPERIMENTS.md")
    report.add_argument("--scale", type=float, default=SWEEP_SCALE)
    report.add_argument("--workers", type=int, default=None,
                        help="one worker pool of N processes for every "
                             "sweep (below 2: serial; default: "
                             "REPRO_SWEEP_WORKERS)")
    _add_store_flags(report)
    _add_hosts_flag(report)

    store = sub.add_parser(
        "store", help="manage the content-addressed sweep result store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    stats = store_sub.add_parser("stats", help="entry count and byte totals")
    stats.add_argument("--by-runner", action="store_true",
                       help="group entries/bytes by runner spec digest "
                            "(SQLite backend: answered by the runner_digest "
                            "index without unpacking payloads)")
    gc = store_sub.add_parser("gc", help="prune oldest entries to a budget")
    gc.add_argument("--max-entries", type=int, default=None,
                    help="keep at most this many entries")
    gc.add_argument("--max-bytes", type=int, default=None,
                    help="keep at most this many bytes of entries")
    invalidate = store_sub.add_parser(
        "invalidate", help="drop entries (all, or by key prefix) to force "
                           "re-simulation, e.g. after simulator changes")
    invalidate.add_argument("--prefix", default="",
                            help="only drop keys starting with this hex prefix")
    migrate = store_sub.add_parser(
        "migrate", help="copy every entry into another store backend "
                        "(JSON directory <-> sqlite:// database), "
                        "preserving keys and record bytes")
    migrate.add_argument("--to", dest="dest", required=True, metavar="STORE",
                         help="destination store: a directory or a "
                              "sqlite://FILE URI")
    for command in (stats, gc, invalidate, migrate):
        command.add_argument("--store", dest="store_dir", default=None,
                             help="store location: a directory or a "
                                  f"sqlite://FILE URI (default: "
                                  f"${STORE_ENV_VAR})")

    serve = sub.add_parser(
        "serve", help="start the long-running what-if sweep daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8421,
                       help="listen port (0 picks a free one; default 8421)")
    serve.add_argument("--workers", type=int, default=0,
                       help="persistent worker pool size shared by every "
                            "query (0: simulate on the serving threads)")
    serve.add_argument("--window", type=float, default=None, metavar="SECONDS",
                       help="batching window: how long the daemon waits to "
                            "coalesce overlapping queries into one sweep run")
    serve.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                       help="default per-request deadline for queries that "
                            "do not carry one")
    serve.add_argument("--max-inflight", type=int, default=None, metavar="N",
                       help="admission limit on concurrently-running sweep "
                            "requests; excess requests get 503 + Retry-After "
                            "(default 64)")
    serve.add_argument("--point-retries", type=int, default=None, metavar="N",
                       help="re-runs a failing point gets before its error "
                            "is served (default 1)")
    _add_store_flags(serve)
    _add_hosts_flag(serve)

    query = sub.add_parser(
        "query", help="query a running serve daemon (what-if / experiment)")
    query.add_argument("--url", default="http://127.0.0.1:8421",
                       help="daemon base URL (default http://127.0.0.1:8421)")
    action = query.add_mutually_exclusive_group()
    action.add_argument("--health", action="store_true",
                        help="print the daemon's health payload and exit")
    action.add_argument("--stats", action="store_true",
                        help="print store/batcher/latency statistics and exit")
    action.add_argument("--experiment", metavar="ID",
                        help="run a registered experiment on the daemon")
    action.add_argument("--model", help="what-if: model name, e.g. resnet18")
    query.add_argument("--loader", default="coordl",
                       help="what-if: loader kind (default coordl)")
    query.add_argument("--dataset", default=None,
                       help="what-if: dataset name (default: the model's)")
    query.add_argument("--cache-fraction", type=float, action="append",
                       dest="cache_fractions", metavar="FRACTION",
                       help="what-if: cached fraction of the dataset "
                            "(repeatable; one point per value)")
    query.add_argument("--server-config", default="config-ssd-v100",
                       choices=server_config_names(),
                       help="what-if: server SKU (default config-ssd-v100)")
    query.add_argument("--scale", type=float, default=SWEEP_SCALE,
                       help="dataset scale fraction (default 1/100)")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--num-epochs", type=int, default=2)
    query.add_argument("--num-jobs", type=int, default=None,
                       help="what-if: concurrent jobs (HP-search / crash / "
                            "multi-tenant kinds)")
    query.add_argument("--num-servers", type=int, default=None,
                       help="what-if: servers (distributed / elastic / "
                            "straggler kinds)")
    query.add_argument("--tenants", type=int, default=None,
                       help="what-if: HP campaigns sharing the page cache "
                            "(hp-multitenant)")
    query.add_argument("--crash", action="append", dest="crashes",
                       metavar="EPOCH:JOB",
                       help="what-if: crash job JOB at epoch EPOCH "
                            "(repeatable; coordl-crash)")
    query.add_argument("--membership", action="append", dest="memberships",
                       metavar="EPOCH:COUNT",
                       help="what-if: resize the partition to COUNT servers "
                            "at epoch EPOCH (repeatable; coordl-elastic)")
    query.add_argument("--straggler", action="append", type=float,
                       dest="stragglers", metavar="FACTOR",
                       help="what-if: per-rank fetch degradation factor "
                            "(repeatable, rank order; coordl-straggler)")
    query.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS", help="per-request deadline; late "
                       "points come back marked timed_out")
    query.add_argument("--retries", type=int, default=None, metavar="N",
                       help="re-sends after a refused/reset connection or a "
                            "503 rejection, with capped exponential backoff "
                            "(default 3; 0 disables)")

    dist = sub.add_parser(
        "dist", help="multi-host sweep fabric (repro.dist) agents")
    dist_sub = dist.add_subparsers(dest="dist_command", required=True)
    worker = dist_sub.add_parser(
        "worker", help="run one sweep worker agent: accept driver "
                       "connections, execute point chunks, stream records")
    worker.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="bind address; port 0 picks a free one "
                             "(default 127.0.0.1:0; the bound address is "
                             "printed on stdout)")
    return parser


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """``--store DIR`` / ``--no-store`` on the sweep-running commands."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--store", dest="store_dir", default=None,
                       help="content-addressed result store directory: "
                            "already-simulated sweep points are rehydrated "
                            "byte-identically instead of recomputed "
                            f"(default: ${STORE_ENV_VAR} when set)")
    group.add_argument("--no-store", action="store_true",
                       help=f"disable the result store even when "
                            f"${STORE_ENV_VAR} is set")


def _store_arg(args: argparse.Namespace) -> StoreArg:
    """Normalise the parsed store flags to a ``store=`` argument."""
    if getattr(args, "no_store", False):
        return False
    return args.store_dir  # None falls through to the env-var default


def _add_hosts_flag(parser: argparse.ArgumentParser) -> None:
    """``--hosts a:p,b:p`` on the sweep-running commands."""
    from repro.dist.protocol import HOSTS_ENV_VAR

    parser.add_argument("--hosts", default=None, metavar="HOST:PORT,...",
                        help="run sweep misses on these remote worker agents "
                             "(repro dist worker) instead of local processes; "
                             "results are byte-identical either way "
                             f"(default: ${HOSTS_ENV_VAR} when set)")


def _command_executor(args: argparse.Namespace):
    """The context manager yielding a command's one executor, and the
    fan-out flag the user passed (``"--hosts"``, ``"--workers"`` or
    ``None``).  ``--workers N`` (N >= 1) with hosts is rejected, as
    ``repro serve`` rejects it, before any pool is built or agent dialled.
    """
    from repro.dist import DistExecutor, resolve_hosts

    hosts = resolve_hosts(args.hosts)
    if hosts is None:
        flag = None if args.workers is None else "--workers"
        return sweep_executor(args.workers), flag
    if args.workers:
        raise ConfigurationError(
            "pass --hosts (remote worker agents) or --workers (a local "
            "pool), not both")
    return DistExecutor(hosts), "--hosts"


def _cmd_list_experiments() -> int:
    for experiment_id in registry.experiment_ids():
        print(experiment_id)
    return 0


#: What ``run-experiment`` tells the user when an experiment has no sweep
#: grid for a flag they passed (``scale`` is dropped silently).
_IGNORED_FLAG_WARNINGS = {
    "--store": "memoise; ignoring --store/--no-store",
    "--workers": "parallelise; ignoring --workers",
    "--hosts": "distribute; ignoring --hosts",
}


def _cmd_run_experiment(args: argparse.Namespace) -> int:
    executor, fan_out = _command_executor(args)
    with executor as pool:
        kwargs, ignored = registry.experiment_kwargs(
            args.experiment_id, scale=args.scale, store=_store_arg(args),
            pool=pool)
        for name in ignored:
            flag = fan_out if name == "pool" else f"--{name}"
            if flag in _IGNORED_FLAG_WARNINGS:
                print(f"{args.experiment_id} has no sweep grid to "
                      f"{_IGNORED_FLAG_WARNINGS[flag]}", file=sys.stderr)
        result = registry.run_experiment(args.experiment_id, **kwargs)
    print(result.format_table())
    return 0


def _cmd_profile(model_name: str, dataset_name: str, server_name: str,
                 cache_fraction: float, scale: float, gpu_prep: bool) -> int:
    model = get_model(model_name)
    dataset = SyntheticDataset(get_dataset_spec(dataset_name), scale=scale)
    server = get_server_config(server_name)
    profiler = DSAnalyzerProfiler(model, dataset, server, gpu_prep=gpu_prep)
    predictor = DataStallPredictor(profiler.profile())
    print(summarize(predictor, cache_fraction))
    print()
    print(format_recommendation(optimal_cache_fraction(predictor, dataset)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    executor, _fan_out = _command_executor(args)
    with executor as pool:
        generate(args.output, args.scale, store=_store_arg(args), pool=pool)
    print(f"wrote {args.output}")
    return 0


def _open_store(store_dir: Optional[str]) -> SweepStore:
    """Open the store named by ``--store`` or the environment; else fail."""
    store = resolve_store(store_dir)  # None falls back to $REPRO_SWEEP_STORE
    if store is None:
        raise ConfigurationError(
            f"no store directory: pass --store DIR or set ${STORE_ENV_VAR}")
    return store


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import migrate_store

    store = _open_store(args.store_dir)
    if args.store_command == "stats":
        stats = store.stats()
        print(f"store {stats.directory} [{stats.backend}]: "
              f"{stats.entries} entries, {stats.total_bytes:,} bytes "
              f"({stats.disk_bytes:,} on disk)")
        if getattr(args, "by_runner", False):
            for row in store.stats_by_runner():
                print(f"  runner {row.runner_digest or '(unknown)'}: "
                      f"{row.entries} entries, {row.payload_bytes:,} bytes")
    elif args.store_command == "gc":
        removed = store.gc(max_entries=args.max_entries,
                           max_bytes=args.max_bytes)
        stats = store.stats()
        print(f"gc removed {removed} entries; {stats.entries} entries, "
              f"{stats.total_bytes:,} bytes remain")
    elif args.store_command == "migrate":
        dest = SweepStore(args.dest)
        migrated = migrate_store(store, dest)
        stats = dest.stats()
        print(f"migrated {migrated} entries to {stats.directory} "
              f"[{stats.backend}]: {stats.entries} entries, "
              f"{stats.total_bytes:,} bytes")
    else:  # invalidate (argparse enforces the choices)
        removed = store.invalidate(prefix=args.prefix)
        what = f"prefix {args.prefix!r}" if args.prefix else "all entries"
        print(f"invalidated {removed} entries ({what})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeDaemon
    from repro.serve.batcher import DEFAULT_WINDOW_S
    from repro.serve.server import DEFAULT_DEADLINE_S

    from repro.dist.protocol import resolve_hosts

    extra = {}
    if args.max_inflight is not None:
        extra["max_inflight"] = args.max_inflight
    if args.point_retries is not None:
        extra["point_retries"] = args.point_retries
    hosts = resolve_hosts(args.hosts)
    if hosts is not None:
        extra["hosts"] = [f"{host}:{port}" for host, port in hosts]
    daemon = ServeDaemon(
        args.host, args.port, store=_store_arg(args), workers=args.workers,
        window_s=DEFAULT_WINDOW_S if args.window is None else args.window,
        default_deadline_s=(DEFAULT_DEADLINE_S if args.deadline is None
                            else args.deadline),
        **extra)
    backend = ("off" if daemon.pool is None
               else f"{daemon.pool.workers} (hosts: "
                    f"{','.join(h for h in getattr(daemon.pool, 'hosts', []))})"
               if hosts is not None else str(daemon.pool.workers))
    print(f"serving on {daemon.url} "
          f"(store: {daemon.store.directory if daemon.store else 'off'}, "
          f"pool workers: {backend})",
          flush=True)
    _unwind_on_sigterm()
    daemon.serve_forever()
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    from repro.dist import LISTENING_PREFIX, DistWorker, parse_hosts

    # argparse enforces dist_command == "worker" (the only subcommand)
    ((host, port),) = parse_hosts(args.listen)
    agent = DistWorker(host, port)
    print(f"{LISTENING_PREFIX}{agent.endpoint}", flush=True)
    _unwind_on_sigterm()
    agent.serve_forever()
    return 0


def _unwind_on_sigterm() -> None:
    """Make SIGTERM unwind a serving loop the way Ctrl-C does.

    The loop's ``finally: close()`` then runs, so a daemon drains its
    in-flight requests and stops its pool's workers, and an agent closes
    its listener, instead of the default action killing the process and
    orphaning the daemon's pool.  The handler only raises: calling
    ``close()`` from it would wait for the ``serve_forever`` frame it
    interrupted.  Later SIGTERMs are ignored so they cannot cut that
    cleanup short.
    """
    def interrupt(signum, frame):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupt)


def _parse_pair(spec: str, flag: str) -> tuple:
    """Parse a ``EPOCH:VALUE`` CLI pair into an int 2-tuple."""
    parts = spec.split(":")
    if len(parts) != 2:
        raise ConfigurationError(f"{flag}: expected two ints, got {spec!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise ConfigurationError(
            f"{flag}: expected two ints, got {spec!r}") from None


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient
    from repro.sim.sweep import SweepPoint, SweepRunner

    client = (ServeClient(args.url) if args.retries is None
              else ServeClient(args.url, retries=args.retries))
    if args.health:
        print(json.dumps(client.health(), indent=2))
        return 0
    if args.stats:
        print(json.dumps(client.stats(), indent=2))
        return 0
    if args.experiment:
        payload = client.experiment(args.experiment, scale=args.scale)
        print(payload["table"])
        return 0
    if not args.model:
        raise ConfigurationError(
            "nothing to query: pass --health, --stats, --experiment ID, or "
            "a what-if question (--model ... [--cache-fraction ...])")
    model = get_model(args.model)
    fractions = args.cache_fractions or [None]
    runner = SweepRunner(get_server_factory(args.server_config),
                         scale=args.scale, seed=args.seed)
    extra = {}
    if args.num_jobs is not None:
        extra["num_jobs"] = args.num_jobs
    if args.num_servers is not None:
        extra["num_servers"] = args.num_servers
    if args.tenants is not None:
        extra["tenants"] = args.tenants
    if args.crashes:
        extra["crash_schedule"] = tuple(
            _parse_pair(spec, "--crash EPOCH:JOB") for spec in args.crashes)
    if args.memberships:
        extra["membership_schedule"] = tuple(
            _parse_pair(spec, "--membership EPOCH:COUNT")
            for spec in args.memberships)
    if args.stragglers:
        extra["straggler_factors"] = tuple(args.stragglers)
    points = [SweepPoint(model=model, loader=args.loader,
                         dataset=args.dataset, cache_fraction=fraction,
                         num_epochs=args.num_epochs, **extra)
              for fraction in fractions]
    results = client.whatif(runner, points, deadline_s=args.deadline)
    exit_code = 0
    for point, result in zip(points, results):
        cache = ("server default" if point.cache_fraction is None
                 else f"{100 * point.cache_fraction:g}% cached")
        header = f"{point.model.name} / {point.loader} / {cache}"
        if result.status == "ok":
            row = result.record.row()
            metrics = ", ".join(
                f"{name} {row[name]:.4g}" for name in
                ("epoch_time_s", "throughput", "cache_miss_ratio")
                if isinstance(row.get(name), (int, float)))
            print(f"{header}: {metrics}")
        else:
            exit_code = 1
            detail = f" ({result.error})" if result.error else ""
            print(f"{header}: {result.status}{detail}")
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list-experiments":
        return _cmd_list_experiments()
    if args.command == "run-experiment":
        return _cmd_run_experiment(args)
    if args.command == "profile":
        return _cmd_profile(args.model, args.dataset, args.server,
                            args.cache, args.scale, args.gpu_prep)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "dist":
        return _cmd_dist(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
