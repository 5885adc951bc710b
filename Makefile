# Development entry points.  Everything runs against the in-tree sources
# (PYTHONPATH=src), so no editable install is required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-workers bench bench-json bench-smoke bench-e2e-smoke \
        bench-parallel bench-store docs-check tables-check store-check \
        store-check-sqlite serve-check failure-check chaos-check dist-check \
        check

## Tier-1 test suite (must stay green).
test:
	$(PYTHON) -m pytest -x -q tests

## Tier-1 suite with every sweep fanned out over a 2-process worker pool
## (results are byte-identical by contract; this leg proves it end to end).
test-workers:
	REPRO_SWEEP_WORKERS=2 $(PYTHON) -m pytest -x -q tests

## Reproduce the paper's tables/figures and the sweep-speed benchmarks.
## Writes machine-readable per-grid results to BENCH_sweep.json in the
## repo root (locally and in CI alike).
bench:
	$(PYTHON) -m pytest -q benchmarks -s

## Alias: regenerate BENCH_sweep.json from just the sweep-speed gates
## (smoke + parallel) without the full table/figure benchmarks.
bench-json: bench-smoke bench-parallel

## Quick benchmark smoke: the vectorised-vs-reference sweep speed gates
## (Fig. 3, Fig. 9b, and the warm/thrashing segmented-LRU kernel gate) —
## fast enough to run on every push.  The heavier parallel-vs-serial gate
## lives in bench-parallel (and in full `make bench`).
bench-smoke:
	$(PYTHON) -m pytest -q -s -k "not parallel" \
	    benchmarks/test_sweep_speed.py \
	    benchmarks/test_distributed_sweep_speed.py

## End-to-end benchmark smoke: every bench/run.py workload (report cold and
## warm, serve, dist) at --smoke size, untraced and traced, must pass its
## correctness checks and emit every metric BENCHMARK.json names.  It also
## fails when the library drops an attribute bench/tracing.py patches.
bench-e2e-smoke:
	$(PYTHON) -m pytest -q bench/test_bench_smoke.py

## Parallel-vs-serial sweep gate: a 16-point grid through workers=4 must be
## byte-identical to the serial run, and >=2x faster on a >=4-core machine.
bench-parallel:
	$(PYTHON) -m pytest -q -s -k "parallel" benchmarks/test_sweep_speed.py

## Verify every public __all__ symbol (repro, repro.sim, repro.coordl,
## repro.cache, repro.store, ...) and every sweep-point kind (loader name)
## in repro.sim.POINT_KINDS is documented in docs/API.md, and that every
## documented constant's literal value matches the exported one.  Also the
## reverse: every repro.<name> in docs/ARCHITECTURE.md and docs/API.md must
## resolve, every key type in an ARCHITECTURE.md module row must be an
## attribute of that row's module, and every name= keyword in an API.md
## class/function signature must be a parameter of that callable.
docs-check:
	$(PYTHON) tools/docs_check.py

## Report byte-identity gate: regenerate every experiment at the bench
## report scale (1/800, no store, no pool) and compare the digest of its
## tables with bench/expected_tables.sha256, once with the warm kernel and
## once with REPRO_WARM_KERNEL=0 (every replay walks item by item).
tables-check:
	$(PYTHON) tools/tables_check.py

## Result-store round-trip gate, run against BOTH backends (the JSON
## directory and the sqlite:// database): cold grid run populates the
## store, warm run must be all hits, zero simulations and byte-identical;
## per-backend store stats and a json-vs-sqlite comparison land in
## BENCH_store.json (repo root).
store-check:
	$(PYTHON) tools/store_check.py

## Alias: the same gate against only the SQLite backend.
store-check-sqlite:
	$(PYTHON) tools/store_check.py --backend sqlite

## Backend micro-benchmark: a 1000-entry warm read+stats workload where the
## SQLite backend must beat the JSON directory by
## $$REPRO_BENCH_MIN_SQLITE_SPEEDUP (default 3x); results merge into
## BENCH_sweep.json.
bench-store:
	$(PYTHON) -m pytest -q -s benchmarks/test_store_backends.py

## Serve-layer gate: the concurrency + fault test harness for the what-if
## daemon and the write-once store, then every committed golden grid served
## twice over HTTP from an in-process daemon (warm pass must be pure store
## reads, both passes byte-identical to tests/golden).  Latency percentiles
## land in BENCH_serve.json (repo root).
serve-check:
	$(PYTHON) -m pytest -x -q tests/test_serve.py tests/test_store_concurrency.py
	$(PYTHON) tools/store_check.py --serve

## Failure & elasticity scenario gate: the scenario unit and property
## tests, the failure golden grids at workers=0/1/4 and through both store
## backends, then the two failure grids served twice over HTTP (warm pass
## must be pure store reads, byte-identical to tests/golden).
failure-check:
	$(PYTHON) -m pytest -x -q tests/test_failure_scenarios.py \
	    tests/test_golden_sweeps.py
	$(PYTHON) tools/store_check.py --serve \
	    --grids fig_crash_small fig_elastic_small

## Resilience gate: the chaos test suite (deterministic fault injection,
## supervised-pool kill/respawn recovery, store degradation ladders, serve
## admission control), then the store round-trip gate re-run under the
## committed fault plan (transient faults must be absorbed by retries),
## then every committed golden grid replayed under that plan through a
## supervised worker pool on both backends — byte-identical despite
## SIGKILLed workers and injected store errors.  Delivered-fault counters
## land in BENCH_resilience.json (repo root).
chaos-check:
	$(PYTHON) -m pytest -x -q tests/test_resilience.py
	REPRO_FAULT_PLAN=tools/fault_plans/ci.json $(PYTHON) tools/store_check.py
	$(PYTHON) tools/chaos_check.py

## Distributed-fabric gate: the protocol/executor/agent test suite, then
## every committed golden grid replayed through a DistExecutor over one
## and over two real `python -m repro dist worker` subprocesses —
## byte-identical at both — and once more per grid with one agent
## SIGKILLed mid-sweep under a host_kills fault plan (chunks reassigned;
## zero lost or duplicated records per the store trace checker; no agent
## descendant left running).  Topology timings and steal/reassignment
## counters land in BENCH_dist.json (repo root).
dist-check:
	$(PYTHON) -m pytest -x -q tests/test_dist.py
	$(PYTHON) tools/dist_check.py

## Everything the CI gate's main leg runs (the parallel-workers, store and
## serve legs add `make test-workers bench-smoke bench-parallel` under
## REPRO_SWEEP_WORKERS=2, `make test store-check` under REPRO_SWEEP_STORE,
## `make serve-check`, `make failure-check`, and `make chaos-check`
## respectively).
check: test docs-check tables-check bench-smoke bench-e2e-smoke store-check
