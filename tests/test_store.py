"""Tests for the content-addressed sweep result store (``repro.store``).

Five contracts, each enforced against **both** store backends (the JSON
directory layout and the ``sqlite://`` single-file database) through one
parametrized ``location`` fixture:

* **key derivation** — every input that can move a simulated bit moves the
  key (runner spec, point spec incl. label, the warm-kernel kill-switch,
  the schema version, the simulator source digest), and proven-bit-neutral
  knobs (worker count) do not;
* **exact rehydration** — ``SweepRecord.from_snapshot`` inverts
  ``snapshot(include_timeline=True)`` bit for bit for all three record
  kinds, pinned against the committed golden grids at workers=0/1/4 with
  the warm pass fenced off from simulating anything;
* **corruption degrades to misses** — truncated/garbage/mis-keyed/
  wrong-point entries are re-simulated and repaired, never served —
  whether the damage is a mangled entry file or a mangled payload blob;
* **management** — stats/gc/invalidate and the ``store=`` argument
  resolution (explicit > environment default > ``False`` opt-out), with
  ``sqlite://PATH`` URIs selecting the SQLite backend;
* **migration** — ``migrate_store`` round-trips a populated store across
  backends with identical key sets and bit-identical rehydrated records.
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
import zlib

import pytest

from repro.cache.warm_kernel import WARM_KERNEL_ENV_VAR
from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.compute.model_zoo import ALEXNET, RESNET18
from repro.exceptions import ConfigurationError, SweepPointError
from repro.sim.harness import GOLDEN_GRIDS, load_golden, snapshot_diff
from repro.sim.sweep import WORKERS_ENV_VAR, SweepPoint, SweepRecord, SweepRunner
from repro.store import (
    STORE_ENV_VAR,
    SqliteBackend,
    SweepStore,
    migrate_store,
    resolve_store,
    source_digest,
    store_key,
)

SCALE = 1 / 500.0

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

BACKENDS = ("json", "sqlite")


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def _location(tmp_path: pathlib.Path, backend: str, name: str = "store") -> str:
    if backend == "sqlite":
        return f"sqlite://{tmp_path / (name + '.db')}"
    return str(tmp_path / name)


@pytest.fixture
def location(tmp_path, backend) -> str:
    """A fresh store location string for the parametrized backend."""
    return _location(tmp_path, backend)


def _read_raw(store: SweepStore, key: str) -> bytes:
    """The physically stored bytes for ``key`` (file or payload blob)."""
    if store.backend.kind == "json":
        return store.entry_path(key).read_bytes()
    con = sqlite3.connect(str(store.backend.path))
    try:
        row = con.execute("SELECT payload FROM entries WHERE key = ?",
                          (key,)).fetchone()
        assert row is not None, f"no stored entry for {key}"
        return bytes(row[0])
    finally:
        con.close()


def _write_raw(store: SweepStore, key: str, data: bytes) -> None:
    """Overwrite ``key``'s stored bytes in place, bypassing the backend."""
    if store.backend.kind == "json":
        store.entry_path(key).write_bytes(data)
        return
    con = sqlite3.connect(str(store.backend.path))
    try:
        con.execute("UPDATE entries SET payload = ? WHERE key = ?",
                    (data, key))
        con.commit()
    finally:
        con.close()


def _runner(**overrides) -> SweepRunner:
    settings = dict(scale=SCALE, seed=0)
    settings.update(overrides)
    return SweepRunner(settings.pop("server_factory", config_ssd_v100),
                       **settings)


def _points():
    return [
        SweepPoint(model=RESNET18, loader="coordl", dataset="openimages",
                   cache_fraction=0.5),
        SweepPoint(model=RESNET18, loader="dali-shuffle", dataset="openimages",
                   cache_fraction=0.5),
    ]


class TestKeyDerivation:
    def test_key_is_stable_across_runner_instances(self):
        point = _points()[0]
        assert (_runner().point_spec(point) == _runner().point_spec(point))
        assert (store_key(_runner().point_spec(point))
                == store_key(_runner().point_spec(point)))

    @pytest.mark.parametrize("override", [
        dict(seed=1), dict(scale=SCALE / 2), dict(queue_depth=8),
        dict(fast_path=False), dict(server_factory=config_hdd_1080ti),
    ])
    def test_runner_spec_participates(self, override):
        point = _points()[0]
        assert (store_key(_runner().point_spec(point))
                != store_key(_runner(**override).point_spec(point)))

    def test_point_fields_participate_including_label(self):
        runner = _runner()
        base = SweepPoint(model=RESNET18, loader="coordl",
                          dataset="openimages", cache_fraction=0.5)
        variants = [
            SweepPoint(model=ALEXNET, loader="coordl", dataset="openimages",
                       cache_fraction=0.5),
            SweepPoint(model=RESNET18, loader="dali-shuffle",
                       dataset="openimages", cache_fraction=0.5),
            SweepPoint(model=RESNET18, loader="coordl", dataset="openimages",
                       cache_fraction=0.25),
            SweepPoint(model=RESNET18, loader="coordl", dataset="openimages",
                       cache_fraction=0.5, num_epochs=3),
            # label is part of the byte-exact snapshot, so it must key too
            SweepPoint(model=RESNET18, loader="coordl", dataset="openimages",
                       cache_fraction=0.5, label="tagged"),
        ]
        keys = {store_key(runner.point_spec(p)) for p in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_warm_kernel_kill_switch_changes_the_key(self, monkeypatch):
        """REPRO_WARM_KERNEL=0 must produce a different key: a store must
        never answer one configuration with bytes computed under another,
        even when the two are proven byte-identical."""
        runner, point = _runner(), _points()[0]
        monkeypatch.delenv(WARM_KERNEL_ENV_VAR, raising=False)
        enabled = store_key(runner.point_spec(point))
        monkeypatch.setenv(WARM_KERNEL_ENV_VAR, "0")
        disabled = store_key(runner.point_spec(point))
        assert enabled != disabled

    def test_worker_count_does_not_change_the_key(self, monkeypatch):
        """Serial and pooled runs are byte-identical, so they share entries."""
        runner, point = _runner(), _points()[0]
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        serial = store_key(runner.point_spec(point))
        monkeypatch.setenv(WORKERS_ENV_VAR, "4")
        pooled = store_key(runner.point_spec(point))
        assert serial == pooled

    def test_schema_version_participates(self, monkeypatch):
        import repro.store.store as store_module
        runner, point = _runner(), _points()[0]
        current = store_key(runner.point_spec(point))
        monkeypatch.setattr(store_module, "STORE_SCHEMA_VERSION", 999)
        assert store_module.store_key(runner.point_spec(point)) != current

    def test_custom_model_reusing_a_zoo_name_keys_differently(self):
        """The address covers every ModelSpec field, not just the name: a
        custom spec named like a zoo model must never share an entry with
        it (nor be *served* one — the point guard backstops below)."""
        from dataclasses import replace
        runner = _runner()
        impostor = replace(RESNET18, gpu_rate_v100=3200.0)
        zoo_point = SweepPoint(model=RESNET18, loader="coordl",
                               dataset="openimages", cache_fraction=0.5)
        impostor_point = SweepPoint(model=impostor, loader="coordl",
                                    dataset="openimages", cache_fraction=0.5)
        assert (store_key(runner.point_spec(zoo_point))
                != store_key(runner.point_spec(impostor_point)))

    def test_custom_model_sweeps_are_correct_but_never_served_hits(
            self, location):
        """Records of a custom zoo-named model rehydrate to the zoo spec,
        so the point guard rejects them: re-simulated every time, never
        wrong."""
        from dataclasses import replace
        impostor = replace(RESNET18, gpu_rate_v100=3200.0)
        point = SweepPoint(model=impostor, loader="coordl",
                           dataset="openimages", cache_fraction=0.5)
        store = SweepStore(location)
        first = _runner().run([point], store=store).snapshot()
        second_store = SweepStore(location)
        second = _runner().run([point], store=second_store).snapshot()
        assert second_store.hits == 0 and second_store.invalid == 1
        assert second == first  # re-simulated, deterministic

    def test_unresolvable_server_factory_is_rejected_for_store_use(
            self, tmp_path):
        """Closures/lambdas share qualified names, so naming them would be
        an unsound content address: store-backed runs reject them loudly
        (store-less runs still work)."""
        factory = lambda **kw: config_ssd_v100(**kw)  # noqa: E731
        runner = SweepRunner(factory, scale=SCALE, seed=0)
        point = _points()[0]
        assert len(runner.run([point], store=False)) == 1
        with pytest.raises(ConfigurationError, match="module-level"):
            runner.run([point], store=SweepStore(tmp_path / "store"))

    def test_ambient_store_bypasses_unkeyable_factories(self, tmp_path,
                                                        monkeypatch):
        """An ambient REPRO_SWEEP_STORE must not break runners the store
        cannot key: closure factories simulated fine before the store
        existed, so they silently skip it (only an *explicit* store=
        request fails loudly — previous test)."""
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "ambient"))
        factory = lambda **kw: config_ssd_v100(**kw)  # noqa: E731
        runner = SweepRunner(factory, scale=SCALE, seed=0)
        sweep = runner.run([_points()[0]])
        assert len(sweep) == 1
        assert not (tmp_path / "ambient").exists() or (
            SweepStore(tmp_path / "ambient").stats().entries == 0)


class TestSourceDigest:
    def test_source_digest_is_stable_and_hex(self):
        assert source_digest() == source_digest()
        assert len(source_digest()) == 16
        int(source_digest(), 16)  # raises if not hex

    def test_source_digest_participates_in_the_key(self, monkeypatch):
        """Editing the simulator must orphan every stored entry: the key
        embeds a digest of ``repro.sim``/``repro.cache`` source, so a
        store can never serve bytes computed by a different simulator."""
        import repro.store.store as store_module
        runner, point = _runner(), _points()[0]
        current = store_key(runner.point_spec(point))
        monkeypatch.setattr(store_module, "_SOURCE_DIGEST",
                            "0123456789abcdef")
        assert store_module.store_key(runner.point_spec(point)) != current


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("point", [
        SweepPoint(model=RESNET18, loader="coordl", dataset="openimages",
                   cache_fraction=0.5, num_epochs=3),
        SweepPoint(model=ALEXNET, loader="hp-baseline",
                   dataset="imagenet-1k", cache_fraction=1.2, num_jobs=4),
        SweepPoint(model=RESNET18, loader="dist-coordl", dataset="openimages",
                   cache_fraction=0.6, num_servers=2),
    ], ids=["training", "hp-search", "distributed"])
    def test_from_snapshot_is_exact_for_every_record_kind(self, point):
        record = _runner().run([point]).records[0]
        rehydrated = SweepRecord.from_snapshot(
            record.snapshot(include_timeline=True))
        assert rehydrated.snapshot() == record.snapshot()
        assert (rehydrated.snapshot(include_timeline=True)
                == record.snapshot(include_timeline=True))
        assert rehydrated.point == record.point

    def test_digest_only_snapshot_with_timeline_cannot_be_inverted(self):
        point = SweepPoint(model=RESNET18, loader="dali-shuffle",
                           dataset="openimages", cache_fraction=0.5)
        record = _runner().run([point]).records[0]
        assert any(len(e.io.timeline) for e in record.run.epochs)
        with pytest.raises(ConfigurationError):
            SweepRecord.from_snapshot(record.snapshot())


class TestHitMissFlow:
    def test_cold_then_warm_is_byte_identical_with_zero_simulations(
            self, location):
        store = SweepStore(location)
        cold = _runner().run(_points(), store=store).snapshot()
        assert store.hits == 0 and store.misses == 2 and store.puts == 2

        warm_store = SweepStore(location)
        simulated = []
        original = SweepRunner._run_point
        SweepRunner._run_point = lambda self, p: simulated.append(p) or original(self, p)
        try:
            warm = _runner().run(_points(), store=warm_store).snapshot()
        finally:
            SweepRunner._run_point = original
        assert not simulated
        assert warm_store.hits == 2 and warm_store.misses == 0
        assert warm == cold

    def test_environment_variable_supplies_the_default_store(
            self, location, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, location)
        _runner().run(_points())
        assert SweepStore(location).stats().entries == 2

    def test_store_false_disables_the_environment_default(
            self, location, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, location)
        _runner().run(_points(), store=False)
        assert SweepStore(location).stats().entries == 0

    def test_store_accepts_a_location_string(self, location, monkeypatch):
        _runner().run(_points(), store=location)
        monkeypatch.setattr(
            SweepRunner, "_run_point",
            lambda self, p: (_ for _ in ()).throw(
                AssertionError("warm run simulated a point")))
        warm = _runner().run(_points(), store=location)
        assert len(warm) == 2

    def test_failed_points_are_never_stored(self, location):
        store = SweepStore(location)
        bad = SweepPoint(model=ALEXNET, loader="hp-baseline", num_jobs=64,
                         label="overcommitted-hp-point")
        with pytest.raises(SweepPointError):
            _runner().run([bad], store=store)
        assert store.stats().entries == 0

    @pytest.mark.parametrize("workers", [0, 2])
    def test_points_finished_before_a_failure_are_kept(self, location,
                                                       workers):
        """Records commit as they complete, so a failing grid is resumable:
        the retry pays only for the points the first attempt never ran."""
        store = SweepStore(location)
        good = _points()
        bad = SweepPoint(model=ALEXNET, loader="hp-baseline", num_jobs=64,
                         label="overcommitted-hp-point")
        with pytest.raises(SweepPointError):
            _runner().run(good + [bad], workers=workers, store=store)
        assert store.stats().entries == len(good)

        retry_store = SweepStore(location)
        retry = _runner().run(good, workers=workers, store=retry_store)
        assert retry_store.hits == len(good) and retry_store.misses == 0
        assert len(retry) == len(good)

    def test_mixed_hits_and_misses_reassemble_in_input_order(self, location):
        store = SweepStore(location)
        points = _points()
        _runner().run([points[0]], store=store)  # prime one of two points
        warm_store = SweepStore(location)
        sweep = _runner().run(points, store=warm_store)
        assert warm_store.hits == 1 and warm_store.misses == 1
        assert [r.point for r in sweep] == points


class TestCorruptionAndInvalidation:
    def _primed(self, location):
        store = SweepStore(location)
        runner = _runner()
        keys = [store.key_for(runner, p) for p in _points()]
        runner.run(_points(), store=store)
        return store, keys

    @staticmethod
    def _truncate(store, key):
        raw = _read_raw(store, key)
        _write_raw(store, key, raw[: len(raw) // 2])

    @staticmethod
    def _garbage(store, key):
        _write_raw(store, key, b"not json at all {")

    @staticmethod
    def _binary(store, key):
        _write_raw(store, key, b"\x00\xff\x00\xff")

    @staticmethod
    def _empty_object(store, key):
        # A structurally valid payload that is not a record: the JSON
        # layout stores entry files, the SQLite layout compressed blobs.
        data = b"{}" if store.backend.kind == "json" else zlib.compress(b"{}")
        _write_raw(store, key, data)

    @pytest.mark.parametrize("corruption", [
        "_truncate", "_garbage", "_binary", "_empty_object",
    ], ids=["truncated", "garbage-json", "binary-garbage", "empty-object"])
    def test_corrupt_entries_are_misses_and_get_repaired(
            self, location, corruption):
        store, keys = self._primed(location)
        intact = _read_raw(store, keys[0])
        getattr(self, corruption)(store, keys[0])

        fresh = SweepStore(location)
        assert fresh.get(keys[0], _points()[0]) is None
        assert fresh.invalid == 1 and fresh.misses == 1

        # A store-backed run re-simulates the corrupted point only, and the
        # rewrite restores the byte-exact entry (both layouts serialize
        # deterministically, compression included).
        repair = SweepStore(location)
        _runner().run(_points(), store=repair)
        assert repair.misses == 1 and repair.hits == 1 and repair.puts == 1
        assert _read_raw(store, keys[0]) == intact

    def test_entry_under_the_wrong_key_is_a_miss(self, location):
        store, keys = self._primed(location)
        # Swap the two entries' stored bytes: both now carry a key (JSON
        # layout) or a record point (both layouts) that does not match the
        # address they sit at.
        a_raw, b_raw = (_read_raw(store, k) for k in keys)
        _write_raw(store, keys[0], b_raw)
        _write_raw(store, keys[1], a_raw)
        fresh = SweepStore(location)
        assert fresh.get(keys[0], _points()[0]) is None
        assert fresh.get(keys[1], _points()[1]) is None
        assert fresh.invalid == 2

    def test_point_mismatch_is_a_miss_even_with_a_valid_entry(self, location):
        store, keys = self._primed(location)
        other = SweepStore(location)
        # Force point 0's stored record under point 1's key, with the
        # storage layer's own framing intact — only the record/point guard
        # can catch it.
        if store.backend.kind == "json":
            entry = json.loads(store.entry_path(keys[0]).read_text())
            entry["key"] = keys[1]
            store.entry_path(keys[1]).write_text(json.dumps(entry))
        else:
            _write_raw(store, keys[1], _read_raw(store, keys[0]))
        assert other.get(keys[1], _points()[1]) is None
        assert other.invalid == 1

    def test_stats_gc_and_invalidate(self, location, backend):
        store, keys = self._primed(location)
        stats = store.stats()
        assert stats.entries == 2 and stats.total_bytes > 0
        assert stats.puts == 2 and stats.misses == 2
        assert stats.backend == backend
        assert stats.disk_bytes >= stats.total_bytes

        assert store.gc() == 0  # no budgets: no-op
        assert store.gc(max_entries=1) == 1
        assert store.stats().entries == 1
        assert store.gc(max_bytes=0) == 1
        assert store.stats().entries == 0

        self._primed(location)
        assert store.invalidate(prefix="no-such-prefix") == 0
        assert store.invalidate() == 2
        assert store.stats().entries == 0

    def test_gc_keeps_the_newest_entries(self, location):
        """Both backends implement the same policy: oldest (insertion
        order) entries go first when a budget is exceeded."""
        store, keys = self._primed(location)
        ordered = store.backend.entries()
        assert store.gc(max_entries=1) == 1
        assert store.stats().entries == 1
        survivor = store.backend.entries()
        assert len(survivor) == 1 and survivor[0] in ordered

    def test_invalidate_by_prefix(self, location):
        store, keys = self._primed(location)
        prefix = keys[0][:8]
        expected = sum(1 for k in keys if k.startswith(prefix))
        assert store.invalidate(prefix=prefix) == expected
        assert store.stats().entries == 2 - expected

    def test_gc_rejects_negative_budgets(self, location):
        store = SweepStore(location)
        with pytest.raises(ConfigurationError):
            store.gc(max_entries=-1)
        with pytest.raises(ConfigurationError):
            store.gc(max_bytes=-1)


class TestResolveStore:
    def test_none_without_environment_is_no_store(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert resolve_store(None) is None

    def test_none_with_environment_opens_it(self, location, monkeypatch,
                                            backend):
        monkeypatch.setenv(STORE_ENV_VAR, location)
        store = resolve_store(None)
        assert isinstance(store, SweepStore)
        assert store.backend.kind == backend

    def test_false_always_disables(self, location, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, location)
        assert resolve_store(False) is None

    def test_instances_and_paths_pass_through(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        assert resolve_store(store) is store
        assert resolve_store(str(tmp_path / "other")).directory == (
            tmp_path / "other")
        assert resolve_store(tmp_path / "third").directory == (
            tmp_path / "third")

    def test_sqlite_uri_selects_the_sqlite_backend(self, tmp_path):
        store = resolve_store(f"sqlite://{tmp_path / 'nested' / 'store.db'}")
        assert store.backend.kind == "sqlite"
        assert store.directory == tmp_path / "nested" / "store.db"

    def test_plain_paths_select_the_json_backend(self, tmp_path):
        assert resolve_store(str(tmp_path / "plain")).backend.kind == "json"

    def test_backend_instances_pass_through(self, tmp_path):
        backend = SqliteBackend(tmp_path / "direct.db")
        store = resolve_store(backend)
        assert isinstance(store, SweepStore)
        assert store.backend is backend

    def test_everything_else_is_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_store(42)


class TestMigrate:
    def test_round_trip_is_bit_identical(self, tmp_path):
        """json -> sqlite -> json preserves the key set, rehydrates
        bit-identical records, and reproduces byte-identical entry files."""
        src = SweepStore(tmp_path / "json-src")
        runner = _runner()
        runner.run(_points(), store=src)
        keys = src.backend.entries()
        assert len(keys) == 2

        dest = SweepStore(f"sqlite://{tmp_path / 'migrated.db'}")
        assert migrate_store(src, dest) == 2
        assert dest.backend.entries() == keys
        for point in _points():
            key = src.key_for(runner, point)
            a = src.get(key, point).snapshot(include_timeline=True)
            b = dest.get(key, point).snapshot(include_timeline=True)
            assert a == b

        back = SweepStore(tmp_path / "json-back")
        assert migrate_store(dest, back) == 2
        assert back.backend.entries() == keys
        for key in keys:
            assert (back.entry_path(key).read_bytes()
                    == src.entry_path(key).read_bytes())

    def test_migrated_store_serves_warm_hits(self, tmp_path):
        """A migrated store is a *warm* store: zero simulations."""
        src = SweepStore(tmp_path / "json-src")
        _runner().run(_points(), store=src)
        dest = SweepStore(f"sqlite://{tmp_path / 'migrated.db'}")
        migrate_store(src, dest)

        simulated = []
        original = SweepRunner._run_point
        SweepRunner._run_point = (
            lambda self, p: simulated.append(p) or original(self, p))
        try:
            warm = _runner().run(_points(), store=dest).snapshot()
        finally:
            SweepRunner._run_point = original
        assert not simulated and dest.hits == 2
        assert warm == _runner().run(_points(), store=False).snapshot()

    def test_migrate_skips_corrupt_entries(self, tmp_path):
        src = SweepStore(tmp_path / "json-src")
        runner = _runner()
        keys = [src.key_for(runner, p) for p in _points()]
        runner.run(_points(), store=src)
        src.entry_path(keys[0]).write_text("not json {")
        dest = SweepStore(f"sqlite://{tmp_path / 'migrated.db'}")
        assert migrate_store(src, dest) == 1
        assert dest.backend.entries() == [keys[1]]

    def test_migrate_requires_explicit_stores(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        with pytest.raises(ConfigurationError):
            migrate_store(None, None)


class TestGoldenGridsThroughStore:
    """The acceptance gate: cold-then-warm reproduces every committed
    golden snapshot at every worker count on every backend, the warm pass
    all store hits."""

    @pytest.mark.parametrize("workers", [0, 1, 4])
    @pytest.mark.parametrize("name", sorted(GOLDEN_GRIDS))
    def test_cold_and_warm_match_the_committed_golden(
            self, name, workers, location):
        grid = GOLDEN_GRIDS[name]
        expected = load_golden(name, GOLDEN_DIR)

        cold_store = SweepStore(location)
        cold = grid.build_runner().run(grid.points(), workers=workers,
                                       store=cold_store).snapshot()
        assert not snapshot_diff(expected, cold), (
            f"{name}: cold store-backed run diverged from the golden")
        assert cold_store.hits == 0
        assert cold_store.puts == len(grid.points())

        warm_store = SweepStore(location)
        simulated = []
        original = SweepRunner._run_point
        SweepRunner._run_point = (
            lambda self, p: simulated.append(p) or original(self, p))
        try:
            warm = grid.build_runner().run(grid.points(), workers=workers,
                                           store=warm_store).snapshot()
        finally:
            SweepRunner._run_point = original
        assert not simulated, (
            f"{name}: warm run simulated {len(simulated)} points")
        assert warm_store.misses == 0
        assert warm_store.hits == len(grid.points())
        assert not snapshot_diff(expected, warm), (
            f"{name}: warm (rehydrated) run diverged from the golden")


class TestPayloadCodec:
    """SQLite payloads are zlib-packed, and each row records its codec."""

    def test_a_row_naming_another_codec_is_invalid_and_repaired(
            self, tmp_path):
        """A row whose codec column names anything but zlib (a store
        written by a build with another codec) reads as an invalid entry:
        deleted, re-simulated and rewritten byte-identically."""
        location = f"sqlite://{tmp_path / 'store.db'}"
        store = SweepStore(location)
        runner = _runner()
        runner.run(_points(), store=store)
        key = store.key_for(runner, _points()[0])
        intact = _read_raw(store, key)
        con = sqlite3.connect(str(store.backend.path))
        try:
            con.execute("UPDATE entries SET codec = 'zstd' WHERE key = ?",
                        (key,))
            con.commit()
        finally:
            con.close()

        repair = SweepStore(location)
        _runner().run(_points(), store=repair)
        assert repair.invalid == 1 and repair.hits == 1
        assert repair.puts == 1
        assert _read_raw(store, key) == intact

    def test_migrate_round_trips_across_codecs(self, tmp_path):
        """sqlite (zlib) -> json -> sqlite: the rehydrated snapshots are
        bit-identical."""
        src = SweepStore(f"sqlite://{tmp_path / 'src.db'}")
        runner = _runner()
        runner.run(_points(), store=src)
        middle = SweepStore(tmp_path / "json-middle")
        assert migrate_store(src, middle) == 2
        dest = SweepStore(f"sqlite://{tmp_path / 'dest.db'}")
        assert migrate_store(middle, dest) == 2
        for point in _points():
            key = src.key_for(runner, point)
            assert (dest.get(key, point).snapshot(include_timeline=True)
                    == src.get(key, point).snapshot(include_timeline=True))


class TestSqliteGcReclaimsDisk:
    def test_gc_shrinks_the_physical_footprint(self, tmp_path):
        """``gc`` on SQLite checkpoints the WAL and VACUUMs, so pruning
        entries actually returns disk (a bare DELETE would not)."""
        store = SweepStore(f"sqlite://{tmp_path / 'store.db'}")
        runner = _runner()
        runner.run(_points(), store=store)
        before = store.stats().disk_bytes
        assert store.gc(max_entries=1) == 1
        after = store.stats().disk_bytes
        assert after < before, (
            f"gc left the footprint at {after} bytes (was {before})")
        # The survivor still serves after the rebuild.
        survivor = store.backend.entries()
        assert len(survivor) == 1
        served = sum(
            1 for point in _points()
            if SweepStore(f"sqlite://{tmp_path / 'store.db'}").get(
                store.key_for(runner, point), point) is not None)
        assert served == 1


class TestStatsByRunner:
    def test_rows_group_on_the_runner_digest(self, tmp_path):
        store = SweepStore(f"sqlite://{tmp_path / 'store.db'}")
        _runner().run(_points(), store=store)
        _runner(seed=7).run(_points(), store=store)
        rows = store.stats_by_runner()
        assert len(rows) == 2
        assert sum(row.entries for row in rows) == 4
        assert all(row.runner_digest and row.payload_bytes > 0
                   for row in rows)
        # Biggest runner first — the operator-facing ordering.
        assert rows == sorted(rows, key=lambda r: (-r.payload_bytes,
                                                   r.runner_digest))

    def test_analytics_never_unpack_payloads(self, tmp_path, monkeypatch):
        """The by-runner rollup is index-only SQL over the indexed
        ``runner_digest`` column — decompressing payloads for stats
        would defeat the index/payload split."""
        import repro.store.backend as backend_module
        store = SweepStore(f"sqlite://{tmp_path / 'store.db'}")
        _runner().run(_points(), store=store)

        def forbidden(codec, blob):
            raise AssertionError("stats_by_runner unpacked a payload")

        monkeypatch.setattr(backend_module, "_unpack", forbidden)
        rows = store.stats_by_runner()
        assert rows and rows[0].entries == 2

    def test_json_backend_refuses_loudly(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        _runner().run(_points(), store=store)
        with pytest.raises(ConfigurationError, match="no runner index"):
            store.stats_by_runner()
