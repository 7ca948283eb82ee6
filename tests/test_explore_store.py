"""Tests for the content-addressed artifact store (repro.explore.store).

Covers the sharded key layout, the index-free grid diff, what becomes of
pre-shard flat entries, the schema-version contract, writer temp-file hygiene and the
single-pass ``stats``/``prune`` maintenance path — plus property-based
(hypothesis) pinning of the layout round-trip and the diff partition
contract.
"""

import json
import os
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.runner import shard_points
from repro.explore.store import (
    CACHE_SCHEMA_VERSION,
    MAX_VALIDATE_BYTES,
    SHARD_PREFIX_LEN,
    ArtifactCAS,
    FakeObjectStore,
    LocalDirBackend,
    ObjectStoreBackend,
    open_store,
)

KEY = "0f" + "a1" * 31  # a realistic 64-hex-char content hash


class TestShardedLayout:
    def test_entry_lands_in_two_level_shard_dir(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        expected = tmp_path / KEY[:SHARD_PREFIX_LEN] / f"{KEY[SHARD_PREFIX_LEN:]}.json"
        assert expected.is_file()
        assert cas.get(KEY) == {"v": 1}

    def test_path_for_matches_published_location(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 2})
        assert cas.path_for(KEY).read_bytes()  # exists and non-empty

    def test_root_directory_stays_listable(self, tmp_path):
        """The root holds at most 256 shard directories, never entries."""
        cas = ArtifactCAS(tmp_path)
        for i in range(32):
            cas.put(f"{i:02x}{'0' * 62}", {"i": i})
        top = [p.name for p in tmp_path.iterdir()]
        assert all((tmp_path / name).is_dir() for name in top)
        assert len(cas) == 32

    def test_key_of_inverts_rel_for(self):
        assert ArtifactCAS.key_of(ArtifactCAS._rel_for(KEY)) == KEY
        assert ArtifactCAS.key_of("ab/cd.json") == "abcd"
        assert ArtifactCAS.key_of("ab.json") == "ab"  # short keys stay flat
        assert ArtifactCAS.key_of(f"{KEY}.json") is None  # pre-shard entry
        assert ArtifactCAS.key_of("ab/cd.tmp") is None
        assert ArtifactCAS.key_of("a/b/c.json") is None

    def test_backend_is_pluggable(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "shared-mount")
        cas = ArtifactCAS(backend=backend)
        cas.put(KEY, {"v": 3})
        # A second store over the same backend path sees the entry: the
        # shared-filesystem sharing model.
        other = ArtifactCAS(tmp_path / "shared-mount")
        assert other.get(KEY) == {"v": 3}

    def test_requires_directory_or_backend(self):
        with pytest.raises(ValueError, match="directory or a backend"):
            ArtifactCAS()


class TestReadWrite:
    def test_miss_on_empty_cache(self, tmp_path):
        cas = ArtifactCAS(tmp_path / "cache")
        assert cas.get("deadbeef") is None
        assert cas.misses == 1
        assert cas.hits == 0

    def test_put_then_get_roundtrip(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        record = {"summary": {"total_power_mw": 8.97}, "gate_count": 70664}
        cas.put("abc123", record)
        assert cas.get("abc123") == record
        assert cas.hits == 1
        assert cas.misses == 0

    def test_creates_directory_lazily_on_first_write(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        cas = ArtifactCAS(target)
        assert not target.exists()  # opening a store has no side effects
        cas.put("abc123", {"x": 1})
        assert target.is_dir()

    def test_put_overwrites(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put("k", {"v": 1})
        cas.put("k", {"v": 2})
        assert cas.get("k") == {"v": 2}


class TestDiff:
    def test_diff_reports_missing_in_input_order(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        keys = [f"{i:02x}{'b' * 62}" for i in range(6)]
        for key in keys[::2]:
            cas.put(key, {"k": key})
        assert cas.diff(keys) == keys[1::2]

    def test_diff_is_existence_only(self, tmp_path):
        """diff never reads or validates: a corrupt entry still counts as
        present (get() heals it later as a miss)."""
        cas = ArtifactCAS(tmp_path)
        cas.path_for(KEY).write_text("corrupt", encoding="utf-8")
        assert cas.diff([KEY]) == []
        assert cas.get(KEY) is None


class TestLegacyMigration:
    """Pre-shard flat entries are left behind, not migrated."""

    def _write_flat(self, tmp_path, key, record):
        entry = {"schema": CACHE_SCHEMA_VERSION, "key": key, "record": record}
        (tmp_path / f"{key}.json").write_text(json.dumps(entry, sort_keys=True))

    def test_flat_entry_misses_and_is_pruned(self, tmp_path):
        """Entries are never migrated: a pre-shard flat ``<key>.json``
        misses, reads as absent to ``diff``/``probe_many``, counts as
        stale and is pruned.  Keys no longer than the shard prefix still
        round-trip at the root."""
        self._write_flat(tmp_path, KEY, {"legacy": True})
        cas = ArtifactCAS(tmp_path)
        cas.put("ab", {"short": True})
        assert (tmp_path / "ab.json").is_file()
        assert cas.get(KEY) is None and cas.misses == 1
        assert KEY not in cas
        assert cas.probe_many([KEY, "ab"]) == {KEY: False, "ab": True}
        assert cas.diff([KEY, "ab"]) == [KEY]
        assert cas.keys() == ["ab"] and len(cas) == 1
        stats = cas.stats()
        assert stats["entries"] == 2 and stats["stale_entries"] == 1
        assert cas.prune() == 1
        assert not (tmp_path / f"{KEY}.json").exists()
        assert cas.get("ab") == {"short": True}

    def test_old_schema_flat_entry_stays_a_miss(self, tmp_path):
        entry = {"schema": CACHE_SCHEMA_VERSION - 1, "key": KEY,
                 "record": {"v": 0}}
        (tmp_path / f"{KEY}.json").write_text(json.dumps(entry))
        cas = ArtifactCAS(tmp_path)
        assert cas.get(KEY) is None
        assert cas.misses == 1


class TestSchemaVersionContract:
    """Bump rules: entries written under any other schema version always
    miss; put() always stamps the current version."""

    @pytest.mark.parametrize("delta", [-1, 1, 1000])
    def test_other_schema_versions_always_miss(self, tmp_path, delta):
        cas = ArtifactCAS(tmp_path)
        entry = {"schema": CACHE_SCHEMA_VERSION + delta, "key": KEY,
                 "record": {"v": 1}}
        cas.path_for(KEY).write_text(json.dumps(entry))
        assert cas.get(KEY) is None

    def test_put_stamps_current_schema(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        entry = json.loads(cas.path_for(KEY).read_text())
        assert entry["schema"] == CACHE_SCHEMA_VERSION
        assert entry["key"] == KEY

    def test_missing_schema_field_misses(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.path_for(KEY).write_text(json.dumps({"record": {"v": 1}}))
        assert cas.get(KEY) is None

    def test_schema_version_is_pinned(self):
        """Changing the version is a deliberate act: this pin forces the
        accompanying migration/bump-rule review (see docs/CACHING.md)."""
        assert CACHE_SCHEMA_VERSION == 2


class TestWriterTempHygiene:
    def test_concurrent_writers_use_distinct_tmp_names(self, tmp_path,
                                                       monkeypatch):
        """Two in-flight writers of one key never share a temp path (the
        pre-CAS `.tmp` suffix collision)."""
        import repro.explore.store as store_mod

        seen = []
        real_replace = os.replace

        def recording_replace(src, dst):
            seen.append(str(src))
            real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", recording_replace)
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        cas.put(KEY, {"v": 1})
        assert len(seen) == 2 and seen[0] != seen[1]
        assert all(s.endswith(".tmp") for s in seen)

    def test_no_tmp_left_after_put(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        assert not list(tmp_path.rglob("*.tmp"))

    def test_orphaned_tmp_visible_in_stats_and_pruned(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        orphan = cas.path_for(KEY).parent / "deadbeef.json.12345.0.tmp"
        orphan.write_bytes(b"half-written")
        stats = cas.stats()
        assert stats["tmp_files"] == 1
        assert stats["tmp_bytes"] == len(b"half-written")
        assert stats["entries"] == 1  # tmp files are not entries
        # Young orphans are spared (could be an in-flight writer)...
        assert cas.prune() == 0
        assert orphan.exists()
        # ...but are reclaimed past the grace window.
        assert cas.prune(tmp_grace_s=0.0) == 1
        assert not orphan.exists()
        assert cas.get(KEY) == {"v": 1}  # entries untouched

    def test_clear_also_removes_tmp_files(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        (tmp_path / "xx").mkdir(exist_ok=True)
        (tmp_path / "xx" / "a.json.1.2.tmp").write_bytes(b"x")
        assert cas.clear() == 1  # counts entries, cleans tmp too
        assert not list(tmp_path.rglob("*.tmp"))


class TestSinglePassMaintenance:
    def test_stats_reads_each_entry_at_most_once(self, tmp_path,
                                                 monkeypatch):
        cas = ArtifactCAS(tmp_path)
        for i in range(4):
            cas.put(f"{i:02x}{'c' * 62}", {"i": i})
        opened = []
        real_read = LocalDirBackend.read_bytes

        def counting_read(self, rel):
            opened.append(rel)
            return real_read(self, rel)

        monkeypatch.setattr(LocalDirBackend, "read_bytes", counting_read)
        cas.stats()
        assert len(opened) == 4
        assert len(set(opened)) == 4

    def test_oversized_entry_is_stale_without_reading(self, tmp_path,
                                                      monkeypatch):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        big = cas.path_for("ff" + "e" * 62)
        with open(big, "wb") as fh:  # sparse: no real multi-GB write
            fh.seek(MAX_VALIDATE_BYTES + 1)
            fh.write(b"\0")

        real_read = LocalDirBackend.read_bytes

        def guarded_read(self, rel):
            if "ff/" in rel:
                raise AssertionError("oversized entry was read")
            return real_read(self, rel)

        monkeypatch.setattr(LocalDirBackend, "read_bytes", guarded_read)
        stats = cas.stats()
        assert stats["stale_entries"] == 1
        assert stats["entries"] == 2
        # prune removes it (again without reading it).
        assert cas.prune() == 1
        assert not big.exists()

    def test_prune_removes_stale_and_keeps_valid(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        cas.path_for("ab" + "d" * 62).write_text("corrupt")
        entry = {"schema": CACHE_SCHEMA_VERSION + 7, "key": "x",
                 "record": {}}
        cas.path_for("cd" + "e" * 62).write_text(json.dumps(entry))
        assert cas.prune() == 2
        assert cas.get(KEY) == {"v": 1}

    def test_prune_older_than_removes_expired_valid_entries(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        cas.put(KEY, {"v": 1})
        old = time.time() - 10_000
        os.utime(cas.path_for(KEY), (old, old))
        assert cas.prune(older_than_s=5_000) == 1
        assert len(cas) == 0


HEX_KEYS = st.text(alphabet="0123456789abcdef", min_size=3, max_size=64)


class TestLayoutProperties:
    @given(key=HEX_KEYS)
    @settings(max_examples=200, deadline=None)
    def test_rel_for_round_trips_through_key_of(self, key):
        rel = ArtifactCAS._rel_for(key)
        assert ArtifactCAS.key_of(rel) == key
        prefix, _, rest = rel.partition("/")
        assert prefix == key[:SHARD_PREFIX_LEN]
        assert rest == f"{key[SHARD_PREFIX_LEN:]}.json"

    @given(keys=st.lists(HEX_KEYS, min_size=1, max_size=24, unique=True),
           data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_diff_partitions_the_grid(self, tmp_path_factory, keys, data):
        """store ∪ missing == grid, disjoint, stable order."""
        stored = data.draw(st.sets(st.sampled_from(keys)))
        root = tmp_path_factory.mktemp("cas-prop")
        cas = ArtifactCAS(root)
        for key in stored:
            cas.put(key, {"k": key})
        missing = cas.diff(keys)
        assert missing == [k for k in keys if k not in stored]  # stable order
        assert set(missing).isdisjoint(stored)
        assert set(missing) | stored == set(keys)
        # Round-trip: everything stored is loadable with its own content.
        for key in stored:
            assert cas.get(key) == {"k": key}


class TestShardPointsProperties:
    @given(n_points=st.integers(min_value=0, max_value=200),
           n_shards=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_shards_partition_the_grid(self, n_points, n_shards):
        points = [SimpleNamespace(index=i) for i in range(n_points)]
        shards = [shard_points(points, (i, n_shards))
                  for i in range(1, n_shards + 1)]
        indices = [p.index for shard in shards for p in shard]
        assert sorted(indices) == list(range(n_points))  # union == grid
        assert len(indices) == len(set(indices))  # disjoint
        for shard in shards:  # each shard preserves expansion order
            assert [p.index for p in shard] == sorted(p.index for p in shard)

    def test_shard_validation(self):
        points = [SimpleNamespace(index=i) for i in range(4)]
        assert shard_points(points, None) == points
        with pytest.raises(ValueError, match="invalid shard"):
            shard_points(points, (0, 2))
        with pytest.raises(ValueError, match="invalid shard"):
            shard_points(points, (3, 2))


def _object_cas(page_size=1000, latency_s=0.0):
    """A fresh ArtifactCAS over an isolated FakeObjectStore."""
    client = FakeObjectStore(page_size=page_size, latency_s=latency_s)
    return ArtifactCAS(backend=ObjectStoreBackend(client, label="mem://unit"))


class TestObjectStoreBackend:
    def test_round_trip_and_layout_match_the_local_store(self, tmp_path):
        """The same puts produce byte-identical entries under the same
        store-relative names on both backends."""
        local = ArtifactCAS(tmp_path / "local")
        remote = _object_cas()
        keys = [f"{i:02x}{'e' * 62}" for i in range(4)]
        for key in keys:
            local.put(key, {"k": key})
            remote.put(key, {"k": key})
        assert remote.keys() == local.keys()
        for key in keys:
            assert remote.get_raw(key) == local.get_raw(key)
            assert remote.get(key) == {"k": key}

    def test_delete_len_clear(self):
        cas = _object_cas()
        keys = [f"{i:02x}{'e' * 62}" for i in range(3)]
        for key in keys:
            cas.put(key, {"k": key})
        assert len(cas) == 3
        assert cas.delete(keys[0]) is True
        assert cas.delete(keys[0]) is False
        assert len(cas) == 2
        assert cas.clear() == 2
        assert cas.keys() == []

    def test_stats_and_prune_ride_the_scan_primitive(self):
        cas = _object_cas()
        key = "ab" + "c" * 62
        cas.put(key, {"v": 1})
        stats = cas.stats()
        assert stats["entries"] == 1
        assert stats["stale_entries"] == 0
        assert stats["tmp_files"] == 0
        assert stats["directory"] == "mem://unit"
        # A wrong-schema blob is stale and reclaimable, like on disk.
        entry = {"schema": CACHE_SCHEMA_VERSION + 7, "key": key, "record": {}}
        cas.backend.write_bytes_atomic(cas._rel_for(key),
                                       json.dumps(entry).encode())
        assert cas.stats()["stale_entries"] == 1
        assert cas.prune() == 1
        assert len(cas) == 0

    def test_path_for_is_a_clean_error(self):
        cas = _object_cas()
        with pytest.raises(TypeError, match="directory backend"):
            cas.path_for("ab" + "c" * 62)

    def test_prefix_namespaces_one_client(self):
        """Two stores sharing one client under different prefixes are
        fully isolated."""
        client = FakeObjectStore()
        a = ArtifactCAS(backend=ObjectStoreBackend(client, prefix="team-a"))
        b = ArtifactCAS(backend=ObjectStoreBackend(client, prefix="team-b"))
        key = "ab" + "d" * 62
        a.put(key, {"who": "a"})
        assert a.get(key) == {"who": "a"}
        assert b.get(key) is None
        assert b.keys() == []
        assert a.keys() == [key]


class TestProbeMany:
    @pytest.mark.parametrize("make", ["local", "object"])
    def test_probe_many_equals_per_key_contains(self, tmp_path, make):
        cas = (ArtifactCAS(tmp_path / "s") if make == "local"
               else _object_cas())
        stored = [f"{i:02x}{'a' * 62}" for i in range(5)]
        absent = [f"{i:02x}{'b' * 62}" for i in range(5)]
        for key in stored:
            cas.put(key, {"k": key})
        probe = cas.probe_many(stored + absent)
        assert probe == {k: cas.contains(k) for k in stored + absent}
        assert all(probe[k] for k in stored)
        assert not any(probe[k] for k in absent)

    def test_object_probe_many_issues_list_pages_not_heads(self):
        """The O(pages) pin: probing a whole grid costs paginated LIST
        calls only — zero per-key HEAD round trips."""
        cas = _object_cas(page_size=3)
        keys = [f"{i:02x}{'a' * 62}" for i in range(8)]
        for key in keys:
            cas.put(key, {"k": key})
        client = cas.backend.client
        client.calls.clear()
        probe = cas.probe_many(keys + ["ff" + "f" * 62])
        assert sum(probe.values()) == 8
        assert client.calls["head"] == 0
        assert client.calls["get"] == 0
        # 8 blobs at page_size 3 -> 3 pages.
        assert client.calls["list"] == 3

    def test_local_probe_many_scans_each_shard_dir_once(self, tmp_path,
                                                        monkeypatch):
        cas = ArtifactCAS(tmp_path)
        # 6 keys across 2 shard dirs.
        keys = [f"{p}{c}{'a' * 62}" for p in ("ab", "cd") for c in "123"]
        for key in keys:
            cas.put(key, {"k": key})
        calls = []
        real_scandir = os.scandir

        def counting_scandir(path):
            calls.append(str(path))
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", counting_scandir)
        missing = cas.diff(keys)
        assert missing == []
        # One scandir per touched shard directory.
        assert len(calls) == 2

    def test_diff_batches_but_keeps_duplicates_and_order(self):
        cas = _object_cas()
        present = "ab" + "a" * 62
        missing = "cd" + "b" * 62
        cas.put(present, {"v": 1})
        assert cas.diff([missing, present, missing]) == [missing, missing]


class TestOpenStore:
    def test_path_and_file_scheme(self, tmp_path):
        cas = open_store(tmp_path / "dir")
        assert isinstance(cas.backend, LocalDirBackend)
        cas2 = open_store(f"file://{tmp_path}/dir2")
        assert isinstance(cas2.backend, LocalDirBackend)

    def test_existing_store_passes_through(self, tmp_path):
        cas = ArtifactCAS(tmp_path)
        assert open_store(cas) is cas

    def test_mem_scheme_is_shared_per_name(self):
        a = open_store("mem://open-store-test")
        b = open_store("mem://open-store-test")
        other = open_store("mem://open-store-other")
        key = "ab" + "e" * 62
        a.put(key, {"v": 1})
        assert b.get(key) == {"v": 1}  # same registry entry
        assert other.get(key) is None
        assert str(a.directory) == "mem://open-store-test"

    def test_opening_a_spec_has_no_side_effects(self, tmp_path):
        target = tmp_path / "never-written"
        open_store(target)
        assert not target.exists()

    def test_must_exist_guards(self, tmp_path):
        with pytest.raises(ValueError, match="store not found"):
            open_store(tmp_path / "missing", must_exist=True)
        with pytest.raises(ValueError, match="store not found"):
            open_store("mem://never-opened-before-xyz", must_exist=True)
        # An opened mem store satisfies must_exist from then on.
        open_store("mem://now-opened").put("ab" + "f" * 62, {})
        open_store("mem://now-opened", must_exist=True)

    def test_unknown_scheme_and_bad_s3_spec(self):
        with pytest.raises(ValueError, match="unknown store scheme"):
            open_store("gopher://hole")
        with pytest.raises(ValueError, match="invalid s3 store spec"):
            open_store("s3://")

    def test_s3_scheme_without_sdk_is_a_clean_error(self, monkeypatch):
        """With boto3 unimportable, s3:// specs raise one line naming the
        missing SDK (the import stays lazy, so this module still works)."""
        import builtins

        real_import = builtins.__import__

        def no_boto3(name, *args, **kwargs):
            if name == "boto3":
                raise ImportError("No module named 'boto3'")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_boto3)
        with pytest.raises(ValueError, match="boto3"):
            open_store("s3://bucket/prefix")
