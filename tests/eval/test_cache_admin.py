"""Disk-cache administration: code-fingerprint key salting, usage
stats from a walk of the shard directories, size-bounded pruning, and
the ``repro cache`` CLI."""

import collections
import json
import os
import time

import pytest

from repro.cli import main
from repro.eval import diskcache


@pytest.fixture(autouse=True)
def _cache_enabled(monkeypatch):
    """These tests exist to exercise the disk cache: force it on even
    under the hermetic-CI ``REPRO_NO_CACHE=1`` environment, and
    restore the module-level configuration afterwards."""
    saved = (diskcache._dir_override, diskcache._force_disabled,
             os.environ.get(diskcache.ENV_CACHE_DIR))
    monkeypatch.delenv(diskcache.ENV_NO_CACHE, raising=False)
    diskcache._force_disabled = False
    yield
    diskcache._dir_override, diskcache._force_disabled = saved[:2]
    if saved[2] is None:
        os.environ.pop(diskcache.ENV_CACHE_DIR, None)
    else:
        os.environ[diskcache.ENV_CACHE_DIR] = saved[2]
    diskcache.reset_stats()


def _populate(tmp_path, n=4, size=1000):
    diskcache.configure(cache_dir=str(tmp_path))
    keys = []
    for i in range(n):
        key = diskcache.cache_key("admin", i)
        diskcache.store(key, b"x" * size)
        keys.append(key)
    return keys


class TestCodeFingerprintSalt:
    def test_key_changes_with_code_fingerprint(self, monkeypatch):
        key = diskcache.cache_key("point", 1)
        assert key == diskcache.cache_key("point", 1)  # deterministic
        monkeypatch.setattr(diskcache, "_code_fp", "different-code")
        assert diskcache.cache_key("point", 1) != key

    def test_fingerprint_hashed_once_per_interpreter(self,
                                                     monkeypatch):
        # the package walk + hash is paid at most once per process:
        # repeated runner.run entry points (and every cache_key call)
        # must reuse the memoized digest
        calls = []
        real_walk = os.walk

        def counting_walk(*args, **kw):
            calls.append(args)
            return real_walk(*args, **kw)

        monkeypatch.setattr(diskcache, "_code_fp", None)
        monkeypatch.setattr(diskcache.os, "walk", counting_walk)
        fp = diskcache.code_fingerprint()
        assert diskcache.code_fingerprint() == fp
        diskcache.cache_key("point", 1)
        diskcache.cache_key("point", 2)
        assert len(calls) == 1

    def test_fingerprint_covers_package_sources(self):
        fp = diskcache.code_fingerprint()
        assert fp == diskcache.code_fingerprint()  # memoized
        assert len(fp) == 64
        # the fingerprint hashes this very package: its root holds
        # the repro sources the walk is defined over
        root = os.path.dirname(os.path.abspath(diskcache.__file__))
        assert os.path.exists(os.path.join(root, "diskcache.py"))


class TestDiskStatsAndPrune:
    def test_stats_count_records_and_bytes(self, tmp_path):
        _populate(tmp_path, n=3)
        st = diskcache.disk_stats()
        assert st["dir"] == str(tmp_path)
        assert st["records"] == 3
        assert st["bytes"] > 3 * 1000

    def test_prune_keeps_newest_within_budget(self, tmp_path):
        keys = _populate(tmp_path, n=4)
        # make the first record clearly the oldest
        old = diskcache._record_path(keys[0])
        past = time.time() - 1000
        os.utime(old, (past, past))
        st = diskcache.disk_stats()
        budget = st["bytes"] - 1  # force exactly one eviction
        removed, freed = diskcache.prune(budget)
        assert removed == 1
        assert freed > 0
        assert not os.path.exists(old)
        assert diskcache.load(keys[-1]) is not None

    def test_prune_to_zero_removes_everything(self, tmp_path):
        _populate(tmp_path, n=3)
        removed, _freed = diskcache.prune(0)
        assert removed == 3
        assert diskcache.disk_stats()["records"] == 0

    def test_external_delete_is_noticed(self, tmp_path):
        keys = _populate(tmp_path, n=4)
        assert diskcache.disk_stats()["records"] == 4
        os.unlink(diskcache._record_path(keys[0]))
        assert diskcache.disk_stats()["records"] == 3

    def test_a_writers_temp_file_is_not_a_record(self, tmp_path):
        """A live writer's ``.tmp`` beside a record is neither counted
        nor pruned; only ``fsck`` removes one, once it is older than
        ``tmp_age``."""
        (key,) = _populate(tmp_path, n=1)
        tmp = os.path.join(os.path.dirname(diskcache._record_path(key)),
                           "writer.tmp")
        with open(tmp, "wb") as fh:
            fh.write(b"half a record")
        assert diskcache.disk_stats()["records"] == 1
        assert diskcache.shard_stats() == {key[:2]: {
            "records": 1,
            "bytes": os.path.getsize(diskcache._record_path(key))}}
        assert diskcache.prune(0)[0] == 1
        assert os.path.exists(tmp)
        report = diskcache.fsck(tmp_age=300.0)
        assert (report["checked"], report["stale_tmp"]) == (0, 0)
        assert os.path.exists(tmp)
        past = time.time() - 301
        os.utime(tmp, (past, past))
        assert diskcache.fsck(tmp_age=300.0)["stale_tmp"] == 1
        assert not os.path.exists(tmp)

    def test_index_dir_of_an_older_version_is_never_visited(self,
                                                            tmp_path):
        """Older versions kept ``<cache-dir>/index/<shard>.json``
        beside the shards.  Stats, prune, fsck and clear walk only the
        shard directories: stale index files are neither counted nor
        touched."""
        keys = _populate(tmp_path, n=3, size=500)
        size = os.path.getsize(diskcache._record_path(keys[0]))
        index = tmp_path / "index"
        index.mkdir()
        stale = {"v": 1, "mtime_ns": 1, "count": 99, "bytes": 10 ** 9,
                 "records": {"%064x.pkl" % i: [10 ** 7, 0.0]
                             for i in range(99)}}
        for shard in {k[:2] for k in keys} | {"ff", "00"}:
            (index / (shard + ".json")).write_text(json.dumps(stale))
        (index / "ab.json.tmp").write_text("{torn")
        before = {p.name: p.read_bytes() for p in index.iterdir()}

        shards = collections.Counter(k[:2] for k in keys)
        st = diskcache.disk_stats()
        assert (st["records"], st["bytes"]) == (3, 3 * size)
        assert st["shards"] == len(shards)
        assert diskcache.shard_stats() == {
            shard: {"records": n, "bytes": n * size}
            for shard, n in shards.items()}
        assert diskcache.prune(2 * size) == (1, size)
        report = diskcache.fsck()
        assert (report["checked"], report["ok"]) == (2, 2)
        assert diskcache.clear() == 2
        assert diskcache.disk_stats()["records"] == 0
        assert {p.name: p.read_bytes() for p in index.iterdir()} \
            == before


class TestCacheCLI:
    def test_stats(self, tmp_path, capsys):
        _populate(tmp_path, n=2)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "2" in out

    def test_clear(self, tmp_path, capsys):
        _populate(tmp_path, n=2)
        assert main(["cache", "clear"]) == 0
        assert diskcache.disk_stats()["records"] == 0

    def test_prune_with_size_suffix(self, tmp_path, capsys):
        _populate(tmp_path, n=4, size=1024)
        assert main(["cache", "prune", "--max-size", "2K"]) == 0
        assert diskcache.disk_stats()["bytes"] <= 2048

    def test_cache_dir_flag(self, tmp_path, capsys):
        other = tmp_path / "elsewhere"
        other.mkdir()
        assert main(["cache", "stats",
                     "--cache-dir", str(other)]) == 0
        assert str(other) in capsys.readouterr().out

    def test_stats_json(self, tmp_path, capsys):
        keys = _populate(tmp_path, n=3)
        assert main(["cache", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 3
        assert "hot" not in payload
        dist = payload["shard_distribution"]
        assert sum(e["records"] for e in dist.values()) == 3
        assert keys[0][:2] in dist
