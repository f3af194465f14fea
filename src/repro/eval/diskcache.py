"""Persistent, content-addressed cache for simulation results.

A cache record is one pickled :class:`~repro.eval.runner.KernelRun`
stored under ``<cache-dir>/<key[:2]>/<key>.pkl``, where *key* is the
SHA-256 of everything that determines the result bit-for-bit:

* the kernel's MiniC source (and serial source, when that is the
  binary being simulated),
* the full platform configuration (``repr`` of the frozen
  :class:`~repro.uarch.params.SystemConfig` tree),
* the package version (stale results die on upgrade),
* the run parameters (mode, binary, xi, scale, seed, scheduling).

Because the key is derived from content rather than names, editing a
kernel or a config invalidates exactly the affected points.

Writes are process-safe: records are written to a temporary file in
the destination directory and published with :func:`os.replace`, so a
concurrent reader sees either nothing or a complete record, and two
workers racing on the same point both write the same bytes.

Records are integrity-checked: the on-disk format is a ``RPR1`` magic,
the SHA-256 of the pickled payload, then the payload itself.  A record
that fails its checksum or does not unpickle (truncation, bit rot, a
crashed writer that somehow bypassed the atomic rename) is *never*
served: it counts as a miss and is moved to ``<cache-dir>/quarantine/``
for post-mortem instead of being silently trusted or deleted.  Bare
pickle records from older versions are still readable.  ``repro cache
fsck`` (:func:`fsck`) audits the whole cache offline.

The store is *sharded*: records bucket into 256 two-hex-digit shard
directories, and each shard carries a persistent index (under
``<cache-dir>/index/<shard>.json``) recording every record's size and
mtime plus the shard directory's mtime at the moment the index was
written.  ``disk_stats``/``prune`` read the 256 small index files
instead of stat()ing every record, so they stay fast at millions of
records.  The index is *advisory and self-healing*: record lookups
never consult it, a store writes only its record, and a shard whose
directory mtime disagrees with its index is rescanned on the spot at
the next ``disk_stats``/``prune`` (stores, deletes and foreign writers
invalidate automatically, because rename/unlink bump the directory
mtime), and ``repro cache fsck`` rebuilds every index from scratch.
Caches written by older versions simply have no index and are indexed
lazily.

On top of the disk tier sits a bounded in-memory *hot tier*: a
process-local LRU of decoded records (keyed by record key + code
fingerprint) so a repeated in-process hit skips the file read, the
checksum, and the unpickle entirely.  ``REPRO_CACHE_HOT_MB`` bounds it
(default 64 MiB, ``0`` disables); :func:`disk_stats` reports its
hits/evictions.  Records are content-addressed and immutable, so a hot
entry can never go stale -- at worst it outlives a pruned file, which
still serves the same bits.

Environment knobs (read at call time, so they work for forked pool
workers too):

``REPRO_CACHE_DIR``
    overrides the default ``~/.cache/repro`` location.
``REPRO_NO_CACHE``
    any of ``1/true/yes`` disables the disk cache entirely (used by CI
    to stay hermetic).
``REPRO_CACHE_HOT_MB``
    size bound of the in-memory decoded-record hot tier in MiB
    (default 64; 0 disables the tier).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_NO_CACHE = "REPRO_NO_CACHE"
ENV_HOT_MB = "REPRO_CACHE_HOT_MB"

_TRUTHY = ("1", "true", "yes", "on")

#: process-local override (set by :func:`configure`); beats the env var
_dir_override = None
_force_disabled = False

#: process-local counters, reported in sweep summaries
stats = {"hits": 0, "misses": 0, "writes": 0, "errors": 0,
         "corrupt": 0, "quarantined": 0,
         "hot_hits": 0, "hot_evictions": 0, "index_rebuilds": 0}

#: record-format magic: MAGIC + sha256(payload) + payload
MAGIC = b"RPR1"

#: on-disk per-shard index format version
INDEX_VERSION = 1

#: subdirectory of the cache root holding the per-shard index files
#: (outside the shard dirs, so writing an index never perturbs the
#: shard mtime the staleness check is based on)
INDEX_DIRNAME = "index"

#: default hot-tier bound when ``REPRO_CACHE_HOT_MB`` is unset
HOT_DEFAULT_MB = 64.0


def configure(cache_dir=None, enabled=None):
    """Set the cache directory and/or force-disable the disk cache for
    this process (and, via the environment, for forked workers)."""
    global _dir_override, _force_disabled
    if cache_dir is not None:
        _dir_override = str(cache_dir)
        os.environ[ENV_CACHE_DIR] = str(cache_dir)
    if enabled is not None:
        _force_disabled = not enabled
        if enabled:
            os.environ.pop(ENV_NO_CACHE, None)
        else:
            os.environ[ENV_NO_CACHE] = "1"


def reset_stats():
    for k in stats:
        stats[k] = 0


def enabled():
    if _force_disabled:
        return False
    return os.environ.get(ENV_NO_CACHE, "").lower() not in _TRUTHY


def cache_dir():
    if _dir_override:
        return _dir_override
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


#: memoized fingerprint of the package's own source code
_code_fp = None


def code_fingerprint():
    """SHA-256 over every ``.py`` file in the installed ``repro``
    package (path + contents, in sorted order).

    Folded into every :func:`cache_key`, this guarantees a result
    simulated by *older code* is never served after any source change
    -- even an unreleased, unversioned edit during development.  The
    version string alone only protects across releases."""
    global _code_fp
    if _code_fp is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        h = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode("utf-8"))
                try:
                    with open(path, "rb") as f:
                        h.update(f.read())
                except OSError:
                    pass
        _code_fp = h.hexdigest()
    return _code_fp


def cache_key(*parts):
    """SHA-256 fingerprint of the ``repr`` of *parts*, salted with
    :func:`code_fingerprint`."""
    payload = code_fingerprint() + repr(parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _record_path(key):
    return os.path.join(cache_dir(), key[:2], key + ".pkl")


class CorruptRecord(Exception):
    """A cache record failed its checksum or did not deserialize."""


# ---------------------------------------------------------------------------
# in-memory hot tier (decoded-record LRU)
# ---------------------------------------------------------------------------

#: hot-tier LRU: (key, code fingerprint) -> (decoded object, byte cost)
_hot: "OrderedDict[tuple, tuple]" = OrderedDict()
_hot_bytes = 0


def hot_limit_bytes():
    """The hot tier's byte budget (``REPRO_CACHE_HOT_MB``)."""
    raw = os.environ.get(ENV_HOT_MB)
    if raw is None or not raw.strip():
        mb = HOT_DEFAULT_MB
    else:
        try:
            mb = float(raw)
        except ValueError:
            mb = HOT_DEFAULT_MB
    return max(0, int(mb * (1 << 20)))


def _hot_get(key):
    entry = _hot.get((key, code_fingerprint()))
    if entry is None:
        return None
    _hot.move_to_end((key, code_fingerprint()))
    stats["hot_hits"] += 1
    return entry[0]


def _hot_put(key, obj, nbytes):
    """Install a decoded record, evicting least-recently-used entries
    down to the byte budget.  An over-budget single record is simply
    not cached (it would evict everything for one entry)."""
    global _hot_bytes
    limit = hot_limit_bytes()
    if limit <= 0 or nbytes > limit:
        return
    hk = (key, code_fingerprint())
    old = _hot.pop(hk, None)
    if old is not None:
        _hot_bytes -= old[1]
    _hot[hk] = (obj, nbytes)
    _hot_bytes += nbytes
    while _hot_bytes > limit and _hot:
        _evicted, (_obj, cost) = _hot.popitem(last=False)
        _hot_bytes -= cost
        stats["hot_evictions"] += 1


def hot_clear():
    """Drop every hot-tier entry (keeps the counters)."""
    global _hot_bytes
    _hot.clear()
    _hot_bytes = 0


def hot_stats():
    """Hot-tier occupancy and lifetime counters."""
    return {"entries": len(_hot), "bytes": _hot_bytes,
            "limit_bytes": hot_limit_bytes(),
            "hits": stats["hot_hits"],
            "evictions": stats["hot_evictions"]}


# ---------------------------------------------------------------------------
# per-shard persistent index
# ---------------------------------------------------------------------------


def _index_dir():
    return os.path.join(cache_dir(), INDEX_DIRNAME)


def _index_path(shard):
    return os.path.join(_index_dir(), shard + ".json")


def _shard_dir(shard):
    return os.path.join(cache_dir(), shard)


def _shard_names():
    """The two-hex-digit shard directories that exist on disk."""
    root = cache_dir()
    try:
        subs = sorted(os.listdir(root))
    except OSError:
        return
    for sub in subs:
        if len(sub) == 2 and os.path.isdir(os.path.join(root, sub)):
            yield sub


def _dir_mtime_ns(path):
    try:
        return os.stat(path).st_mtime_ns
    except OSError:
        return None


def _scan_shard(shard):
    """``name -> [size, mtime]`` for every record (and writer-droppings
    ``.tmp``) in one shard directory -- the O(shard) slow path the
    index exists to avoid."""
    records = {}
    subdir = _shard_dir(shard)
    try:
        names = os.listdir(subdir)
    except OSError:
        return records
    for name in names:
        if not (name.endswith(".pkl") or name.endswith(".tmp")):
            continue
        try:
            st = os.stat(os.path.join(subdir, name))
        except OSError:
            continue
        records[name] = [st.st_size, st.st_mtime]
    return records


def _read_index(shard):
    try:
        with open(_index_path(shard)) as f:
            idx = json.load(f)
    except (OSError, ValueError):
        return None
    if not isinstance(idx, dict) or idx.get("v") != INDEX_VERSION \
            or not isinstance(idx.get("records"), dict):
        return None
    return idx


def _write_index(shard, records, mtime_ns):
    payload = {"v": INDEX_VERSION, "mtime_ns": mtime_ns,
               "count": len(records),
               "bytes": sum(r[0] for r in records.values()),
               "records": records}
    directory = _index_dir()
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(payload, f)
            os.replace(tmp, _index_path(shard))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return None   # an unwritable index is merely a missing index
    return payload


def _shard_index(shard, rebuild=False):
    """The current index payload for *shard*, rescanning (and
    rewriting) it when missing or stale.  Staleness is the shard
    directory's mtime_ns disagreeing with the one recorded at index
    write time: any unlink, rename, or foreign write bumps it."""
    mtime_ns = _dir_mtime_ns(_shard_dir(shard))
    if mtime_ns is None:
        return None
    if not rebuild:
        idx = _read_index(shard)
        if idx is not None and idx.get("mtime_ns") == mtime_ns:
            return idx
    stats["index_rebuilds"] += 1
    # mtime sampled *before* the scan: a writer landing mid-scan
    # leaves the index stale (rescanned next time), never blessed
    mtime_ns = _dir_mtime_ns(_shard_dir(shard))
    records = _scan_shard(shard)
    payload = _write_index(shard, records, mtime_ns)
    if payload is None:
        payload = {"v": INDEX_VERSION, "mtime_ns": mtime_ns,
                   "count": len(records),
                   "bytes": sum(r[0] for r in records.values()),
                   "records": records}
    return payload


def shard_stats():
    """Per-shard record counts and byte sizes (index-served)."""
    out = {}
    for shard in _shard_names():
        idx = _shard_index(shard)
        if idx is not None and idx["count"]:
            out[shard] = {"records": idx["count"],
                          "bytes": idx["bytes"]}
    return out


def _decode(blob):
    """Deserialize one on-disk record (checksummed or legacy bare
    pickle); raises :class:`CorruptRecord` on any damage."""
    if blob.startswith(MAGIC):
        digest, payload = blob[4:36], blob[36:]
        if len(digest) != 32 \
                or hashlib.sha256(payload).digest() != digest:
            raise CorruptRecord("checksum mismatch")
    else:
        payload = blob   # legacy record: bare pickle, best effort
    try:
        return pickle.loads(payload)
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError, TypeError,
            MemoryError) as exc:
        raise CorruptRecord("%s: %s" % (type(exc).__name__, exc))


def _quarantine(path):
    """Move a damaged record to ``<cache-dir>/quarantine/`` for
    post-mortem; returns the destination (or None if the move
    failed -- the record is then simply left in place)."""
    qdir = os.path.join(cache_dir(), "quarantine")
    try:
        os.makedirs(qdir, exist_ok=True)
        dest = os.path.join(qdir, os.path.basename(path))
        n = 0
        while os.path.exists(dest):
            n += 1
            dest = os.path.join(qdir,
                                "%s.%d" % (os.path.basename(path), n))
        os.replace(path, dest)
    except OSError:
        return None
    stats["quarantined"] += 1
    return dest


def load(key):
    """Return the cached object for *key*, or None.  A truncated,
    checksum-failing, or otherwise unreadable record counts as a miss
    and is quarantined (the caller re-simulates and overwrites).

    A warm in-process hit is served from the decoded-record hot tier
    without re-reading or re-hashing the file; the first disk hit
    installs the decoded object there."""
    if not enabled():
        return None
    obj = _hot_get(key)
    if obj is not None:
        stats["hits"] += 1
        return obj
    path = _record_path(key)
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError:
        stats["misses"] += 1
        return None
    try:
        obj = _decode(blob)
    except CorruptRecord:
        stats["corrupt"] += 1
        stats["misses"] += 1
        _quarantine(path)
        return None
    stats["hits"] += 1
    _hot_put(key, obj, len(blob))
    return obj


def store(key, obj):
    """Atomically publish *obj* under *key* (write-to-temp + rename),
    wrapped in the checksummed record format."""
    if not enabled():
        return False
    path = _record_path(key)
    directory = os.path.dirname(path)
    try:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        except FileNotFoundError:
            # the shard's first record: make its directory, and the
            # index directory beside it (a cache holding records
            # always has one, even before its first stats call)
            os.makedirs(directory, exist_ok=True)
            os.makedirs(_index_dir(), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(MAGIC)
                f.write(hashlib.sha256(payload).digest())
                f.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        stats["errors"] += 1
        return False
    stats["writes"] += 1
    return True


def _iter_records():
    """Yield ``(path, size, mtime)`` for every record on disk."""
    root = cache_dir()
    if not os.path.isdir(root):
        return
    for sub in sorted(os.listdir(root)):
        subdir = os.path.join(root, sub)
        if not (len(sub) == 2 and os.path.isdir(subdir)):
            continue
        for name in sorted(os.listdir(subdir)):
            if not (name.endswith(".pkl") or name.endswith(".tmp")):
                continue
            path = os.path.join(subdir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            yield path, st.st_size, st.st_mtime


def disk_stats():
    """Totals for the on-disk cache (index-served: the per-shard
    indexes are read instead of stat()ing every record, with only
    stale shards rescanned) plus the in-memory hot tier."""
    records = 0
    total = 0
    shards = 0
    for shard in _shard_names():
        idx = _shard_index(shard)
        if idx is None:
            continue
        if idx["count"]:
            shards += 1
        records += idx["count"]
        total += idx["bytes"]
    return {"dir": cache_dir(), "records": records, "bytes": total,
            "shards": shards, "hot": hot_stats(),
            "index_rebuilds": stats["index_rebuilds"]}


def fsck(remove_stale_tmp=True, tmp_age=300.0):
    """Audit every record on disk: verify checksums, quarantine
    damaged records, and sweep stale ``.tmp`` droppings older than
    *tmp_age* seconds (a crashed writer's leftovers; young ones may
    belong to a live writer and are kept).

    Every shard index is rebuilt from the audited state at the end, so
    an fsck also repairs stale or missing indexes (``indexed`` reports
    how many shards were re-indexed).

    Returns a report dict: ``checked``, ``ok``, ``legacy`` (readable
    pre-checksum records), ``corrupt``, ``quarantined`` (destination
    paths), ``stale_tmp`` (removed count), ``indexed``.
    """
    import time
    report = {"dir": cache_dir(), "checked": 0, "ok": 0, "legacy": 0,
              "corrupt": 0, "quarantined": [], "stale_tmp": 0,
              "indexed": 0}
    now = time.time()
    for path, _size, mtime in list(_iter_records()):
        if path.endswith(".tmp"):
            if remove_stale_tmp and now - mtime > tmp_age:
                try:
                    os.unlink(path)
                    report["stale_tmp"] += 1
                except OSError:
                    pass
            continue
        report["checked"] += 1
        try:
            with open(path, "rb") as f:
                blob = f.read()
        except OSError:
            continue
        try:
            _decode(blob)
        except CorruptRecord:
            report["corrupt"] += 1
            stats["corrupt"] += 1
            dest = _quarantine(path)
            if dest:
                report["quarantined"].append(dest)
            continue
        report["ok"] += 1
        if not blob.startswith(MAGIC):
            report["legacy"] += 1
    for shard in _shard_names():
        _shard_index(shard, rebuild=True)
        report["indexed"] += 1
    return report


def prune(max_bytes):
    """Shrink the cache to at most *max_bytes* by deleting the
    least-recently-touched records first (loads don't update mtime, so
    this approximates oldest-first).  Returns ``(removed, freed)``.

    The candidate list comes from the per-shard indexes, not a full
    directory walk; every shard a deletion touches gets its index
    rebuilt afterwards (the unlinks have already invalidated it)."""
    entries = []
    for shard in _shard_names():
        idx = _shard_index(shard)
        if idx is None:
            continue
        base = _shard_dir(shard)
        for name, (size, mtime) in idx["records"].items():
            entries.append((os.path.join(base, name), size, mtime,
                            shard))
    entries.sort(key=lambda e: e[2], reverse=True)
    kept = 0
    removed = 0
    freed = 0
    touched = set()
    for path, size, _mtime, shard in entries:
        if kept + size <= max_bytes:
            kept += size
            continue
        try:
            os.unlink(path)
        except OSError:
            continue
        removed += 1
        freed += size
        touched.add(shard)
    for shard in touched:
        _shard_index(shard, rebuild=True)
    return removed, freed


def clear():
    """Delete every cache record under the active cache directory
    (including the per-shard indexes) and drop the hot tier."""
    hot_clear()
    root = cache_dir()
    if not os.path.isdir(root):
        return 0
    removed = 0
    for sub in os.listdir(root):
        subdir = os.path.join(root, sub)
        if not (len(sub) == 2 and os.path.isdir(subdir)):
            continue
        for name in os.listdir(subdir):
            if name.endswith(".pkl") or name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(subdir, name))
                    removed += 1
                except OSError:
                    pass
        try:
            os.rmdir(subdir)
        except OSError:
            pass
    idx_dir = _index_dir()
    if os.path.isdir(idx_dir):
        for name in os.listdir(idx_dir):
            if name.endswith(".json") or name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(idx_dir, name))
                except OSError:
                    pass
        try:
            os.rmdir(idx_dir)
        except OSError:
            pass
    return removed
