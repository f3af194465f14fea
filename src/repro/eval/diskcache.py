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
that lacks the magic, fails its checksum or does not unpickle
(truncation, bit rot, a crashed writer that somehow bypassed the
atomic rename) is *never* served: it counts as a miss and is moved to
``<cache-dir>/quarantine/`` for post-mortem instead of being silently
trusted or deleted.  A payload unpickles only into the result-record
classes (:func:`loads_record`), so a record planted in a shared cache
directory runs no code.  ``repro cache fsck`` (:func:`fsck`) audits
the whole cache offline.

The cache is the harness's one durable store: a sweep or a sweep
server that is interrupted and started again serves every point it
finished from here and simulates only the rest.

Records bucket into 256 two-hex-digit shard directories, and the
store keeps nothing beside them but ``quarantine/``: :func:`disk_stats`,
:func:`prune`, :func:`fsck` and :func:`clear` walk the shard
directories, and a lookup reads only its own record.  The in-process
memo in front of this store is :mod:`repro.eval.runner`'s, which keeps
every record it reads from here.

Environment knobs (read at call time, so they work for forked pool
workers too):

``REPRO_CACHE_DIR``
    overrides the default ``~/.cache/repro`` location.
``REPRO_NO_CACHE``
    any of ``1/true/yes`` disables the disk cache entirely (used by CI
    to stay hermetic).
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import tempfile

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_NO_CACHE = "REPRO_NO_CACHE"

_TRUTHY = ("1", "true", "yes", "on")

#: process-local override (set by :func:`configure`); beats the env var
_dir_override = None
_force_disabled = False

#: process-local counters, reported in sweep summaries
stats = {"hits": 0, "misses": 0, "writes": 0, "errors": 0,
         "corrupt": 0, "quarantined": 0}

#: record-format magic: MAGIC + sha256(payload) + payload
MAGIC = b"RPR1"


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


#: the classes a result record is built from -- the only globals
#: :func:`loads_record` resolves
_RECORD_CLASSES = {("repro.eval.runner", "KernelRun"),
                   ("repro.energy.events", "EnergyEvents"),
                   ("repro.uarch.lpsu", "LPSUStats")}


class _RecordUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if (module, name) not in _RECORD_CLASSES:
            raise pickle.UnpicklingError("%s.%s is not a record class"
                                         % (module, name))
        return super().find_class(module, name)


def loads_record(data):
    """Unpickle a result record from *data* (bytes).  Any global but a
    record class raises :class:`pickle.UnpicklingError` before it is
    called, so a record from a peer or a shared cache directory runs
    no code."""
    return _RecordUnpickler(io.BytesIO(data)).load()


class CorruptRecord(Exception):
    """A cache record lacks the magic, failed its checksum or did not
    deserialize into a result record."""


def _decode(blob):
    """Deserialize one on-disk record; raises :class:`CorruptRecord`
    on any damage, a missing magic or a global that is not a
    result-record class."""
    if not blob.startswith(MAGIC):
        raise CorruptRecord("no %r magic" % MAGIC)
    digest, payload = blob[4:36], blob[36:]
    if len(digest) != 32 or hashlib.sha256(payload).digest() != digest:
        raise CorruptRecord("checksum mismatch")
    try:
        return loads_record(payload)
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
    and is quarantined (the caller re-simulates and overwrites)."""
    if not enabled():
        return None
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
            # the shard's first record: make its directory
            os.makedirs(directory, exist_ok=True)
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


def _iter_records(suffix=".pkl"):
    """Yield ``(path, size, mtime)`` for every record -- or, with
    *suffix* ``".tmp"``, every writer's temp file -- in the
    two-hex-digit shard directories."""
    root = cache_dir()
    try:
        subs = sorted(os.listdir(root))
    except OSError:
        return
    for sub in subs:
        if len(sub) != 2:
            continue
        subdir = os.path.join(root, sub)
        try:
            names = sorted(os.listdir(subdir))
        except OSError:     # not a directory, or removed meanwhile
            continue
        for name in names:
            if not name.endswith(suffix):
                continue
            path = os.path.join(subdir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            yield path, st.st_size, st.st_mtime


def shard_stats():
    """Record count and bytes of every populated shard directory."""
    out = {}
    for path, size, _mtime in _iter_records():
        shard = out.setdefault(os.path.basename(os.path.dirname(path)),
                               {"records": 0, "bytes": 0})
        shard["records"] += 1
        shard["bytes"] += size
    return out


def disk_stats():
    """Totals for the on-disk cache, from one walk of its shards."""
    shards = shard_stats().values()
    return {"dir": cache_dir(),
            "records": sum(s["records"] for s in shards),
            "bytes": sum(s["bytes"] for s in shards),
            "shards": len(shards)}


def fsck(remove_stale_tmp=True, tmp_age=300.0):
    """Audit every record on disk: verify checksums, quarantine
    damaged records, and sweep stale ``.tmp`` droppings older than
    *tmp_age* seconds (a crashed writer's leftovers; young ones may
    belong to a live writer and are kept).

    Returns a report dict: ``checked``, ``ok``, ``corrupt``,
    ``quarantined`` (destination paths), ``stale_tmp`` (removed
    count).
    """
    import time
    report = {"dir": cache_dir(), "checked": 0, "ok": 0,
              "corrupt": 0, "quarantined": [], "stale_tmp": 0}
    now = time.time()
    if remove_stale_tmp:
        for path, _size, mtime in list(_iter_records(".tmp")):
            if now - mtime > tmp_age:
                try:
                    os.unlink(path)
                    report["stale_tmp"] += 1
                except OSError:
                    pass
    for path, _size, _mtime in list(_iter_records()):
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
    return report


def prune(max_bytes):
    """Shrink the cache to at most *max_bytes* by deleting the
    least-recently-touched records first (loads don't update mtime, so
    this approximates oldest-first).  Returns ``(removed, freed)``."""
    entries = sorted(_iter_records(), key=lambda e: e[2], reverse=True)
    kept = 0
    removed = 0
    freed = 0
    for path, size, _mtime in entries:
        if kept + size <= max_bytes:
            kept += size
            continue
        try:
            os.unlink(path)
        except OSError:
            continue
        removed += 1
        freed += size
    return removed, freed


def clear():
    """Delete every cache record under the active cache directory."""
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
    return removed
