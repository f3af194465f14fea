"""Append-only, crash-safe JSON-lines journal of point transitions.

It persists the sweep server's work queue (``repro serve --journal``)
and a resumable sweep (``repro sweep --checkpoint``) alike: one JSON
object per line, keyed on the point's :func:`qkey_of`, with an ``op``
of ``enqueue`` (and the ``wire`` point), ``complete`` (a checkpoint's
also carries the result ``record`` and ``wall`` time) or ``fail``.
Every append is flushed and fsync'd.  A crash mid-append leaves at
worst one torn final line, which is any final line without its
newline: replay skips it, and opening the file for appending cuts it
off -- glued onto it, the next append would be lost at the following
replay.  A journal is advice about what not to redo (results live in
the disk cache), so an append that fails is reported and dropped,
never raised into the work it records.  Stdlib only, so the
evaluation harness and the server share it without importing each
other.
"""

from __future__ import annotations

import base64
import io
import json
import os
import pickle


def qkey_of(wire):
    """Canonical key of a wire point: its sorted compact JSON image --
    stable across processes, one-to-one with the memo key."""
    return json.dumps(wire, sort_keys=True, separators=(",", ":"))


def pack_record(obj):
    """A result record as a JSON-safe string (base64 pickle)."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


#: the classes a result record is built from -- the only globals
#: :func:`unpack_record` resolves
_RECORD_CLASSES = {("repro.eval.runner", "KernelRun"),
                   ("repro.energy.events", "EnergyEvents"),
                   ("repro.uarch.lpsu", "LPSUStats")}


class _RecordUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if (module, name) not in _RECORD_CLASSES:
            raise pickle.UnpicklingError("%s.%s is not a record class"
                                         % (module, name))
        return super().find_class(module, name)


def unpack_record(text):
    """Inverse of :func:`pack_record`.  Any global but a record class
    raises before it is called, so a peer's record runs no code."""
    return _RecordUnpickler(io.BytesIO(base64.b64decode(text))).load()


class Journal:
    """One journal file; opened by :meth:`open` or the first
    append."""

    def __init__(self, path):
        self.path = str(path)
        self._fh = None

    def records(self):
        """Every readable line with a ``qkey``, in order; a final line
        without its newline is torn, and skipped as :meth:`open` will
        cut it."""
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return []
        out = []
        for line in data[:data.rfind(b"\n") + 1].splitlines():
            try:
                rec = json.loads(line)
            except ValueError:      # torn or garbage
                continue
            if isinstance(rec, dict) and rec.get("qkey"):
                out.append(rec)
        return out

    def replay(self):
        """``(pending, completed, failed)``: ordered ``{qkey: wire}``
        of unresolved points, set of qkeys, ``{qkey: fail line}``."""
        enqueued, completed, failed = {}, set(), {}
        for rec in self.records():
            op, qkey = rec.get("op"), rec["qkey"]
            if op == "enqueue" and isinstance(rec.get("wire"), dict):
                enqueued[qkey] = rec["wire"]
            elif op == "complete":
                completed.add(qkey)
            elif op == "fail":
                failed[qkey] = rec
        pending = {k: w for k, w in enqueued.items()
                   if k not in completed and k not in failed}
        return pending, completed, failed

    def open(self):
        """Open the file for appending, if not open yet, cutting off a
        torn final line; raises :class:`OSError`."""
        if self._fh is None:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                        exist_ok=True)
            fh = open(self.path, "a+b")
            try:
                fh.seek(0)
                fh.truncate(fh.read().rfind(b"\n") + 1)
            except OSError:
                fh.close()
                raise
            self._fh = fh

    def append(self, rec):
        """Write one line, flushed and fsync'd; False when that failed
        (the next append reopens the file and cuts it again)."""
        try:
            self.open()
            self._fh.write(json.dumps(rec, separators=(",", ":"))
                           .encode("utf-8") + b"\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
            return True
        except OSError:
            self.close()
            return False

    def close(self):
        fh, self._fh = self._fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError:
                pass
