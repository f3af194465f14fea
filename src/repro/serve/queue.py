"""The sweep server's work queue: every miss goes here.

The server's own ``--jobs`` slots :meth:`~WorkQueue.take` pending
points and credit each one back through :meth:`~WorkQueue.complete`
or :meth:`~WorkQueue.fail`.  This module is pure bookkeeping -- no
sockets, single-threaded (every call happens on the server's asyncio
loop thread):

* **One entry per point.**  A point already pending or taken is
  joined, never queued twice, so one simulation answers every waiter.
* **Failures are quarantined.**  The hardened engine already retried
  the point in a slot; its reported failure resolves the entry
  exactly as a local sweep would.
* **An append-only, fsync'd journal**
  (:class:`~repro.resilience.journal.Journal`) records
  enqueue/complete/fail transitions.  On restart the queue replays it
  and re-enqueues exactly the points that were pending -- completed
  work is never re-simulated, because the sharded disk cache remains
  the durable *result* store and a resubmitted completed point is
  cache-served.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..eval.hardening import PointFailure
from ..resilience.journal import Journal, qkey_of


def label_of(wire):
    """Human label of a wire point (mirrors ``SweepPoint.label``)."""
    return "%s/%s/%s/%s/%s" % (
        wire.get("kernel", "?"), wire.get("config", "?"),
        wire.get("mode", "traditional"), wire.get("binary", "xloops"),
        wire.get("scale", "small"))


@dataclass
class QueueEntry:
    """One point somewhere between enqueue and completion."""

    qkey: str
    wire: dict
    #: asyncio.Future the server attaches for client waiters; the
    #: queue never touches it (journal-replayed entries have none)
    future: object = None
    #: PointFailure set when the entry quarantines -- the server
    #: resolves waiters
    failure: object = None


class WorkQueue:
    """The server-side queue (see module docstring)."""

    def __init__(self, journal_path=None):
        self.pending = deque()       # qkeys awaiting a slot
        self.entries = {}            # qkey -> QueueEntry (unresolved)
        self.counters = {"enqueued": 0, "completed": 0, "replayed": 0,
                         "journal_errors": 0}
        self.journal = None
        if journal_path:
            self.journal = Journal(journal_path)
            pending = self.journal.replay()[0]
            self.journal.open()     # an unwritable path fails here
            # only pending points come back.  A completed one is in the
            # disk cache; a journaled failure stays failed: its clients
            # saw the quarantine record, and a fresh submission after
            # a restart is a fresh enqueue (below)
            for qkey, wire in pending.items():
                self.entries[qkey] = QueueEntry(qkey=qkey, wire=wire)
                self.pending.append(qkey)
                self.counters["replayed"] += 1

    def enqueue(self, wire):
        """Queue one wire point; ``(entry, created)``.  A point
        already pending or taken is joined, not duplicated.  A point
        previously completed or failed is enqueued afresh: the server
        only enqueues after a cache miss, so reaching here again means
        the cached result is genuinely gone (or the client wants a
        quarantined point retried) and recomputation is correct."""
        qkey = qkey_of(wire)
        entry = self.entries.get(qkey)
        if entry is not None:
            return entry, False
        entry = QueueEntry(qkey=qkey, wire=dict(wire))
        self.entries[qkey] = entry
        self.pending.append(qkey)
        self.counters["enqueued"] += 1
        self._log({"op": "enqueue", "qkey": qkey, "wire": entry.wire})
        return entry, True

    @property
    def queued(self):
        """Points awaiting a slot right now."""
        return len(self.pending)

    def take(self):
        """Claim the oldest pending entry for one of the server's
        slots (no deadline: the slot's watchdog bounds it); None when
        nothing is pending."""
        if not self.pending:
            return None
        return self.entries[self.pending.popleft()]

    def complete(self, qkey):
        """Resolve a taken point; its entry."""
        entry = self.entries.pop(qkey)
        self.counters["completed"] += 1
        self._log({"op": "complete", "qkey": qkey})
        return entry

    def fail(self, qkey, kind, error, attempts):
        """Quarantine a taken point on a reported failure (the
        hardened engine already exhausted its per-point retries); its
        entry, with :attr:`QueueEntry.failure` set."""
        entry = self.entries.pop(qkey)
        entry.failure = PointFailure(label=label_of(entry.wire),
                                     attempts=max(1, int(attempts)),
                                     kind=str(kind or "error"),
                                     error=str(error or ""))
        self._log(entry.failure.line(qkey))
        return entry

    def _log(self, rec):
        """Journal *rec*, if journaling; a line that failed counts."""
        if self.journal is not None and not self.journal.append(rec):
            self.counters["journal_errors"] += 1

    @property
    def idle(self):
        """No unresolved entry -- the condition an ``--idle-exit``
        server needs before it may exit: it must never vanish beneath
        a point in flight or strand journal-replayed work."""
        return not self.entries

    def stats_payload(self):
        return {"queued": self.queued,
                "journal": self.journal.path
                if self.journal is not None else None,
                "counters": dict(self.counters)}

    def close(self):
        if self.journal is not None:
            self.journal.close()
