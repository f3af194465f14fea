"""The sweep server's work queue: every miss goes here.

The server's own ``--jobs`` slots :meth:`~WorkQueue.take` pending
points and credit each one back through :meth:`~WorkQueue.complete`
or :meth:`~WorkQueue.fail`.  This module is pure bookkeeping -- no
sockets, single-threaded (every call happens on the server's asyncio
loop thread):

* **One entry per point**, keyed by its
  :meth:`~repro.eval.parallel.SweepPoint.memo_key`.  A point already
  pending or taken is joined, never queued twice, so one simulation
  answers every waiter.
* **Failures are quarantined.**  The hardened engine already retried
  the point in a slot; its reported failure resolves the entry
  exactly as a local sweep would.

The queue lives in memory only.  A finished point's durable record is
the disk cache's: a restarted server serves it from there, and a
client that reconnects resubmits the points it has no answer for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class QueueEntry:
    """One point somewhere between enqueue and completion."""

    qkey: tuple                    # the point's memo key
    point: object                  # the SweepPoint to simulate
    #: asyncio.Future the server attaches for client waiters; the
    #: queue never touches it
    future: object = None
    #: the engine's PointFailure, set when the entry quarantines --
    #: the server resolves waiters
    failure: object = None


class WorkQueue:
    """The server-side queue (see module docstring)."""

    def __init__(self):
        self.pending = deque()       # qkeys awaiting a slot
        self.entries = {}            # qkey -> QueueEntry (unresolved)
        self.counters = {"enqueued": 0, "completed": 0}

    def enqueue(self, point):
        """Queue one point; ``(entry, created)``.  A point already
        pending or taken is joined, not duplicated.  A point
        previously completed or failed is enqueued afresh: the server
        only enqueues after a cache miss, so reaching here again means
        the cached result is genuinely gone (or the client wants a
        quarantined point retried) and recomputation is correct."""
        qkey = point.memo_key()
        entry = self.entries.get(qkey)
        if entry is not None:
            return entry, False
        entry = QueueEntry(qkey=qkey, point=point)
        self.entries[qkey] = entry
        self.pending.append(qkey)
        self.counters["enqueued"] += 1
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
        return entry

    def fail(self, qkey, failure):
        """Quarantine a taken point on the
        :class:`~repro.eval.hardening.PointFailure` the hardened
        engine built for it (it already exhausted its per-point
        retries); its entry, with :attr:`QueueEntry.failure` set to
        *failure* unchanged."""
        entry = self.entries.pop(qkey)
        entry.failure = failure
        return entry

    @property
    def idle(self):
        """No unresolved entry -- the condition an ``--idle-exit``
        server needs before it may exit: it must never vanish beneath
        a point in flight or one still waiting for a slot."""
        return not self.entries

    def stats_payload(self):
        return {"queued": self.queued, "counters": dict(self.counters)}
