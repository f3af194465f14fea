"""The sweep server's work queue + lease table: every miss goes here.

The server's own slots :meth:`~WorkQueue.take` pending points, and
``repro worker`` processes pull *leased batches* over the wire, run
them through the hardened engine, and stream completions back.  This
module is the robustness core -- pure bookkeeping, no sockets,
single-threaded (every call happens on the server's asyncio loop
thread):

* **Leases carry deadlines.**  A worker that leases a batch must
  heartbeat before the deadline or the lease expires and every
  uncompleted point in it is requeued.  A worker whose connection
  drops is released immediately -- same requeue, no waiting for the
  clock.  A point is therefore *never lost*.
* **Completion is idempotent, first writer wins.**  An expired lease
  does not invalidate a slow worker's result (results are
  deterministic and bit-identical, so any writer's answer is THE
  answer); but once one writer has completed a point, every later
  completion is discarded and counted in ``duplicates``.  A point is
  therefore *never double-credited*.  The server reads a worker's
  completion only for a point :meth:`~WorkQueue.leased_to` it.
* **A bounded requeue budget** turns a repeat worker-killer into a
  structured :class:`~repro.eval.hardening.PointFailure` instead of
  an infinite requeue loop.  Reported failures (the hardened engine
  already retried and quarantined the point, in a slot or a worker)
  are quarantined directly, exactly as a local sweep would.
* **An append-only, fsync'd journal**
  (:class:`~repro.resilience.journal.Journal`) records
  enqueue/complete/fail transitions.  On restart the queue replays it
  and re-enqueues exactly the points that were pending -- completed
  work is never re-simulated, because the sharded disk cache remains
  the durable *result* store and a resubmitted completed point is
  cache-served.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from ..eval.hardening import PointFailure
from ..resilience.journal import Journal, qkey_of

#: default seconds a lease stays valid without a heartbeat
DEFAULT_LEASE_TTL = 30.0

#: default times a point may be requeued (lease expiry / worker loss /
#: severed connection) before it is quarantined as a structured failure
DEFAULT_REQUEUE_BUDGET = 5

#: ``QueueEntry.lease_id`` of a point one of the server's own slots took
TAKEN = -1


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
    attempts: int = 0       # requeues consumed (NOT worker-side retries)
    lease_id: int = 0       # 0 = pending, TAKEN, else the holding lease
    last_error: str = ""    # why the last requeue happened
    #: asyncio.Future the server attaches for client waiters; the
    #: queue never touches it (journal-replayed entries have none)
    future: object = None
    #: PointFailure set when the entry quarantines (budget exhaustion
    #: or a worker-reported failure) -- the server resolves waiters
    failure: object = None
    #: ids of the workers ever leased this point
    holders: set = field(default_factory=set)


@dataclass
class Lease:
    """One worker's claim on a batch of points."""

    lease_id: int
    worker_id: int
    qkeys: set
    deadline: float         # monotonic seconds; heartbeats extend it


@dataclass
class WorkerInfo:
    """One registered worker connection."""

    worker_id: int
    name: str
    pid: int
    jobs: int
    registered: float
    leases: set = field(default_factory=set)


class WorkQueue:
    """The server-side queue + lease table (see module docstring)."""

    def __init__(self, journal_path=None, lease_ttl=DEFAULT_LEASE_TTL,
                 requeue_budget=DEFAULT_REQUEUE_BUDGET,
                 clock=time.monotonic):
        self.lease_ttl = max(0.1, float(lease_ttl))
        self.requeue_budget = max(0, int(requeue_budget))
        self._clock = clock
        self._next_worker = 0
        self._next_lease = 0
        self.pending = deque()       # qkeys awaiting a slot or lease
        self.entries = {}            # qkey -> QueueEntry (unresolved)
        self.leases = {}             # lease_id -> Lease
        self.workers = {}            # worker_id -> WorkerInfo
        self.counters = {
            "enqueued": 0, "completed": 0, "duplicates": 0,
            "requeued": 0, "expired_leases": 0, "worker_losses": 0,
            "exhausted": 0, "replayed": 0, "worker_failures": 0,
            "journal_errors": 0}
        self.journal = None
        if journal_path:
            self.journal = Journal(journal_path)
            pending = self.journal.replay()[0]
            self.journal.open()     # an unwritable path fails here
            # only pending points come back.  A completed one is in the
            # disk cache; a journaled failure stays failed: its clients
            # saw the quarantine record, and a fresh submission after
            # a restart is a fresh enqueue (below) with a fresh budget
            for qkey, wire in pending.items():
                self.entries[qkey] = QueueEntry(qkey=qkey, wire=wire)
                self.pending.append(qkey)
                self.counters["replayed"] += 1

    # -- client side (enqueue / join) -----------------------------------

    def enqueue(self, wire):
        """Queue one wire point; ``(entry, created)``.  A point
        already pending or leased is joined, not duplicated.  A point
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
        """Points awaiting a slot or a lease right now."""
        return sum(1 for k in self.pending
                   if k in self.entries
                   and self.entries[k].lease_id == 0)

    def _next_pending(self):
        """Pop the oldest entry still pending, skipping qkeys resolved
        or claimed again since they were queued; None when none is."""
        while self.pending:
            entry = self.entries.get(self.pending.popleft())
            if entry is not None and not entry.lease_id:
                return entry
        return None

    # -- server side (its own slots) ------------------------------------

    def take(self):
        """Claim the oldest pending entry (or None) for one of the
        server's own slots: no lease, no deadline -- the slot's
        watchdog bounds it -- and credited like a worker's."""
        entry = self._next_pending()
        if entry is not None:
            entry.lease_id = TAKEN
        return entry

    # -- worker side (register / lease / heartbeat / complete) ----------

    def register_worker(self, name="", pid=0, jobs=1):
        self._next_worker += 1
        wid = self._next_worker
        self.workers[wid] = WorkerInfo(
            worker_id=wid, name=str(name or "worker-%d" % wid),
            pid=int(pid or 0), jobs=max(1, int(jobs or 1)),
            registered=self._clock())
        return wid

    def lease(self, worker_id, max_points=1):
        """Claim up to *max_points* pending points for *worker_id*;
        a :class:`Lease`, or None when nothing is pending (or the
        worker is unknown -- e.g. registered with a previous server
        incarnation)."""
        worker = self.workers.get(worker_id)
        if worker is None:
            return None
        batch = []
        while len(batch) < max(1, int(max_points)):
            entry = self._next_pending()
            if entry is None:
                break
            batch.append(entry)
        if not batch:
            return None
        self._next_lease += 1
        lease = Lease(lease_id=self._next_lease, worker_id=worker_id,
                      qkeys={e.qkey for e in batch},
                      deadline=self._clock() + self.lease_ttl)
        for entry in batch:
            entry.lease_id = lease.lease_id
            entry.holders.add(worker_id)
        self.leases[lease.lease_id] = lease
        worker.leases.add(lease.lease_id)
        return lease

    def heartbeat(self, worker_id, lease_id):
        """Extend a live lease's deadline; False if the lease is gone
        (expired and reclaimed -- the worker should keep going anyway:
        its eventual completions are still honoured or deduped)."""
        lease = self.leases.get(lease_id)
        if lease is None or lease.worker_id != worker_id:
            return False
        lease.deadline = self._clock() + self.lease_ttl
        return True

    def leased_to(self, qkey, worker_id):
        """*qkey* is unresolved and was leased to *worker_id* (its
        lease may have expired since)."""
        entry = self.entries.get(qkey)
        return entry is not None and worker_id in entry.holders

    def complete(self, qkey):
        """First-writer-wins completion; ``(entry, credited)``.

        *credited* is False (and *entry* None) for a duplicate -- the
        point was already completed (or failed) by someone else and
        this late result is discarded, counted in ``duplicates``."""
        entry = self.entries.pop(qkey, None)
        if entry is None:
            self.counters["duplicates"] += 1
            return None, False
        self._unlink_lease(entry)
        self.counters["completed"] += 1
        self._log({"op": "complete", "qkey": qkey})
        return entry, True

    def fail(self, qkey, kind, error, attempts=0):
        """Quarantine a point on a reported failure (the hardened
        engine, in a slot or a worker, already exhausted its per-point
        retries); ``(entry, failure)`` or ``(None, None)`` for a
        duplicate report."""
        entry = self.entries.pop(qkey, None)
        if entry is None:
            self.counters["duplicates"] += 1
            return None, None
        self._unlink_lease(entry)
        failure = PointFailure(label=label_of(entry.wire),
                               attempts=max(1, int(attempts)),
                               kind=str(kind or "error"),
                               error=str(error or ""))
        self._record_failure(entry, failure)
        self.counters["worker_failures"] += 1
        return entry, failure

    # -- robustness (reclaim / release / requeue) -----------------------

    def reclaim_expired(self, now=None):
        """Requeue every point held by a lease past its deadline (the
        worker missed its heartbeat: hung, wedged, or partitioned);
        a list of :class:`QueueEntry` that exhausted their requeue
        budget and became failures."""
        now = self._clock() if now is None else now
        exhausted = []
        for lease in [l for l in self.leases.values()
                      if l.deadline <= now]:
            self.counters["expired_leases"] += 1
            exhausted.extend(self._break_lease(
                lease, "lease expired (missed heartbeat)"))
        return exhausted

    def release_worker(self, worker_id):
        """Forget a worker whose connection dropped, requeueing every
        point it still held; returns entries that exhausted their
        budget (now failures)."""
        worker = self.workers.pop(worker_id, None)
        if worker is None:
            return []
        exhausted = []
        if worker.leases:
            self.counters["worker_losses"] += 1
        for lease_id in list(worker.leases):
            lease = self.leases.get(lease_id)
            if lease is not None:
                exhausted.extend(self._break_lease(
                    lease, "worker connection lost"))
        return exhausted

    def _break_lease(self, lease, reason):
        """Dissolve *lease*, requeueing (or exhausting) its points."""
        exhausted = []
        self.leases.pop(lease.lease_id, None)
        worker = self.workers.get(lease.worker_id)
        if worker is not None:
            worker.leases.discard(lease.lease_id)
        for qkey in lease.qkeys:
            entry = self.entries.get(qkey)
            if entry is None or entry.lease_id != lease.lease_id:
                continue        # completed (or re-leased) meanwhile
            entry.lease_id = 0
            entry.attempts += 1
            entry.last_error = reason
            if entry.attempts > self.requeue_budget:
                self.entries.pop(qkey, None)
                failure = PointFailure(
                    label=label_of(entry.wire),
                    attempts=entry.attempts, kind="requeue-exhausted",
                    error="requeue budget (%d) exhausted; last loss: %s"
                          % (self.requeue_budget, reason))
                self._record_failure(entry, failure)
                self.counters["exhausted"] += 1
                exhausted.append(entry)
            else:
                self.pending.append(qkey)
                self.counters["requeued"] += 1
        return exhausted

    def _unlink_lease(self, entry):
        lease = self.leases.get(entry.lease_id)
        if lease is None:
            return
        lease.qkeys.discard(entry.qkey)
        if not lease.qkeys:
            self.leases.pop(lease.lease_id, None)
            worker = self.workers.get(lease.worker_id)
            if worker is not None:
                worker.leases.discard(lease.lease_id)

    def _record_failure(self, entry, failure):
        entry.failure = failure     # for the server to resolve waiters
        self._log(failure.line(entry.qkey))

    def _log(self, rec):
        """Journal *rec*, if journaling; a line that failed counts."""
        if self.journal is not None and not self.journal.append(rec):
            self.counters["journal_errors"] += 1

    # -- introspection ---------------------------------------------------

    @property
    def idle(self):
        """Nothing pending, taken, leased, or registered -- the
        condition an ``--idle-exit`` server needs before it may exit:
        it must never vanish beneath a point in flight or a worker, or
        strand journal-replayed work.  Only remote workers register;
        the server's own slots are not workers."""
        return not self.entries and not self.leases and not self.workers

    def stats_payload(self):
        return {"queued": self.queued, "leased": len(self.leases),
                "workers": len(self.workers),
                "lease_ttl": self.lease_ttl,
                "requeue_budget": self.requeue_budget,
                "journal": self.journal.path
                if self.journal is not None else None,
                "counters": dict(self.counters)}

    def close(self):
        if self.journal is not None:
            self.journal.close()
