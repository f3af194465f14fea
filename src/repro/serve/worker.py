"""The distributed sweep worker: pull leased batches, simulate, ship.

``repro worker --connect ADDR`` runs one :class:`SweepWorker` against
a ``repro serve``; it drains the server's work queue beside the
server's own slots (``--jobs 0`` leaves the queue to workers alone).
The loop is deliberately simple -- everything hard lives server-side
in the queue's lease bookkeeping:

1. connect and ``register`` (the server assigns a worker id and the
   lease TTL),
2. ``lease`` a batch of points; while the batch executes, a
   background thread heartbeats the lease every TTL/3,
3. run each point through the hardened engine
   (:func:`repro.eval.hardening.execute_one` on the worker's one
   :class:`~repro.eval.hardening.WorkerPool`: persistent forked
   workers, watchdog, retry ladder, quarantine), and stream each
   outcome back as a ``complete`` or ``fail`` op,
4. on ``drain`` exit clean; on an empty queue poll again shortly.

The pool lives as long as :meth:`SweepWorker.run`, which returns only
after every forked worker has been joined.

Robustness: the socket is shared by the main loop and the heartbeat
thread, so every RPC is send+receive *atomically under one lock* --
frames never interleave.  Any socket or protocol error drops the
connection and re-registers through a bounded exponential
:class:`~repro.resilience.backoff.Backoff`; in-flight work the server
requeues when it notices the disconnect, and any completion this
worker still manages to deliver later is deduplicated server-side
(first writer wins), never double-credited.

Chaos: the worker consults the shared ``$REPRO_CHAOS`` plan
(:func:`repro.eval.hardening.chaos_modes`) for three modes keyed by
the *server-assigned requeue attempt* carried in each leased point --
``kill_worker`` (die before touching the point), ``hang_worker``
(wedge: heartbeats go silent so the lease expires) and ``sever``
(cut the socket mid-frame).  All three strike *before* the point
simulates, so the requeued attempt performs the first and only
simulation -- the exact-accounting invariant the acceptance test
asserts.  In-process :class:`WorkerThread` harnesses emulate
``kill_worker`` by vanishing (socket dropped, loop dead) instead of
``os._exit``; a real ``repro worker`` process actually dies with
:data:`WORKER_CHAOS_EXIT`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

from ..eval.hardening import (HardeningPolicy, WorkerPool, chaos_modes,
                              execute_one)
from ..resilience.backoff import Backoff, BackoffExhausted
from . import protocol
from .client import connect
from .queue import DEFAULT_LEASE_TTL, label_of

#: exit code a chaos-killed *worker process* dies with (distinct from
#: the hardened engine's point-child CHAOS_EXIT=13)
WORKER_CHAOS_EXIT = 23


class _ChaosKilled(Exception):
    """In-thread stand-in for a chaos-killed worker process."""


class _Severed(Exception):
    """The chaos plan cut our socket mid-frame; reconnect and go on."""


class SweepWorker:
    """One worker loop (see the module docstring).

    *jobs* bounds concurrent hardened executions inside this worker;
    *batch* is the lease size requested per pull (default
    ``2 * jobs`` so the next points are already local when one
    finishes); *poll* the idle re-poll interval; *allow_exit* lets
    chaos ``kill_worker`` call ``os._exit`` (real worker processes
    only -- never inside a test harness thread).
    """

    def __init__(self, address, jobs=1, name="", timeout=0.0,
                 retries=3, backoff=0.25, poll=0.25, batch=None,
                 allow_exit=False, connect_timeout=None,
                 announce=None):
        self.address = address
        self.jobs = max(1, int(jobs or 1))
        self.name = str(name) or "worker-%d" % os.getpid()
        self.policy = HardeningPolicy(
            timeout=float(timeout or 0.0),
            retries=max(1, int(retries)),
            backoff=max(0.0, float(backoff)))
        self.poll = max(0.01, float(poll))
        self.batch = max(1, int(batch) if batch else 2 * self.jobs)
        self.allow_exit = bool(allow_exit)
        self.connect_timeout = connect_timeout
        self.announce = announce
        self.lease_ttl = DEFAULT_LEASE_TTL
        self.counters = {"leases": 0, "points": 0, "completed": 0,
                         "failed": 0, "duplicates": 0, "killed": 0,
                         "hung": 0, "severed": 0, "reconnects": 0,
                         "spawned": 0}
        #: the forked workers points simulate on, joined when run()
        #: ends
        self.workers = WorkerPool()
        self.drained = False
        self._stop = threading.Event()
        self._wedged = threading.Event()   # hang chaos silences heartbeats
        self._lock = threading.RLock()     # serializes whole RPCs
        self._sock = None
        self._worker_id = None
        self._connects = 0

    # -- wire ------------------------------------------------------------

    def _drop_socket(self):
        with self._lock:
            sock, self._sock, self._worker_id = self._sock, None, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _rpc(self, msg):
        """One send+receive, atomic under the socket lock (the
        heartbeat thread shares this socket)."""
        with self._lock:
            if self._sock is None:
                raise protocol.ProtocolError("worker not connected")
            protocol.send_frame(self._sock, msg)
            reply = protocol.recv_frame(self._sock)
        if reply is None:
            raise protocol.ProtocolError(
                "server closed the worker connection")
        if isinstance(reply, dict) and reply.get("error") \
                and "type" not in reply:
            # for a worker even a deliberate verdict ("unknown
            # worker": the server restarted) is cured by
            # reconnect + re-register, so it joins the retry path
            raise protocol.RemoteError(reply["error"])
        return reply

    def _ensure_registered(self):
        with self._lock:
            if self._sock is not None and self._worker_id is not None:
                return
            self._drop_socket()
            self._sock = connect(self.address, self.connect_timeout)
            self._connects += 1
            if self._connects > 1:
                self.counters["reconnects"] += 1
            reply = self._rpc({
                "op": "register", "role": "worker", "name": self.name,
                "pid": os.getpid(), "jobs": self.jobs,
                "protocol": protocol.PROTOCOL_VERSION})
            self._worker_id = int(reply["worker_id"])
            self.lease_ttl = float(
                reply.get("lease_ttl", DEFAULT_LEASE_TTL))
        if self.announce:
            self.announce("registered as worker %d on %s (jobs=%d)"
                          % (self._worker_id, self.address, self.jobs))

    # -- chaos -----------------------------------------------------------

    def _chaos(self, label, attempt):
        modes = chaos_modes(label)
        if attempt in modes.get("kill_worker", ()):
            self.counters["killed"] += 1
            if self.allow_exit:
                os._exit(WORKER_CHAOS_EXIT)
            raise _ChaosKilled(label)
        if attempt in modes.get("hang_worker", ()):
            self.counters["hung"] += 1
            # a wedged worker stops heartbeating too -- that is the
            # whole point: the lease must expire server-side
            self._wedged.set()
            self._stop.wait(3600)
            raise _ChaosKilled(label)
        if attempt in modes.get("sever", ()):
            self.counters["severed"] += 1
            self._sever()
            raise _Severed(label)

    def _sever(self):
        """Cut the connection mid-frame: ship a header that promises a
        body we never send, then slam the socket shut.  The server's
        frame reader sees a truncated frame, hangs up, and requeues
        everything this worker held."""
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.sendall(protocol._HEADER.pack(64))
                except OSError:
                    pass
            self._drop_socket()

    # -- the loop --------------------------------------------------------

    def request_stop(self):
        """Ask the loop to exit at its next check (threadsafe); also
        un-wedges a chaos-hung worker so harness threads can be
        joined."""
        self._stop.set()

    def run(self):
        """Pull and execute leases until drain or stop; the counters
        dict (also the return value) summarizes the session.  Returns
        only after every worker process it forked has been joined."""
        try:
            self._lease_loop()
        finally:
            self._drop_socket()
            self.workers.close()
            self.counters["spawned"] = self.workers.spawned
        return self.counters

    def _lease_loop(self):
        reconnect = Backoff(base=0.05, cap=2.0, attempts=10,
                            sleep=lambda s: self._stop.wait(s))
        while not self._stop.is_set():
            try:
                self._ensure_registered()
                reply = self._rpc({"op": "lease",
                                   "worker_id": self._worker_id,
                                   "max_points": self.batch})
                reconnect.reset()
                kind = reply.get("type")
                if kind == "drain":
                    self.drained = True
                    break
                if kind == "lease":
                    self._run_lease(reply)
                else:                      # "empty": nothing pending
                    self._stop.wait(self.poll)
            except _ChaosKilled:
                # a killed worker vanishes: no farewell -- the server
                # learns from the dead socket
                return
            except _Severed:
                continue                   # reconnect next iteration
            except (protocol.ProtocolError, OSError):
                self._drop_socket()
                try:
                    reconnect.sleep()
                except BackoffExhausted:
                    break                  # server is genuinely gone

    def _run_lease(self, lease):
        lease_id = int(lease.get("lease_id", 0))
        items = lease.get("points") or []
        self.counters["leases"] += 1
        hb_stop = threading.Event()
        hb = threading.Thread(
            target=self._heartbeat_loop, args=(lease_id, hb_stop),
            name="repro-worker-hb", daemon=True)
        hb.start()
        try:
            if self.jobs <= 1 or len(items) <= 1:
                for item in items:
                    if self._stop.is_set():
                        break
                    self._run_point(item)
            else:
                with ThreadPoolExecutor(
                        max_workers=self.jobs,
                        thread_name_prefix="repro-worker") as pool:
                    futs = [pool.submit(self._run_point, item)
                            for item in items]
                    wait(futs)
                    for fut in futs:
                        exc = fut.exception()
                        if exc is not None:
                            raise exc
        finally:
            hb_stop.set()

    def _run_point(self, item):
        wire = item.get("wire") or {}
        attempt = int(item.get("attempt", 0))
        qkey = item.get("qkey")
        label = label_of(wire)
        self.counters["points"] += 1
        self._chaos(label, attempt)
        try:
            pt = protocol.point_from_wire(wire)
        except protocol.ProtocolError as exc:
            self._report_fail(qkey, "protocol", str(exc), 1)
            return
        outcome = execute_one(pt, self.policy, self.workers)
        self.counters["spawned"] = self.workers.spawned
        if outcome.failure is not None:
            self._report_fail(qkey, outcome.failure.kind,
                              outcome.failure.error,
                              outcome.failure.attempts)
            return
        reply = self._rpc({
            "op": "complete", "worker_id": self._worker_id,
            "qkey": qkey, "wall": round(outcome.wall, 6),
            "simulated": bool(outcome.simulated),
            "retries": int(outcome.retries),
            "record": protocol.pack_record(outcome.result)})
        self.counters["completed"] += 1
        if not reply.get("credited", True):
            self.counters["duplicates"] += 1

    def _report_fail(self, qkey, kind, error, attempts):
        self.counters["failed"] += 1
        self._rpc({"op": "fail", "worker_id": self._worker_id,
                   "qkey": qkey, "kind": kind, "error": error,
                   "attempts": int(attempts)})

    def _heartbeat_loop(self, lease_id, hb_stop):
        interval = max(0.02, self.lease_ttl / 3.0)
        while not hb_stop.wait(interval):
            if self._wedged.is_set():
                continue        # hang chaos: wedged workers go silent
            try:
                self._rpc({"op": "heartbeat",
                           "worker_id": self._worker_id,
                           "lease_id": lease_id})
            except (protocol.ProtocolError, OSError):
                return          # socket gone; the main loop handles it


class WorkerThread:
    """A :class:`SweepWorker` on a background thread -- tests and the
    speed bench run real workers against a :class:`ServerThread`
    without extra processes.  Chaos ``kill_worker`` is emulated (the
    loop vanishes; ``os._exit`` is never allowed here)."""

    def __init__(self, address, jobs=1, **kwargs):
        kwargs.pop("allow_exit", None)
        self.worker = SweepWorker(address, jobs=jobs,
                                  allow_exit=False, **kwargs)
        self._thread = None

    def start(self):
        self._thread = threading.Thread(
            target=self.worker.run, name="repro-worker", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout=10):
        """Stop the loop and join its thread (within *timeout*), which
        ends only after the worker's processes have been joined."""
        self.worker.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    @property
    def alive(self):
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self):
        return self.start()

    def __exit__(self, *_exc):
        self.stop()
        return False


def run_worker(address, jobs=1, name="", timeout=0.0, retries=3,
               backoff=0.25, poll=0.25, announce=None):
    """Run one worker process until drain/interrupt; its counters.
    This is ``repro worker``'s engine -- chaos kills are real
    ``os._exit`` here."""
    worker = SweepWorker(address, jobs=jobs, name=name,
                         timeout=timeout, retries=retries,
                         backoff=backoff, poll=poll, allow_exit=True,
                         announce=announce)
    try:
        return worker.run()
    except KeyboardInterrupt:
        worker.request_stop()
        return worker.counters
