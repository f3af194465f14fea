"""The sweep server: an asyncio result service over the shared cache.

``repro serve`` runs one :class:`SweepServer` per host.  Many clients
connect (unix socket or TCP) and submit sweep point batches; the
server answers each point from the cheapest tier that has it and
streams results back as they complete:

1. **cache** -- the in-process memo, the decoded-record hot tier, or
   the sharded disk store (:func:`repro.eval.runner.cached_result`);
   nothing is simulated.  This is the production path: the cache *is*
   the product, and a warm sweep is served entirely from here.
2. **inflight** -- some other client (or an earlier point of the same
   submission) is already simulating this exact point; the request
   joins that computation's future instead of forking a duplicate.
   One simulation fans out to every waiter.
3. **sim** -- a true miss.  The point is scheduled on a bounded
   thread pool; each slot runs :func:`repro.eval.hardening.execute_one`
   -- a one-point pool of the parallel sweep's engine, so the point
   runs in a forked worker of its own under the same wall-clock
   watchdog, retry-with-backoff, and quarantine ladder.
   A quarantined point becomes a structured failure frame for every
   waiter; it never stalls other points or other clients.

With ``--distributed`` the third tier changes: misses are *enqueued*
on a durable :class:`~repro.serve.queue.WorkQueue` instead of
simulated locally, and ``repro worker`` processes pull leased batches
over the same frame protocol (ops ``register``/``lease``/
``heartbeat``/``complete``/``fail``), simulate through the identical
hardened engine, and stream records back.  The queue's lease
bookkeeping makes the tier fault-tolerant -- missed heartbeats and
dropped worker connections requeue points, completion is idempotent
with first-writer-wins, an optional fsync'd journal survives server
restarts -- while client-facing behaviour is unchanged: a waiter's
future resolves when *some* worker completes the point, and the
result lands in the same memo + disk cache tiers.

Results cross the wire as pickled records (see
:mod:`repro.serve.protocol`), so a server-routed sweep is bit-identical
to a direct ``runner.run`` -- the conformance tests assert it.

Concurrency model: the asyncio loop owns all bookkeeping (in-flight
table, counters, frame writes); simulations run on a thread pool whose
threads merely block on the hardened engine's worker pipes, so the GIL
is never contended by simulation work -- the simulating processes are
forked children.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from .. import __version__
from ..eval import diskcache, runner
from ..eval.hardening import HardeningPolicy, execute_one
from . import protocol
from .queue import (DEFAULT_LEASE_TTL, DEFAULT_REQUEUE_BUDGET,
                    WorkQueue)

#: seconds a graceful drain waits for leases + queue to empty
DEFAULT_DRAIN_TIMEOUT = 30.0


class SweepServer:
    """One result-serving process; see the module docstring.

    Parameters mirror the sweep executor's hardening knobs: *jobs*
    bounds concurrent simulations, *timeout*/*retries*/*backoff* are
    per-point, *idle_exit* stops the server after that many seconds
    with no client activity, nothing in flight, and -- the distributed
    extension of "idle" -- no connected workers, no unexpired leases
    and an empty queue (0 = run forever).

    *distributed* switches the miss tier from local simulation to the
    durable work queue (*journal* optionally persists it across
    restarts; *lease_ttl*/*requeue_budget* are its robustness knobs;
    *drain_timeout* bounds the graceful ``shutdown`` wait).
    """

    def __init__(self, jobs=None, timeout=0.0, retries=3, backoff=0.25,
                 idle_exit=0.0, distributed=False, journal=None,
                 lease_ttl=DEFAULT_LEASE_TTL,
                 requeue_budget=DEFAULT_REQUEUE_BUDGET,
                 drain_timeout=DEFAULT_DRAIN_TIMEOUT):
        self.jobs = max(1, int(jobs) if jobs else (os.cpu_count() or 2))
        self.policy = HardeningPolicy(
            timeout=float(timeout or 0.0), retries=max(1, int(retries)),
            backoff=max(0.0, float(backoff)))
        self.idle_exit = float(idle_exit or 0.0)
        self.drain_timeout = max(0.1, float(drain_timeout))
        self.counters = {
            "connections": 0, "submissions": 0, "points": 0,
            "served_cache": 0, "served_inflight": 0, "simulated": 0,
            "failed": 0, "retried": 0}
        #: the distributed work queue, or None in local mode
        self.queue = WorkQueue(journal_path=journal,
                               lease_ttl=lease_ttl,
                               requeue_budget=requeue_budget) \
            if distributed else None
        #: memo-key -> asyncio.Task computing that point right now
        self._inflight = {}
        self._sem = None
        self._pool = None
        self._stop_event = None
        self._active_connections = 0
        self._last_activity = 0.0
        self._draining = False
        #: "host:port" or the unix socket path, set once listening
        self.bound = None

    # -- lifecycle ---------------------------------------------------------

    def request_stop(self):
        """Ask the serve loop to wind down (threadsafe only via
        ``loop.call_soon_threadsafe``)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve(self, path=None, host=None, port=None, ready=None,
                    announce=None):
        """Listen and serve until a ``shutdown`` op or idle-exit.

        *path* selects a unix socket; otherwise *host*/*port* TCP
        (port 0 picks a free port -- :attr:`bound` reports it).
        *ready*, when given, is a :class:`threading.Event` set once
        listening; *announce* a callable handed one human line.
        """
        loop = asyncio.get_running_loop()
        self._sem = asyncio.Semaphore(self.jobs)
        self._stop_event = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-serve")
        self._last_activity = loop.time()
        if path:
            if os.path.exists(path):
                os.unlink(path)   # stale socket from a dead server
            server = await asyncio.start_unix_server(
                self._handle_connection, path=path)
            self.bound = path
        else:
            server = await asyncio.start_server(
                self._handle_connection, host or "127.0.0.1",
                protocol.DEFAULT_PORT if port is None else port)
            sock = server.sockets[0].getsockname()
            self.bound = "%s:%d" % (sock[0], sock[1])
        if announce:
            announce("serving on %s (jobs=%d, cache=%s%s)"
                     % (self.bound, self.jobs,
                        diskcache.cache_dir()
                        if diskcache.enabled() else "disabled",
                        ", distributed" if self.queue is not None
                        else ""))
        if ready is not None:
            ready.set()
        watchdog = (asyncio.ensure_future(self._idle_watchdog())
                    if self.idle_exit else None)
        reclaimer = (asyncio.ensure_future(self._reclaim_loop())
                     if self.queue is not None else None)
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            for task in (watchdog, reclaimer):
                if task is not None:
                    task.cancel()
            if self.queue is not None:
                self.queue.close()
            self._pool.shutdown(wait=False)
            if path and os.path.exists(path):
                try:
                    os.unlink(path)
                except OSError:
                    pass

    async def _idle_watchdog(self):
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(min(self.idle_exit, 5.0))
            idle = loop.time() - self._last_activity
            # "idle" must include the distributed tier: an idle-exit
            # server may not vanish beneath a connected worker, an
            # unexpired lease, or journal-replayed pending work
            if (idle >= self.idle_exit and not self._inflight
                    and self._active_connections == 0
                    and (self.queue is None or self.queue.idle)):
                self._stop_event.set()
                return

    async def _reclaim_loop(self):
        """Requeue points whose lease missed its heartbeat deadline
        (hung or partitioned workers), failing the ones that exhausted
        their requeue budget."""
        interval = min(max(self.queue.lease_ttl / 4.0, 0.02), 2.0)
        while True:
            await asyncio.sleep(interval)
            self._fail_entries(self.queue.reclaim_expired())

    def _fail_entries(self, entries):
        """Resolve the waiters of freshly-quarantined queue entries."""
        for entry in entries:
            self.counters["failed"] += 1
            if entry.future is not None and not entry.future.done():
                entry.future.set_result(
                    (None, entry.failure, 0.0, False))

    def _touch(self):
        self._last_activity = asyncio.get_running_loop().time()

    # -- per-connection ----------------------------------------------------

    async def _handle_connection(self, reader, writer):
        self.counters["connections"] += 1
        self._active_connections += 1
        self._touch()
        write_lock = asyncio.Lock()
        workers_here = set()    # worker ids registered over this socket
        try:
            while True:
                try:
                    msg = await protocol.read_frame(reader)
                except protocol.ProtocolError:
                    break       # a garbled client gets hung up on
                if msg is None:
                    break
                self._touch()
                op = msg.get("op")
                if op == "ping":
                    await protocol.write_frame(writer, {
                        "ok": True, "version": __version__,
                        "protocol": protocol.PROTOCOL_VERSION,
                        "distributed": self.queue is not None})
                elif op == "stats":
                    await protocol.write_frame(writer,
                                               self.stats_payload())
                elif op == "shutdown":
                    drained = await self._drain()
                    await protocol.write_frame(writer, {
                        "ok": True, "drained": drained})
                    self._stop_event.set()
                    break
                elif op == "submit":
                    await self._handle_submit(msg, writer, write_lock)
                elif op in ("register", "lease", "heartbeat",
                            "complete", "fail"):
                    await protocol.write_frame(
                        writer, self._worker_op(op, msg, workers_here))
                else:
                    await protocol.write_frame(writer, {
                        "error": "unknown op %r" % (op,)})
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass                # client went away; in-flight sims live on
        finally:
            self._active_connections -= 1
            if self.queue is not None:
                # a dropped worker connection requeues everything it
                # held -- immediately, not after the lease TTL
                for wid in workers_here:
                    self._fail_entries(self.queue.release_worker(wid))
            self._touch()
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                pass        # server tearing down under us is fine

    # -- worker ops (the distributed tier) ---------------------------------

    def _worker_op(self, op, msg, workers_here):
        """Handle one register/lease/heartbeat/complete/fail op; the
        reply frame.  Synchronous on the loop thread -- the queue is
        pure bookkeeping."""
        if self.queue is None:
            return {"error": "server is not running in --distributed "
                             "mode; no work queue to %s" % op}
        if op == "register":
            wid = self.queue.register_worker(
                name=msg.get("name", ""), pid=msg.get("pid", 0),
                jobs=msg.get("jobs", 1))
            workers_here.add(wid)
            return {"ok": True, "worker_id": wid,
                    "lease_ttl": self.queue.lease_ttl,
                    "protocol": protocol.PROTOCOL_VERSION}
        if op == "heartbeat":
            return {"ok": self.queue.heartbeat(
                int(msg.get("worker_id", 0)),
                int(msg.get("lease_id", 0)))}
        if op == "lease":
            wid = int(msg.get("worker_id", 0))
            if wid not in self.queue.workers:
                # a restarted server does not know the old ids; the
                # worker re-registers on this error and carries on
                return {"error": "unknown worker %d (re-register)"
                                 % wid}
            lease = self.queue.lease(wid, msg.get("max_points", 1))
            if lease is None:
                if self._draining:
                    return {"type": "drain"}
                return {"type": "empty"}
            return {"type": "lease", "lease_id": lease.lease_id,
                    "points": [
                        {"qkey": k,
                         "wire": self.queue.entries[k].wire,
                         "attempt": self.queue.entries[k].attempts}
                        for k in lease.qkeys
                        if k in self.queue.entries]}
        if op == "complete":
            return self._worker_complete(msg)
        # op == "fail": the worker's hardened ladder already retried;
        # quarantine, exactly as a local sweep would
        entry, failure = self.queue.fail(
            msg.get("qkey", ""), msg.get("kind", "error"),
            msg.get("error", ""), msg.get("attempts", 0))
        if entry is None:
            return {"ok": True, "credited": False}
        self.counters["failed"] += 1
        if entry.future is not None and not entry.future.done():
            entry.future.set_result((None, failure, 0.0, False))
        return {"ok": True, "credited": True}

    def _worker_complete(self, msg):
        """First-writer-wins completion of one leased point."""
        try:
            # trust model: the server unpickles records only from
            # worker completions -- workers are processes the operator
            # launched against this server, the same trust as the
            # client places in the server (protocol.py documents it)
            record = protocol.unpack_record(msg.get("record", ""))
        except Exception as exc:  # noqa: BLE001 - a bad record must not kill the server
            return {"error": "undecodable record: %s: %s"
                             % (type(exc).__name__, exc)}
        entry, credited = self.queue.complete(msg.get("qkey", ""))
        if not credited:
            # a late duplicate (lease expired, the point re-ran
            # elsewhere): discarded, counted, never double-credited
            return {"ok": True, "credited": False}
        wall = float(msg.get("wall", 0.0))
        simulated = bool(msg.get("simulated", False))
        self.counters["retried"] += int(msg.get("retries", 0))
        try:
            pt = protocol.point_from_wire(entry.wire)
            # make the record durable server-side (memo + disk cache)
            # before crediting it -- the worker may not share a cache
            runner.store_result(pt.kernel, pt.config, record,
                                **pt.run_kwargs())
        except Exception as exc:  # noqa: BLE001
            return {"error": "unstorable completion: %s: %s"
                             % (type(exc).__name__, exc)}
        if simulated:
            self.counters["simulated"] += 1
        else:
            self.counters["served_cache"] += 1
        if entry.future is not None and not entry.future.done():
            entry.future.set_result((record, None, wall, simulated))
        return {"ok": True, "credited": True}

    async def _drain(self):
        """Graceful wind-down: wait (bounded) for the queue and local
        in-flight work to empty while workers pull the remainder; then
        give polling workers a moment to receive their ``drain`` frame
        and disconnect.  True when everything completed."""
        if self.queue is None:
            return True
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        while ((self.queue.entries or self._inflight)
               and loop.time() < deadline):
            await asyncio.sleep(0.05)
        drained = not self.queue.entries and not self._inflight
        grace = loop.time() + min(5.0, self.drain_timeout)
        while self.queue.workers and loop.time() < grace:
            await asyncio.sleep(0.05)
        return drained

    async def _handle_submit(self, msg, writer, write_lock):
        self.counters["submissions"] += 1
        raw = msg.get("points")
        if not isinstance(raw, list):
            await protocol.write_frame(writer, {
                "error": "submit without a points list"})
            return
        totals = {"points": 0, "simulated": 0, "failed": 0}

        async def one(i, data):
            frame = await self._point_frame(i, data)
            totals["points"] += 1
            totals["simulated"] += bool(frame.get("simulated"))
            totals["failed"] += frame["type"] == "failure"
            async with write_lock:
                await protocol.write_frame(writer, frame)

        self.counters["points"] += len(raw)
        await asyncio.gather(*(one(i, d) for i, d in enumerate(raw)))
        self._touch()
        async with write_lock:
            await protocol.write_frame(writer, {
                "type": "done", "jobs": self.jobs, **totals})

    async def _point_frame(self, i, data):
        """Resolve one wire point into its response frame."""
        try:
            pt = protocol.point_from_wire(data)
            source, record, failure, wall, simulated = \
                await self._resolve(pt)
            label = pt.label()
        except protocol.ProtocolError as exc:
            return {"type": "failure", "i": i, "label": repr(data),
                    "kind": "protocol", "error": str(exc),
                    "attempts": 0}
        except Exception as exc:  # noqa: BLE001 - a bad point must not kill the server
            self.counters["failed"] += 1
            return {"type": "failure", "i": i, "label": repr(data),
                    "kind": "error",
                    "error": "%s: %s" % (type(exc).__name__, exc),
                    "attempts": 0}
        if failure is not None:
            return {"type": "failure", "i": i, "label": label,
                    "kind": failure.kind, "error": failure.error,
                    "attempts": failure.attempts}
        return {"type": "result", "i": i, "label": label,
                "source": source, "simulated": bool(simulated),
                "wall": round(wall, 6),
                "record": protocol.pack_record(record)}

    # -- point resolution --------------------------------------------------

    async def _resolve(self, pt):
        """``(source, record, failure, wall, simulated)`` for one
        point: cache probe, then join an in-flight computation, then
        schedule a hardened simulation."""
        cached = runner.cached_result(pt.kernel, pt.config,
                                      **pt.run_kwargs())
        if cached is not None:
            self.counters["served_cache"] += 1
            return ("cache", cached, None, 0.0, False)
        if self.queue is not None:
            return await self._resolve_queued(pt)
        key = pt.memo_key()
        task = self._inflight.get(key)
        if task is not None:
            # global dedup: join the computation another waiter
            # started; shield() keeps it alive if *we* are cancelled
            # (our client hung up) -- the other waiters still want it
            record, failure, wall, _simulated = \
                await asyncio.shield(task)
            self.counters["served_inflight"] += 1
            return ("inflight", record, failure, wall, False)
        task = asyncio.ensure_future(self._compute(key, pt))
        self._inflight[key] = task
        record, failure, wall, simulated = await asyncio.shield(task)
        return ("sim" if simulated else "cache", record, failure,
                wall, simulated)

    async def _resolve_queued(self, pt):
        """Distributed miss tier: enqueue the point (joining any
        identical one already queued or leased) and await a worker's
        completion.  shield() for the same reason as the local tier:
        our client hanging up must not abandon other waiters."""
        entry, _created = self.queue.enqueue(protocol.point_to_wire(pt))
        first_waiter = entry.future is None
        if first_waiter:
            entry.future = asyncio.get_running_loop().create_future()
        record, failure, wall, simulated = \
            await asyncio.shield(entry.future)
        if not first_waiter:
            self.counters["served_inflight"] += 1
            return ("inflight", record, failure, wall, False)
        return ("sim" if simulated else "cache", record, failure,
                wall, simulated)

    async def _compute(self, key, pt):
        """Run one miss on the bounded hardened pool; exactly one of
        these exists per in-flight memo key."""
        loop = asyncio.get_running_loop()
        try:
            async with self._sem:
                outcome = await loop.run_in_executor(
                    self._pool, execute_one, pt, self.policy)
        finally:
            self._inflight.pop(key, None)
        self.counters["retried"] += outcome.retries
        if outcome.failure is not None:
            self.counters["failed"] += 1
        elif outcome.simulated:
            self.counters["simulated"] += 1
        else:
            # a sibling process (another server, a CLI sweep) filled
            # the shared disk cache while we queued
            self.counters["served_cache"] += 1
        return (outcome.result, outcome.failure, outcome.wall,
                outcome.simulated)

    # -- introspection -----------------------------------------------------

    def stats_payload(self):
        payload = {"ok": True, "version": __version__,
                   "protocol": protocol.PROTOCOL_VERSION,
                   "jobs": self.jobs, "inflight": len(self._inflight),
                   "distributed": self.queue is not None,
                   "counters": dict(self.counters),
                   "cache": {"process": dict(diskcache.stats),
                             "hot": diskcache.hot_stats(),
                             "disk": diskcache.disk_stats()}}
        if self.queue is not None:
            payload["queue"] = self.queue.stats_payload()
            payload["inflight"] = len(self.queue.entries)
        return payload


class ServerThread:
    """A :class:`SweepServer` on a background thread -- the harness
    tests, the speed bench, and interactive experiments drive a real
    client against a real socket without a second process.

    Prefers a unix socket under *socket_dir* (a fresh temp dir by
    default); hosts without ``AF_UNIX`` fall back to TCP on a free
    port.  Use as a context manager, or ``start()``/``stop()``.
    """

    def __init__(self, jobs=2, timeout=0.0, retries=3, backoff=0.25,
                 idle_exit=0.0, socket_dir=None, distributed=False,
                 journal=None, lease_ttl=DEFAULT_LEASE_TTL,
                 requeue_budget=DEFAULT_REQUEUE_BUDGET,
                 drain_timeout=DEFAULT_DRAIN_TIMEOUT):
        self.server = SweepServer(jobs=jobs, timeout=timeout,
                                  retries=retries, backoff=backoff,
                                  idle_exit=idle_exit,
                                  distributed=distributed,
                                  journal=journal, lease_ttl=lease_ttl,
                                  requeue_budget=requeue_budget,
                                  drain_timeout=drain_timeout)
        self._socket_dir = socket_dir
        self._owns_dir = None
        self._thread = None
        self._ready = threading.Event()
        self._loop = None

    @property
    def address(self):
        return self.server.bound

    def start(self):
        import socket as socket_mod
        path = None
        if hasattr(socket_mod, "AF_UNIX"):
            if self._socket_dir is None:
                import tempfile
                self._owns_dir = tempfile.mkdtemp(prefix="repro-serve-")
                self._socket_dir = self._owns_dir
            else:
                os.makedirs(self._socket_dir, exist_ok=True)
            path = os.path.join(self._socket_dir, "serve.sock")

        async def main():
            self._loop = asyncio.get_running_loop()
            await self.server.serve(path=path, port=0,
                                    ready=self._ready)

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()),
            name="repro-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("sweep server failed to start")
        # serve() sets bound before ready; give it one more instant if
        # the scheduler interleaved oddly
        deadline = time.time() + 5
        while self.server.bound is None and time.time() < deadline:
            time.sleep(0.01)
        return self

    def stop(self):
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self.server.request_stop)
            except RuntimeError:
                pass        # loop already closed (idle-exit fired)
        if self._thread is not None:
            self._thread.join(timeout=30)
        if self._owns_dir:
            import shutil
            shutil.rmtree(self._owns_dir, ignore_errors=True)

    def __enter__(self):
        return self.start()

    def __exit__(self, *_exc):
        self.stop()
        return False
