"""The sweep server: an asyncio result service over the shared cache.

``repro serve`` runs one :class:`SweepServer` per host.  Many clients
connect (unix socket or TCP) and submit sweep point batches; the
server answers each point from the cheapest tier that has it and
streams results back as they complete:

1. **cache** -- the in-process memo, the decoded-record hot tier, or
   the sharded disk store (:func:`repro.eval.runner.cached_result`);
   nothing is simulated.  This is the production path: the cache *is*
   the product, and a warm sweep is served entirely from here.
2. **inflight** -- the point is already in the work queue for another
   waiter (another client, or an earlier point of the same
   submission); the request joins that entry's future.  One
   simulation fans out to every waiter.
3. **sim** -- a true miss, enqueued on the server's one
   :class:`~repro.serve.queue.WorkQueue`.  Its ``--jobs`` slots,
   tasks on the event loop, take pending points (no lease, no TTL)
   and run each with :func:`repro.eval.hardening.execute_one` on the
   server's :class:`~repro.eval.hardening.WorkerPool` (persistent
   forked workers, the ``--timeout`` watchdog, retry, quarantine).
   ``repro worker`` processes lease points from the same queue over
   the frame protocol, and a slot credits its point through the same
   code as their ``complete``/``fail`` ops, first writer wins;
   ``--jobs 0`` leaves every miss to them.  A quarantined point
   becomes a structured failure frame for every waiter, and never
   stalls other points or other clients.

``--journal`` makes the queue durable (:mod:`repro.resilience.journal`):
a restarted server replays it and finishes the pending points.
Results cross the wire as pickled records (see
:mod:`repro.serve.protocol`), so a server-routed sweep is bit-identical
to a direct ``runner.run`` -- the conformance tests assert it.

Concurrency model: the asyncio loop owns all bookkeeping (the queue,
counters, frame writes); a slot's simulation runs on a thread pool
whose threads merely block on the hardened engine's worker pipes, so
the GIL is never contended by simulation work.  The server holds one
worker pool for its lifetime: a ``shutdown`` op,
:meth:`SweepServer.serve`'s exit and :meth:`ServerThread.stop` all
return only after every worker has been joined; a point still in
flight then stays unresolved.
"""

from __future__ import annotations

import asyncio
import os
import threading
from concurrent.futures import ThreadPoolExecutor

from .. import __version__
from ..eval import diskcache, runner
from ..eval.hardening import HardeningPolicy, WorkerPool, execute_one
from . import protocol
from .queue import (DEFAULT_LEASE_TTL, DEFAULT_REQUEUE_BUDGET,
                    WorkQueue)

#: seconds a graceful drain waits for leases + queue to empty
DEFAULT_DRAIN_TIMEOUT = 30.0


class SweepServer:
    """One result-serving process; see the module docstring.

    *jobs* is the number of simulation slots (None: the CPU count; 0:
    none), *timeout*/*retries*/*backoff* the per-point hardening
    knobs, *idle_exit* stops the server after that many seconds with
    no client activity and an idle queue (0 = run forever).  *journal*
    persists the queue across restarts, *lease_ttl*/*requeue_budget*
    are its workers' robustness knobs, *drain_timeout* bounds the
    graceful ``shutdown`` wait.
    """

    def __init__(self, jobs=None, timeout=0.0, retries=3, backoff=0.25,
                 idle_exit=0.0, journal=None,
                 lease_ttl=DEFAULT_LEASE_TTL,
                 requeue_budget=DEFAULT_REQUEUE_BUDGET,
                 drain_timeout=DEFAULT_DRAIN_TIMEOUT):
        self.jobs = (os.cpu_count() or 2) if jobs is None \
            else max(0, int(jobs))
        self.policy = HardeningPolicy(
            timeout=float(timeout or 0.0), retries=max(1, int(retries)),
            backoff=max(0.0, float(backoff)))
        self.idle_exit = float(idle_exit or 0.0)
        self.drain_timeout = max(0.1, float(drain_timeout))
        self.counters = {
            "connections": 0, "submissions": 0, "points": 0,
            "served_cache": 0, "served_inflight": 0, "simulated": 0,
            "failed": 0, "retried": 0}
        #: every miss, whoever simulates it
        self.queue = WorkQueue(journal_path=journal,
                               lease_ttl=lease_ttl,
                               requeue_budget=requeue_budget)
        #: the forked workers the slots simulate on, joined when
        #: serve() ends
        self.workers = WorkerPool()
        self._slots = []
        #: set when a point becomes pending; idle slots wait on it
        self._work = None
        self._threads = None
        self._stop_event = None
        self._active_connections = 0
        #: the stream writer of every open client connection
        self._writers = set()
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
        self._stop_event = asyncio.Event()
        self._work = asyncio.Event()
        self._threads = ThreadPoolExecutor(
            max_workers=max(1, self.jobs),
            thread_name_prefix="repro-serve")
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
            announce("serving on %s (jobs=%d, cache=%s)"
                     % (self.bound, self.jobs,
                        diskcache.cache_dir()
                        if diskcache.enabled() else "disabled"))
        if ready is not None:
            ready.set()
        self._slots = [asyncio.ensure_future(self._slot())
                       for _ in range(self.jobs)]
        tasks = [asyncio.ensure_future(self._reclaim_loop())]
        if self.idle_exit:
            tasks.append(asyncio.ensure_future(self._idle_watchdog()))
        try:
            async with server:
                try:
                    await self._stop_event.wait()
                finally:
                    # leaving the block waits for every client
                    # connection to end (Python >= 3.12.1), so hang up
                    # on them all, as a stopped server's clients see
                    # on older Pythons: idle ones would never end, and
                    # a submit waiting on a workerless queue neither.
                    self._close_workers()
                    for writer in list(self._writers):
                        writer.close()
        finally:
            for task in tasks:
                task.cancel()
            self.queue.close()
            self._threads.shutdown(wait=False)
            if path and os.path.exists(path):
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def _close_workers(self):
        """Stop the slots, then join every worker.  Slots go first, so
        the failure of a point whose worker is killed is not credited
        or journaled: the point stays pending."""
        for slot in self._slots:
            slot.cancel()
        self.workers.close()

    async def _idle_watchdog(self):
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(min(self.idle_exit, 5.0))
            idle = loop.time() - self._last_activity
            # an idle-exit server may not vanish beneath a point in
            # flight, a connected worker, an unexpired lease, or
            # journal-replayed pending work
            if (idle >= self.idle_exit
                    and self._active_connections == 0
                    and self.queue.idle):
                self._stop_event.set()
                return

    async def _reclaim_loop(self):
        """Requeue points whose lease missed its heartbeat deadline
        (hung or partitioned workers), failing the ones that exhausted
        their requeue budget."""
        interval = min(max(self.queue.lease_ttl / 4.0, 0.02), 2.0)
        while True:
            await asyncio.sleep(interval)
            self._requeued(self.queue.reclaim_expired())

    def _requeued(self, exhausted):
        """Broken leases requeued their points: wake the slots, and
        fail the *exhausted* entries' waiters."""
        self._work.set()
        self._fail_entries(exhausted)

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
        self._writers.add(writer)
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
                        "protocol": protocol.PROTOCOL_VERSION})
                elif op == "stats":
                    await protocol.write_frame(writer,
                                               self.stats_payload())
                elif op == "shutdown":
                    drained = await self._drain()
                    # reply only once no worker is left, so
                    # ``repro serve --stop`` returns after them
                    self._close_workers()
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
            pass                # client went away; queued work lives on
        finally:
            self._writers.discard(writer)
            self._active_connections -= 1
            # a dropped worker connection requeues everything it
            # held -- immediately, not after the lease TTL
            for wid in workers_here:
                self._requeued(self.queue.release_worker(wid))
            self._touch()
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                pass        # server tearing down under us is fine

    # -- the work queue's consumers -----------------------------------------

    async def _slot(self):
        """One local simulation slot: take a pending point, run it on
        the worker pool under the hardened ladder, credit it."""
        loop = asyncio.get_running_loop()
        while True:
            entry = self.queue.take()
            if entry is None:
                self._work.clear()
                await self._work.wait()
                continue
            try:
                pt = protocol.point_from_wire(entry.wire)
            except protocol.ProtocolError as exc:
                self._fail(entry.qkey, "protocol", str(exc), 1)
                continue
            outcome = await loop.run_in_executor(
                self._threads, execute_one, pt, self.policy,
                self.workers)
            failure = outcome.failure
            if failure is None:
                self._complete(entry.qkey, outcome.result, outcome.wall,
                               outcome.simulated, outcome.retries)
            else:
                self.counters["retried"] += outcome.retries
                self._fail(entry.qkey, failure.kind, failure.error,
                           failure.attempts)

    def _complete(self, qkey, record, wall, simulated, retries):
        """Credit one finished point, whoever ran it -- first writer
        wins; True when credited.  One that did not simulate was
        served by a cache a sibling process filled meanwhile."""
        entry, credited = self.queue.complete(qkey)
        if not credited:
            # a late duplicate (a lease expired and the point re-ran
            # elsewhere): discarded, counted, never double-credited
            return False
        self.counters["retried"] += retries
        self.counters["simulated" if simulated else "served_cache"] += 1
        if entry.future is not None and not entry.future.done():
            entry.future.set_result((record, None, wall, simulated))
        return True

    def _fail(self, qkey, kind, error, attempts):
        """Quarantine one point the hardened ladder (in a slot or a
        worker) gave up on; True when credited."""
        entry, _failure = self.queue.fail(qkey, kind, error, attempts)
        if entry is None:
            return False
        self._fail_entries([entry])
        return True

    def _worker_op(self, op, msg, workers_here):
        """Handle one register/lease/heartbeat/complete/fail op; the
        reply frame.  Synchronous on the loop thread -- the queue is
        pure bookkeeping."""
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
        # complete/fail: refused unread unless from a worker
        # registered over this connection, for a point leased to it
        wid = int(msg.get("worker_id", 0))
        if wid not in workers_here:
            return {"error": "unknown worker %d (re-register)" % wid}
        qkey = msg.get("qkey", "")
        if not self.queue.leased_to(qkey, wid):
            self.queue.counters["duplicates"] += 1
            return {"ok": True, "credited": False}
        if op == "complete":
            return self._worker_complete(qkey, msg)
        # op == "fail": quarantine, exactly as a local sweep would
        return {"ok": True, "credited": self._fail(
            qkey, msg.get("kind", "error"), msg.get("error", ""),
            msg.get("attempts", 0))}

    def _worker_complete(self, qkey, msg):
        """A worker's completion of a point it was leased: store its
        record, then credit it."""
        try:
            record = protocol.unpack_record(msg.get("record", ""))
            pt = protocol.point_from_wire(self.queue.entries[qkey].wire)
            # make the record durable server-side (memo + disk cache)
            # before crediting it -- the worker may not share a cache
            runner.store_result(pt.kernel, pt.config, record,
                                **pt.run_kwargs())
        except Exception as exc:  # noqa: BLE001 - a bad record must not kill the server
            return {"error": "unusable completion: %s: %s"
                             % (type(exc).__name__, exc)}
        return {"ok": True, "credited": self._complete(
            qkey, record, float(msg.get("wall", 0.0)),
            bool(msg.get("simulated", False)),
            int(msg.get("retries", 0)))}

    async def _drain(self):
        """Graceful wind-down: wait (bounded) for the queue to empty
        while the slots and workers finish the remainder; then give
        polling workers a moment to receive their ``drain`` frame and
        disconnect.  True when everything completed."""
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        while self.queue.entries and loop.time() < deadline:
            await asyncio.sleep(0.05)
        drained = not self.queue.entries
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
        point: cache probe, else enqueue it (joining the entry already
        queued or in flight) and await its completion.  shield() keeps
        the entry's future alive if *we* are cancelled (our client
        hung up) -- the other waiters still want it."""
        cached = runner.cached_result(pt.kernel, pt.config,
                                      **pt.run_kwargs())
        if cached is not None:
            self.counters["served_cache"] += 1
            return ("cache", cached, None, 0.0, False)
        entry, created = self.queue.enqueue(protocol.point_to_wire(pt))
        if created:
            self._work.set()
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

    # -- introspection -----------------------------------------------------

    def stats_payload(self):
        return {"ok": True, "version": __version__,
                "protocol": protocol.PROTOCOL_VERSION,
                "jobs": self.jobs, "inflight": len(self.queue.entries),
                "counters": dict(self.counters,
                                 spawned=self.workers.spawned,
                                 workers=self.workers.live),
                "cache": {"process": dict(diskcache.stats),
                          "hot": diskcache.hot_stats(),
                          "disk": diskcache.disk_stats()},
                "queue": self.queue.stats_payload()}


class ServerThread:
    """A :class:`SweepServer` on a background thread -- the harness
    tests, the speed bench, and interactive experiments drive a real
    client against a real socket without a second process.
    *server_kwargs* go to :class:`SweepServer`.

    Prefers a unix socket under *socket_dir* (a fresh temp dir by
    default); hosts without ``AF_UNIX`` fall back to TCP on a free
    port.  Use as a context manager, or ``start()``/``stop()``.
    """

    def __init__(self, jobs=2, socket_dir=None, **server_kwargs):
        self.server = SweepServer(jobs=jobs, **server_kwargs)
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
        return self     # serve() sets bound before ready

    def stop(self):
        """Stop the server and join its thread, which ends only after
        the server's worker processes have been joined."""
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
